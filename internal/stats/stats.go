// Package stats provides the measurement machinery for the SPIFFI
// simulation: sample tallies, windowed peak-rate meters (for the paper's
// Figure 18 aggregate network bandwidth), and the Student-t confidence
// intervals behind the paper's §7.1 stopping rule ("90% confident that
// the results were within 5%").
package stats

import "math"

// Tally accumulates independent samples and reports summary statistics.
type Tally struct {
	n          int64
	sum, sumSq float64
}

// Add records one sample.
func (t *Tally) Add(v float64) {
	t.n++
	t.sum += v
	t.sumSq += v * v
}

// N returns the sample count.
func (t *Tally) N() int64 { return t.n }

// Mean returns the sample mean, or 0 with no samples.
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Variance returns the unbiased sample variance, or 0 with <2 samples.
func (t *Tally) Variance() float64 {
	if t.n < 2 {
		return 0
	}
	n := float64(t.n)
	v := (t.sumSq - t.sum*t.sum/n) / (n - 1)
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// StdDev returns the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Variance()) }

// PeakRateMeter measures the peak transfer rate over fixed-width windows:
// bytes recorded in each window are summed and the largest window total is
// retained. The paper's Figure 18 reports peak aggregate network
// bandwidth this way.
type PeakRateMeter struct {
	window  float64 // seconds
	bucket  int64   // current window index
	current float64 // bytes in current window
	peak    float64 // bytes in the fullest window
	total   float64 // bytes overall
	started bool
}

// NewPeakRateMeter creates a meter with the given window width (seconds).
func NewPeakRateMeter(windowSeconds float64) *PeakRateMeter {
	if windowSeconds <= 0 {
		panic("stats: non-positive window")
	}
	return &PeakRateMeter{window: windowSeconds}
}

// Record adds bytes transferred at time t (seconds).
func (m *PeakRateMeter) Record(t, bytes float64) {
	b := int64(t / m.window)
	if !m.started || b != m.bucket {
		if m.started && m.current > m.peak {
			m.peak = m.current
		}
		m.bucket = b
		m.current = 0
		m.started = true
	}
	m.current += bytes
	m.total += bytes
}

// PeakRate returns the highest observed window rate in bytes/second.
func (m *PeakRateMeter) PeakRate() float64 {
	p := m.peak
	if m.current > p {
		p = m.current
	}
	return p / m.window
}

// Total returns the total bytes recorded.
func (m *PeakRateMeter) Total() float64 { return m.total }

// Reset discards all recorded bytes.
func (m *PeakRateMeter) Reset() {
	m.bucket, m.current, m.peak, m.total, m.started = 0, 0, 0, 0, false
}
