package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-scaled latency histogram: bucket i covers
// [base*2^i, base*2^(i+1)). It summarizes response-time distributions —
// means hide exactly the tail that causes glitches, so the simulator
// reports percentiles too.
type Histogram struct {
	base    float64 // lower bound of bucket 0
	buckets []int64
	under   int64 // samples below base
	count   int64
	sum     float64
	max     float64
}

// NewHistogram creates a histogram with the given bucket-0 lower bound
// and bucket count; samples beyond the last bucket clamp into it.
func NewHistogram(base float64, buckets int) *Histogram {
	if base <= 0 || buckets < 1 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{base: base, buckets: make([]int64, buckets)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.base {
		h.under++
		return
	}
	// Log2 of the quotient is only a first guess at the bucket index:
	// both the division and math.Log2 round, so a sample near (or
	// exactly on) a bucket edge can land one bucket off. The boundary
	// comparisons below make bucketing exact — math.Ldexp scales by a
	// power of two without rounding — so edge values deterministically
	// satisfy lower(i) <= v < lower(i+1).
	i := int(math.Log2(v / h.base))
	if i >= 0 && v < math.Ldexp(h.base, i) {
		i-- // Log2 rounded up across the lower edge
	} else if v >= math.Ldexp(h.base, i+1) {
		i++ // Log2 rounded down across the upper edge
	}
	if i < 0 {
		// Only reachable through rounding in v/h.base when v is within
		// one ulp of base; v >= base held above, so bucket 0 is correct.
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges; exact to within one power of two.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	seen := h.under
	if seen >= target {
		return h.base
	}
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			return math.Ldexp(h.base, i+1)
		}
	}
	return h.max
}

// String renders non-empty buckets with counts, for reports.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.4g max=%.4g", h.count, h.Mean(), h.max)
	if h.under > 0 {
		fmt.Fprintf(&b, " | <%.3g: %d", h.base, h.under)
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := math.Ldexp(h.base, i)
		fmt.Fprintf(&b, " | %.3g-%.3g: %d", lo, lo*2, c)
	}
	return b.String()
}
