// Package mpeg models MPEG-compressed video streams the way the SPIFFI
// paper does (§6.1): each video is a fixed sequence of I, P and B frames
// with a 1:4:10 frequency ratio, a 10:5:2 mean-size ratio, exponentially
// distributed individual frame sizes, and an aggregate rate of
// 4 Mbits/second at ~30 frames/second. The same video always replays the
// same frame sequence (sizes are derived from the video's id), exactly as
// in the paper.
package mpeg

import (
	"fmt"
	"sort"

	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// FrameType labels the three MPEG frame kinds.
type FrameType uint8

const (
	FrameI FrameType = iota
	FrameP
	FrameB
)

func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	default:
		return "B"
	}
}

// GOPPattern is the 15-frame group-of-pictures display pattern giving the
// paper's 1:4:10 I:P:B frequency ratio.
var GOPPattern = []FrameType{
	FrameI, FrameB, FrameB,
	FrameP, FrameB, FrameB,
	FrameP, FrameB, FrameB,
	FrameP, FrameB, FrameB,
	FrameP, FrameB, FrameB,
}

// Params describes a video stream encoding.
type Params struct {
	BitRate   int64        // compressed bits per second (paper: 4 Mbit/s)
	FrameRate float64      // frames per second (paper: 30, NTSC)
	SizeI     float64      // relative mean size of I frames (paper: 10)
	SizeP     float64      // relative mean size of P frames (paper: 5)
	SizeB     float64      // relative mean size of B frames (paper: 2)
	Length    sim.Duration // video length (paper: 60 minutes)
}

// DefaultParams returns the paper's Table 1 video parameters.
func DefaultParams() Params {
	return Params{
		BitRate:   4_000_000,
		FrameRate: 30,
		SizeI:     10,
		SizeP:     5,
		SizeB:     2,
		Length:    60 * sim.Minute,
	}
}

// MeanFrameBytes returns the mean bytes per frame implied by the bit rate.
func (p Params) MeanFrameBytes() float64 {
	return float64(p.BitRate) / 8 / p.FrameRate
}

// sizeUnit returns the byte value of one relative-size unit such that the
// GOP-average frame size matches the bit rate.
func (p Params) sizeUnit() float64 {
	var relSum float64
	for _, t := range GOPPattern {
		switch t {
		case FrameI:
			relSum += p.SizeI
		case FrameP:
			relSum += p.SizeP
		default:
			relSum += p.SizeB
		}
	}
	return p.MeanFrameBytes() * float64(len(GOPPattern)) / relSum
}

// NumFrames returns the frame count for the configured length.
func (p Params) NumFrames() int {
	return int(p.Length.Seconds() * p.FrameRate)
}

// FramePeriod returns the display time of one frame.
func (p Params) FramePeriod() sim.Duration {
	return sim.Duration(float64(sim.Second) / p.FrameRate)
}

// Video is one generated video: an immutable frame-size sequence with
// byte prefix sums for O(log n) byte<->frame<->time conversions.
type Video struct {
	cum    []int64 // cum[i] = total bytes of frames [0, i); len = NumFrames+1
	period sim.Duration
}

// Generate builds the deterministic frame sequence for video id. The
// sequence depends only on (seed, id, params), so every replay of a video
// is identical — the paper's §6.1 requirement.
func Generate(params Params, id int, seed uint64) *Video {
	n := params.NumFrames()
	if n <= 0 {
		panic(fmt.Sprintf("mpeg: params give %d frames", n))
	}
	unit := params.sizeUnit()
	src := rng.New(seed).DeriveIndexed("mpeg-video", id)
	cum := make([]int64, n+1)
	var total int64
	for i := 0; i < n; i++ {
		var mean float64
		switch GOPPattern[i%len(GOPPattern)] {
		case FrameI:
			mean = params.SizeI * unit
		case FrameP:
			mean = params.SizeP * unit
		default:
			mean = params.SizeB * unit
		}
		size := int64(src.Exp(mean))
		if size < 1 {
			size = 1
		}
		total += size
		cum[i+1] = total
	}
	return &Video{cum: cum, period: params.FramePeriod()}
}

// NumFrames returns the frame count.
func (v *Video) NumFrames() int { return len(v.cum) - 1 }

// TotalBytes returns the total compressed size.
func (v *Video) TotalBytes() int64 { return v.cum[len(v.cum)-1] }

// FramePeriod returns the display time of one frame.
func (v *Video) FramePeriod() sim.Duration { return v.period }

// Duration returns the total display time.
func (v *Video) Duration() sim.Duration {
	return sim.Duration(v.NumFrames()) * v.period
}

// FrameType returns the type of frame i.
func (v *Video) FrameType(i int) FrameType { return GOPPattern[i%len(GOPPattern)] }

// FrameSize returns the compressed size of frame i in bytes.
func (v *Video) FrameSize(i int) int64 { return v.cum[i+1] - v.cum[i] }

// BytesBeforeFrame returns the total bytes of frames [0, i). It accepts
// i in [0, NumFrames].
func (v *Video) BytesBeforeFrame(i int) int64 { return v.cum[i] }

// FirstIncompleteFrame returns the smallest frame index f such that
// frame f's data is NOT fully contained in the first `frontier` bytes of
// the stream; i.e. frames [0, f) are displayable. If the whole video fits,
// it returns NumFrames.
//
// from is a lower bound on the answer: every frame before it must be
// complete within frontier (0 always is). The search gallops forward
// from it, so a caller that knows an answer for fewer bytes pays only
// for the frames between the two.
func (v *Video) FirstIncompleteFrame(frontier int64, from int) int {
	n := v.NumFrames()
	lo, hi := from, n
	for step := 1; lo < n; step *= 2 {
		probe := min(lo+step-1, n-1)
		if v.cum[probe+1] > frontier {
			hi = probe
			break
		}
		lo = probe + 1
	}
	// The answer is the first f in [lo, hi) with cum[f+1] > frontier, or hi.
	return lo + sort.Search(hi-lo, func(i int) bool { return v.cum[lo+i+1] > frontier })
}

// FramesSpanned returns how many whole frames complete within the byte
// range [lo, hi) — the frames a viewer loses when a degraded stream
// skips that range (overload load shedding).
func (v *Video) FramesSpanned(lo, hi int64) int {
	n := v.FirstIncompleteFrame(hi, 0) - v.FirstIncompleteFrame(lo, 0)
	if n < 0 {
		return 0
	}
	return n
}

// FramesDisplayedBy returns how many frames have *finished* displaying
// after elapsed display time e (display starts at e=0, frame k occupies
// [k*period, (k+1)*period)).
func (v *Video) FramesDisplayedBy(e sim.Duration) int {
	if e < 0 {
		return 0
	}
	f := int(e / v.period)
	if f > v.NumFrames() {
		f = v.NumFrames()
	}
	return f
}
