package mpeg

import (
	"math"
	"testing"
	"testing/quick"

	"spiffi/internal/sim"
)

func shortParams() Params {
	p := DefaultParams()
	p.Length = 2 * sim.Minute
	return p
}

func TestGOPPatternRatios(t *testing.T) {
	var i, pp, b int
	for _, ft := range GOPPattern {
		switch ft {
		case FrameI:
			i++
		case FrameP:
			pp++
		default:
			b++
		}
	}
	if i != 1 || pp != 4 || b != 10 {
		t.Fatalf("GOP ratios I:P:B = %d:%d:%d, want 1:4:10", i, pp, b)
	}
}

func TestStreamRateMatchesBitRate(t *testing.T) {
	p := DefaultParams()
	v := Generate(p, 0, 42)
	gotRate := float64(v.TotalBytes()) * 8 / v.Duration().Seconds()
	if math.Abs(gotRate-float64(p.BitRate))/float64(p.BitRate) > 0.02 {
		t.Fatalf("stream rate %v bits/s, want ~%d", gotRate, p.BitRate)
	}
}

func TestFrameSizeRatios(t *testing.T) {
	v := Generate(DefaultParams(), 0, 42)
	var sums [3]float64
	var counts [3]int
	for i := 0; i < v.NumFrames(); i++ {
		ft := v.FrameType(i)
		sums[ft] += float64(v.FrameSize(i))
		counts[ft]++
	}
	meanI := sums[FrameI] / float64(counts[FrameI])
	meanP := sums[FrameP] / float64(counts[FrameP])
	meanB := sums[FrameB] / float64(counts[FrameB])
	if r := meanI / meanP; math.Abs(r-2) > 0.1 {
		t.Fatalf("I/P mean size ratio %v, want ~2", r)
	}
	if r := meanP / meanB; math.Abs(r-2.5) > 0.15 {
		t.Fatalf("P/B mean size ratio %v, want ~2.5", r)
	}
}

func TestFrameSizesExponential(t *testing.T) {
	// For an exponential distribution the coefficient of variation is 1.
	v := Generate(DefaultParams(), 3, 42)
	var sum, sumSq float64
	n := 0
	for i := 0; i < v.NumFrames(); i++ {
		if v.FrameType(i) != FrameB {
			continue
		}
		s := float64(v.FrameSize(i))
		sum += s
		sumSq += s * s
		n++
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if cv := sd / mean; math.Abs(cv-1) > 0.05 {
		t.Fatalf("B-frame size CV %v, want ~1 (exponential)", cv)
	}
}

func TestSameVideoSameSequence(t *testing.T) {
	a := Generate(shortParams(), 5, 42)
	b := Generate(shortParams(), 5, 42)
	if a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same video generated differently")
	}
	for i := 0; i < a.NumFrames(); i += 97 {
		if a.FrameSize(i) != b.FrameSize(i) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestDifferentVideosDiffer(t *testing.T) {
	a := Generate(shortParams(), 1, 42)
	b := Generate(shortParams(), 2, 42)
	if a.TotalBytes() == b.TotalBytes() {
		t.Fatal("distinct videos improbably identical")
	}
}

func TestNumFramesAndDuration(t *testing.T) {
	p := DefaultParams()
	if p.NumFrames() != 108000 {
		t.Fatalf("60min at 30fps = %d frames, want 108000", p.NumFrames())
	}
	v := Generate(shortParams(), 0, 1)
	if v.NumFrames() != 3600 {
		t.Fatalf("2min = %d frames, want 3600", v.NumFrames())
	}
}

func TestFirstIncompleteFrame(t *testing.T) {
	v := Generate(shortParams(), 0, 42)
	// Zero bytes buffered: frame 0 is incomplete.
	if got := v.FirstIncompleteFrame(0, 0); got != 0 {
		t.Fatalf("FirstIncompleteFrame(0, 0) = %d", got)
	}
	// Exactly the first three frames buffered.
	fr := v.BytesBeforeFrame(3)
	if got := v.FirstIncompleteFrame(fr, 0); got != 3 {
		t.Fatalf("FirstIncompleteFrame(cum3, 0) = %d, want 3", got)
	}
	// One byte short of frame 3's completion.
	if got := v.FirstIncompleteFrame(v.BytesBeforeFrame(4)-1, 0); got != 3 {
		t.Fatalf("one byte short = %d, want 3", got)
	}
	// Whole video buffered.
	if got := v.FirstIncompleteFrame(v.TotalBytes(), 0); got != v.NumFrames() {
		t.Fatalf("whole video = %d, want %d", got, v.NumFrames())
	}
}

func TestFirstIncompleteFrameProperty(t *testing.T) {
	v := Generate(shortParams(), 7, 42)
	f := func(raw uint32) bool {
		frontier := int64(raw) % (v.TotalBytes() + 1)
		f := v.FirstIncompleteFrame(frontier, 0)
		// All frames before f fit; frame f itself (if any) does not.
		if v.BytesBeforeFrame(f) > frontier {
			return false
		}
		if f < v.NumFrames() && v.BytesBeforeFrame(f+1) <= frontier {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// A lower bound only shortens the search: for every frame boundary of a
// small video, every offset one byte either side of one, and every valid
// lower bound, the bounded search agrees with the unbounded one and with
// a linear scan.
func TestFirstIncompleteFrameLowerBound(t *testing.T) {
	p := shortParams()
	p.Length = 3 * sim.Second
	v := Generate(p, 3, 42)
	for i := 0; i <= v.NumFrames(); i++ {
		for _, off := range []int64{v.BytesBeforeFrame(i) - 1, v.BytesBeforeFrame(i), v.BytesBeforeFrame(i) + 1} {
			if off < 0 || off > v.TotalBytes() {
				continue
			}
			want := 0
			for want < v.NumFrames() && v.BytesBeforeFrame(want+1) <= off {
				want++
			}
			if got := v.FirstIncompleteFrame(off, 0); got != want {
				t.Fatalf("FirstIncompleteFrame(%d, 0) = %d, linear scan says %d", off, got, want)
			}
			for from := 0; from <= want; from++ {
				if got := v.FirstIncompleteFrame(off, from); got != want {
					t.Fatalf("FirstIncompleteFrame(%d, %d) = %d, unbounded %d", off, from, got, want)
				}
			}
		}
	}
}

func TestConsumptionAccounting(t *testing.T) {
	v := Generate(shortParams(), 0, 42)
	period := v.FramePeriod()
	if got := v.FramesDisplayedBy(0); got != 0 {
		t.Fatalf("t=0 displayed %d", got)
	}
	if got := v.FramesDisplayedBy(period - 1); got != 0 {
		t.Fatalf("mid-frame displayed %d", got)
	}
	if got := v.FramesDisplayedBy(period); got != 1 {
		t.Fatalf("after 1 period displayed %d", got)
	}
	if got := v.FramesDisplayedBy(10*period + period/2); got != 10 {
		t.Fatalf("10.5 periods displayed %d", got)
	}
	// Past the end, the whole video is consumed.
	if got := v.FramesDisplayedBy(v.Duration() * 2); got != v.NumFrames() {
		t.Fatalf("past end displayed %d", got)
	}
}

func TestLibraryLazyAndStable(t *testing.T) {
	lib := NewLibrary(shortParams(), 8, 42)
	if lib.Count() != 8 {
		t.Fatal("count")
	}
	a := lib.Get(3)
	b := lib.Get(3)
	if a != b {
		t.Fatal("library did not cache")
	}
	fresh := Generate(shortParams(), 3, 42)
	if a.TotalBytes() != fresh.TotalBytes() {
		t.Fatal("library video differs from direct generation")
	}
}

func TestLibraryOutOfRangePanics(t *testing.T) {
	lib := NewLibrary(shortParams(), 4, 42)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lib.Get(4)
}

func TestSharedLibraryIdentity(t *testing.T) {
	a := SharedLibrary(shortParams(), 4, 99)
	b := SharedLibrary(shortParams(), 4, 99)
	if a != b {
		t.Fatal("shared library not shared")
	}
	c := SharedLibrary(shortParams(), 4, 100)
	if a == c {
		t.Fatal("different seeds must not share")
	}
}

func TestVideoSizeMatchesPaper(t *testing.T) {
	// §5.2.1: "2 hours equals 4 Gbytes" at 4 Mbit/s -> 1 hour ~ 1.8 GB.
	v := Generate(DefaultParams(), 0, 42)
	gb := float64(v.TotalBytes()) / 1e9
	if gb < 1.7 || gb > 1.9 {
		t.Fatalf("1-hour video is %.2f GB, want ~1.8", gb)
	}
}

func BenchmarkGenerate(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		Generate(p, i, 42)
	}
}

func BenchmarkFirstIncompleteFrame(b *testing.B) {
	v := Generate(DefaultParams(), 0, 42)
	total := v.TotalBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.FirstIncompleteFrame(int64(i)%total, 0)
	}
}

func TestBytesBeforeFrameMonotone(t *testing.T) {
	v := Generate(shortParams(), 2, 42)
	prev := int64(-1)
	for i := 0; i <= v.NumFrames(); i += 13 {
		b := v.BytesBeforeFrame(i)
		if b <= prev {
			t.Fatalf("prefix sums not strictly increasing at frame %d", i)
		}
		prev = b
	}
}

func TestFramePeriodNTSC(t *testing.T) {
	p := DefaultParams()
	// 30 fps -> 33.33 ms.
	ms := p.FramePeriod().Seconds() * 1000
	if math.Abs(ms-33.333) > 0.01 {
		t.Fatalf("frame period = %vms", ms)
	}
}

func TestDurationMatchesLength(t *testing.T) {
	v := Generate(shortParams(), 0, 42)
	if got := v.Duration().Seconds(); math.Abs(got-120) > 0.1 {
		t.Fatalf("duration = %vs, want 120", got)
	}
}

func TestFrameTypeSequence(t *testing.T) {
	v := Generate(shortParams(), 0, 42)
	// Frame 0 of every GOP is an I frame; 15-frame GOPs.
	for _, i := range []int{0, 15, 30, 1500} {
		if v.FrameType(i) != FrameI {
			t.Fatalf("frame %d type = %v, want I", i, v.FrameType(i))
		}
	}
	if v.FrameType(1) != FrameB || v.FrameType(3) != FrameP {
		t.Fatal("GOP pattern misaligned")
	}
}
