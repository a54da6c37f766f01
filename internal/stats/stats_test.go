package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var ty Tally
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		ty.Add(v)
	}
	if ty.N() != 8 {
		t.Fatalf("n = %d", ty.N())
	}
	if ty.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", ty.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got, want := ty.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
}

func TestTallyEmptyAndReset(t *testing.T) {
	var ty Tally
	if ty.Mean() != 0 || ty.Variance() != 0 {
		t.Fatal("empty tally should report zeros")
	}
}

func TestTallyVarianceNonNegativeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var ty Tally
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp to a physically plausible range; the quick generator
			// produces values near ±MaxFloat64 whose squares overflow.
			ty.Add(math.Mod(v, 1e9))
		}
		return ty.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeakRateMeter(t *testing.T) {
	m := NewPeakRateMeter(1.0)
	m.Record(0.1, 100)
	m.Record(0.5, 200) // window 0: 300 bytes
	m.Record(1.2, 50)  // window 1: 50
	m.Record(2.9, 500) // window 2: 500
	if got := m.PeakRate(); got != 500 {
		t.Fatalf("peak = %v, want 500", got)
	}
	if m.Total() != 850 {
		t.Fatalf("total = %v", m.Total())
	}
}

func TestPeakRateMeterCurrentWindowCounts(t *testing.T) {
	m := NewPeakRateMeter(2.0)
	m.Record(0.5, 900)
	// Peak must include the still-open window.
	if got := m.PeakRate(); got != 450 {
		t.Fatalf("peak = %v, want 450", got)
	}
}

func TestConfidenceIntervalKnownValues(t *testing.T) {
	// 5 samples, mean 10, sample variance 1.25 ->
	// half width = 2.132 * sqrt(1.25/5) = 1.066
	samples := []float64{8.58578643, 9.29289321, 10, 10.70710678, 11.41421356}
	iv := ConfidenceInterval(samples, 0.90)
	if math.Abs(iv.Mean-10) > 1e-6 {
		t.Fatalf("mean = %v", iv.Mean)
	}
	if math.Abs(iv.HalfWidth-1.066) > 1e-3 {
		t.Fatalf("half width = %v", iv.HalfWidth)
	}
	if !iv.WithinRelative(0.11) {
		t.Fatal("should be within 11%")
	}
	if iv.WithinRelative(0.05) {
		t.Fatal("should not be within 5%")
	}
}

func TestConfidenceIntervalFewSamples(t *testing.T) {
	iv := ConfidenceInterval([]float64{5}, 0.90)
	if !math.IsInf(iv.HalfWidth, 1) {
		t.Fatal("single sample should have infinite half-width")
	}
	if iv.WithinRelative(0.05) {
		t.Fatal("single sample can never satisfy the stopping rule")
	}
}

func TestConfidenceZeroVariance(t *testing.T) {
	iv := ConfidenceInterval([]float64{200, 200, 200}, 0.90)
	if iv.HalfWidth != 0 {
		t.Fatalf("half width = %v, want 0", iv.HalfWidth)
	}
	if !iv.WithinRelative(0.05) {
		t.Fatal("identical samples satisfy any relative bound")
	}
}

func TestTCriticalTableShape(t *testing.T) {
	if TCritical(0.90, 1) != 6.314 {
		t.Fatal("df=1 90%")
	}
	if TCritical(0.95, 10) != 2.228 {
		t.Fatal("df=10 95%")
	}
	if TCritical(0.90, 1000) != 1.645 {
		t.Fatal("large df should use normal quantile")
	}
	for df := 2; df <= 30; df++ {
		if TCritical(0.90, df) >= TCritical(0.90, df-1) {
			t.Fatalf("t table not decreasing at df=%d", df)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1.0, 8) // buckets [1,2) [2,4) [4,8)...
	for _, v := range []float64{0.5, 1.5, 3, 3.9, 5, 300} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 300 {
		t.Fatalf("max = %v", h.Max())
	}
	if h.under != 1 {
		t.Fatalf("under = %d", h.under)
	}
	if h.buckets[0] != 1 || h.buckets[1] != 2 || h.buckets[2] != 1 {
		t.Fatalf("buckets = %v", h.buckets)
	}
	// 300 is beyond bucket 7's range [128,256): clamps into last bucket.
	if h.buckets[7] != 1 {
		t.Fatalf("overflow clamp: %v", h.buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1.0, 16)
	for i := 0; i < 90; i++ {
		h.Add(1.5) // bucket [1,2)
	}
	for i := 0; i < 10; i++ {
		h.Add(100) // bucket [64,128)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %v, want 2 (upper edge of [1,2))", q)
	}
	if q := h.Quantile(0.99); q != 128 {
		t.Fatalf("p99 = %v, want 128", q)
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	h := NewHistogram(1.0, 4)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramMeanMatchesTally(t *testing.T) {
	h := NewHistogram(0.001, 20)
	var ty Tally
	for i := 1; i <= 1000; i++ {
		v := float64(i) * 0.01
		h.Add(v)
		ty.Add(v)
	}
	if math.Abs(h.Mean()-ty.Mean()) > 1e-9 {
		t.Fatalf("histogram mean %v != tally mean %v", h.Mean(), ty.Mean())
	}
}
