package rng

import "math"

// Zipf draws from a Zipfian distribution over {0, 1, ..., n-1}: item i is
// drawn with probability proportional to 1/(i+1)^z. With z=0 the
// distribution is uniform; larger z skews access toward low-numbered
// items. The SPIFFI paper (Figure 8, §6.1) uses z ∈ {0.5, 1.0, 1.5} over
// the video library, with z=1 as the default.
type Zipf struct {
	n   int
	cdf []float64 // cdf[i] = P(X <= i)
}

// NewZipf builds the distribution for n items with skew z. It panics if
// n <= 0 or z < 0.
func NewZipf(n int, z float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if z < 0 {
		panic("rng: Zipf with negative z")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), z)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1.0 // guard against rounding
	return &Zipf{n: n, cdf: cdf}
}

// PMF returns P(X = i).
func (zf *Zipf) PMF(i int) float64 {
	if i == 0 {
		return zf.cdf[0]
	}
	return zf.cdf[i] - zf.cdf[i-1]
}

// Draw samples an item index using src.
func (zf *Zipf) Draw(src *Source) int {
	u := src.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, zf.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if zf.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
