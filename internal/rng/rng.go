// Package rng provides deterministic random-number streams and the
// distributions the SPIFFI simulation needs: uniform, exponential (MPEG
// frame sizes), and Zipfian (movie popularity, Figure 8 of the paper).
//
// All randomness in a simulation flows from one root seed through named
// derived streams, so every run is exactly reproducible and independent
// model components draw from statistically independent streams.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Source is a SplitMix64 pseudo-random generator. SplitMix64 passes
// BigCrush, is splittable (ideal for derived streams), and is trivially
// portable — no global state, no platform dependence.
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Derive returns an independent stream identified by name. Equal
// (source seed, name) pairs always yield identical streams.
func (s *Source) Derive(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Source{state: mix(s.state ^ h.Sum64())}
}

// DeriveIndexed returns an independent stream for (name, index) — e.g.
// one stream per terminal or per video.
func (s *Source) DeriveIndexed(name string, index int) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	d := &Source{state: mix(s.state ^ h.Sum64() ^ (uint64(index)+1)*0x9E3779B97F4A7C15)}
	return d
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	// Inverse-CDF; guard the log argument away from zero.
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}
