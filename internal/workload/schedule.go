package workload

import (
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// Schedule is a compiled workload: every phase's rank→video permutation
// and Zipf table is precomputed from a derived rng stream, so the
// runtime methods are pure lookups plus draws from caller-provided
// streams. Build one with Compile; equal inputs yield identical
// schedules.
type Schedule struct {
	cfg     Config
	nVideos int
	total   sim.Duration // length of one phase cycle (0 only for a lone open-ended phase)
	phases  []compiledPhase
}

type compiledPhase struct {
	Phase
	start    sim.Duration // offset of phase entry within the cycle
	promoted int          // resolved promoted video id (-1 when none)
	zipf     *rng.Zipf    // phase-local popularity distribution
	perm     []int        // rank -> video id
}

// Compile builds a Schedule over a library of nVideos. Phases that
// inherit the skew (ZipfZ < 0) use baseZ. src seeds the compile-time
// churn draws (rank reshuffles); it is consumed here and never at run
// time. cfg must be normalized and valid, and nVideos positive.
func Compile(cfg Config, nVideos int, baseZ float64, src *rng.Source) *Schedule {
	cfg = cfg.Normalize()
	s := &Schedule{cfg: cfg, nVideos: nVideos}
	if !cfg.Enabled() {
		return s
	}
	shuffles := src.Derive("shuffle")
	// The ranking evolves across phases: each phase inherits the
	// previous phase's permutation, then applies its own churn.
	perm := make([]int, nVideos)
	for i := range perm {
		perm[i] = i
	}
	var at sim.Duration
	zipfs := map[float64]*rng.Zipf{}
	for _, p := range cfg.Phases {
		if p.Shuffle {
			for i := nVideos - 1; i > 0; i-- {
				j := shuffles.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		promoted := -1
		if p.Promote {
			promoted = p.PromoteVideo % nVideos
			// Move the promoted video to rank 0; everything above its
			// old rank shifts down one.
			for r, v := range perm {
				if v == promoted {
					copy(perm[1:r+1], perm[:r])
					perm[0] = promoted
					break
				}
			}
		}
		z := p.ZipfZ
		if z < 0 {
			z = baseZ
		}
		zf := zipfs[z]
		if zf == nil {
			zf = rng.NewZipf(nVideos, z)
			zipfs[z] = zf
		}
		cp := compiledPhase{Phase: p, start: at, promoted: promoted, zipf: zf}
		cp.perm = make([]int, nVideos)
		copy(cp.perm, perm)
		s.phases = append(s.phases, cp)
		at += p.Duration
	}
	s.total = at
	return s
}

// Enabled reports whether the schedule drives any behavior.
func (s *Schedule) Enabled() bool { return s != nil && len(s.phases) > 0 }

// NumPhases returns the number of configured phases (one cycle).
func (s *Schedule) NumPhases() int { return len(s.phases) }

// PhaseIndexAt maps a simulation time to the index of the active phase.
func (s *Schedule) PhaseIndexAt(t sim.Time) int {
	off := sim.Duration(t)
	if off < 0 {
		off = 0
	}
	if s.cfg.Repeat && s.total > 0 {
		off %= s.total
	}
	for i := len(s.phases) - 1; i >= 0; i-- {
		if off >= s.phases[i].start {
			return i
		}
	}
	return 0
}

// SelectVideo draws the next video to watch at time t using src.
func (s *Schedule) SelectVideo(t sim.Time, src *rng.Source) int {
	ph := &s.phases[s.PhaseIndexAt(t)]
	if ph.promoted >= 0 && ph.PromoteShare > 0 && src.Float64() < ph.PromoteShare {
		return ph.promoted
	}
	return ph.perm[ph.zipf.Draw(src)]
}

// ThinkTime draws the inter-movie think time at time t using src. It
// draws nothing and returns zero when BaseThink is unset.
func (s *Schedule) ThinkTime(t sim.Time, src *rng.Source) sim.Duration {
	if s.cfg.BaseThink <= 0 {
		return 0
	}
	ph := &s.phases[s.PhaseIndexAt(t)]
	mean := float64(s.cfg.BaseThink) / ph.Load
	return sim.Duration(src.Exp(mean))
}

// SeekBoost returns the VCR seek-intensity multiplier at time t.
func (s *Schedule) SeekBoost(t sim.Time) float64 {
	return s.phases[s.PhaseIndexAt(t)].SeekBoost
}

// LoadAt returns the arrival-rate multiplier at time t.
func (s *Schedule) LoadAt(t sim.Time) float64 {
	return s.phases[s.PhaseIndexAt(t)].Load
}

// Boundary is one phase entry on the absolute simulation timeline.
type Boundary struct {
	At    sim.Time
	Index int // phase index within the cycle
	Cycle int // 0-based cycle count (always 0 unless Repeat)
	Phase Phase
}

// maxBoundaries caps Boundaries against pathological tiny-cycle
// configs; no sane scenario approaches it.
const maxBoundaries = 4096

// Boundaries lists every phase entry in [0, horizon), in time order.
// Repeated workloads re-enter their phases each cycle.
func (s *Schedule) Boundaries(horizon sim.Duration) []Boundary {
	if !s.Enabled() || horizon <= 0 {
		return nil
	}
	var out []Boundary
	for cycle := 0; ; cycle++ {
		base := sim.Duration(cycle) * s.total
		for i := range s.phases {
			at := base + s.phases[i].start
			if at >= horizon || len(out) >= maxBoundaries {
				return out
			}
			out = append(out, Boundary{
				At:    sim.Time(at),
				Index: i,
				Cycle: cycle,
				Phase: s.phases[i].Phase,
			})
		}
		if !s.cfg.Repeat || s.total <= 0 {
			return out
		}
	}
}
