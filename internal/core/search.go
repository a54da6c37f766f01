package core

import (
	"fmt"
	"sort"
	"sync"

	"spiffi/internal/stats"
)

// SearchOptions controls the max-terminals search (§7.1: "increase the
// number of terminals until the number of glitches becomes non-zero").
type SearchOptions struct {
	// Lo and Hi bracket the search; Hi is a hard cap. Zero values pick
	// defaults scaled to the configuration's disk count.
	Lo, Hi int
	// Step is the search resolution in terminals (the paper quotes its
	// answers at ~5-terminal precision).
	Step int
	// Seeds are the replication seeds; a terminal count passes only if
	// every seed's run is glitch-free.
	Seeds []uint64
	// Trace, if non-nil, receives one line per consumed run, in the
	// order the sequential search would have executed them.
	Trace func(format string, args ...any)
}

// withDefaults fills unset options. The default bracket assumes roughly
// 5-20 terminals per disk, which safely covers every paper configuration.
func (o SearchOptions) withDefaults(cfg Config) SearchOptions {
	if o.Step <= 0 {
		o.Step = 5
	}
	if o.Lo <= 0 {
		o.Lo = o.Step
	}
	if o.Hi <= 0 {
		o.Hi = 40 * cfg.TotalDisks()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{cfg.Seed}
	}
	o.Lo = o.Lo / o.Step * o.Step
	if o.Lo < o.Step {
		o.Lo = o.Step
	}
	return o
}

// SearchResult reports a search outcome.
type SearchResult struct {
	// MaxTerminals is the largest evaluated count with zero glitches in
	// every replication — the paper's headline metric.
	MaxTerminals int
	// Runs counts the simulation executions consumed by the search's
	// decision process: each count's seeds up to and including its first
	// failure. Like MaxTerminals and AtMax, it is identical for every
	// worker count.
	Runs int
	// TotalRuns additionally counts the seed replications past a count's
	// first failure, which a runner with more than one worker executes
	// alongside the rest of the count. TotalRuns equals Runs on a
	// 1-worker runner.
	TotalRuns int
	// AtMax holds the metrics of the passing runs at MaxTerminals, one
	// per seed (utilization figures for the scaleup experiments).
	AtMax []Metrics
}

// searcher runs one FindMaxTerminals search: the walk visits counts
// strictly sequentially and evaluates each count when it reaches it.
type searcher struct {
	r   *Runner
	cfg Config
	opt SearchOptions
	res SearchResult
}

func (s *searcher) config(terminals int, seed uint64) Config {
	c := s.cfg
	c.Seed = seed
	c.Terminals = terminals
	return c
}

// eval runs one count's seed replications and consumes them as the
// sequential search does: in seed order, charging each run to Runs and
// tracing it, stopping at the first error or first glitching seed. It
// returns the all-seed metrics when every seed is glitch-free and nil
// otherwise.
//
// With more than one worker the count's seeds run all at once; a
// 1-worker runner runs them lazily, seed by seed, so it skips the seeds
// past a failure and executes exactly the sequential run set.
func (s *searcher) eval(terminals int) ([]Metrics, error) {
	seeds := s.opt.Seeds
	get := func(j int) (Metrics, error) {
		s.res.TotalRuns++
		return s.r.Run(s.config(terminals, seeds[j]))
	}
	if s.r.workers > 1 {
		cfgs := make([]Config, len(seeds))
		for j, seed := range seeds {
			cfgs[j] = s.config(terminals, seed)
		}
		ms, errs := s.r.runAll(cfgs)
		s.res.TotalRuns += len(cfgs)
		get = func(j int) (Metrics, error) { return ms[j], errs[j] }
	}
	var passed []Metrics
	for j, seed := range seeds {
		m, err := get(j)
		if err != nil {
			return nil, fmt.Errorf("run(terminals=%d seed=%d): %w", terminals, seed, err)
		}
		s.res.Runs++
		if s.opt.Trace != nil {
			s.opt.Trace("  eval terminals=%d seed=%d glitches=%d started=%v",
				terminals, seed, m.Glitches, m.Started)
		}
		if !m.GlitchFree() {
			return nil, nil
		}
		passed = append(passed, m)
	}
	return passed, nil
}

// FindMaxTerminals binary-searches the largest glitch-free terminal
// count on the Step lattice, one count at a time; extra workers run a
// count's seeds concurrently. The result — including Runs — is
// bit-identical for every worker count.
func (r *Runner) FindMaxTerminals(cfg Config, opt SearchOptions) (SearchResult, error) {
	opt = opt.withDefaults(cfg)
	s := &searcher{r: r, cfg: cfg, opt: opt}
	err := s.search()
	return s.res, err
}

func (s *searcher) search() error {
	opt := s.opt

	// Establish a failing upper bound and a passing lower bound; atLo
	// holds the passing metrics at lo.
	lo, hi := opt.Lo, opt.Hi/opt.Step*opt.Step
	atLo, err := s.eval(lo)
	if err != nil {
		return err
	}
	if atLo == nil {
		// Even the lower bound glitches: scan down to the floor.
		for atLo == nil && lo > opt.Step {
			lo -= opt.Step
			if atLo, err = s.eval(lo); err != nil {
				return err
			}
		}
		if atLo == nil {
			return nil
		}
		hi = lo + opt.Step
	} else {
		// Grow exponentially until failure or cap.
		for {
			next := min(lo*2, hi)
			if next == lo {
				break // passed at the cap
			}
			ms, err := s.eval(next)
			if err != nil {
				return err
			}
			if ms == nil {
				hi = next
				break
			}
			lo, atLo = next, ms
		}
	}

	// Bisect (lo passes, hi fails) on the Step lattice.
	for hi-lo > opt.Step {
		mid := (lo + hi) / 2 / opt.Step * opt.Step
		if mid <= lo || mid >= hi {
			break
		}
		ms, err := s.eval(mid)
		if err != nil {
			return err
		}
		if ms != nil {
			lo, atLo = mid, ms
		} else {
			hi = mid
		}
	}
	s.res.MaxTerminals = lo
	s.res.AtMax = atLo
	return nil
}

// GlitchCurve evaluates glitch counts over a set of terminal counts —
// the raw data behind the paper's Figure 9 — running the points
// concurrently. Results are keyed to the counts, so the curve is
// identical for every worker count.
func (r *Runner) GlitchCurve(cfg Config, counts []int) (map[int]int64, error) {
	cfgs := make([]Config, len(counts))
	for i, t := range counts {
		c := cfg
		c.Terminals = t
		cfgs[i] = c
	}
	ms, errs := r.runAll(cfgs)
	out := make(map[int]int64, len(counts))
	for i, t := range counts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		g := ms[i].Glitches
		if !ms[i].Started {
			g = -1
		}
		out[t] = g
	}
	return out, nil
}

// ConfidentMax applies the paper's §7.1 stopping rule: independent
// per-seed searches are added until the Student-t interval of the
// per-seed maxima is within relWidth of the mean at the given confidence
// level (paper: 0.90 level, 0.05 relative width), or maxSeeds is
// reached. It returns the mean estimate, the interval, and all per-seed
// maxima.
//
// The first minSeeds searches — which the stopping rule always needs
// before it can first fire — run concurrently; any further seeds are
// added one at a time. The stopping decision scans seeds in order, so
// the interval and maxima match sequential execution exactly.
func (r *Runner) ConfidentMax(cfg Config, opt SearchOptions, level, relWidth float64, minSeeds, maxSeeds int) (stats.Interval, []int, error) {
	if minSeeds < 2 {
		minSeeds = 2
	}
	searchSeed := func(s int) (SearchResult, error) {
		o := opt
		o.Seeds = []uint64{cfg.Seed + uint64(s)*7919}
		return r.FindMaxTerminals(cfg, o)
	}
	prefix := 0
	var pre []SearchResult
	var preErr []error
	if r.workers > 1 {
		prefix = minSeeds
		if prefix > maxSeeds {
			prefix = maxSeeds
		}
		pre = make([]SearchResult, prefix)
		preErr = make([]error, prefix)
		var wg sync.WaitGroup
		for i := 0; i < prefix; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pre[i], preErr[i] = searchSeed(i)
			}(i)
		}
		wg.Wait()
	}
	var maxima []float64
	var raw []int
	for s := 0; s < maxSeeds; s++ {
		var sr SearchResult
		var err error
		if s < prefix {
			sr, err = pre[s], preErr[s]
		} else {
			sr, err = searchSeed(s)
		}
		if err != nil {
			return stats.Interval{}, nil, err
		}
		maxima = append(maxima, float64(sr.MaxTerminals))
		raw = append(raw, sr.MaxTerminals)
		if len(maxima) >= minSeeds {
			iv := stats.ConfidenceInterval(maxima, level)
			if iv.WithinRelative(relWidth) {
				sort.Ints(raw)
				return iv, raw, nil
			}
		}
	}
	iv := stats.ConfidenceInterval(maxima, level)
	sort.Ints(raw)
	return iv, raw, nil
}
