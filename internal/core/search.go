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
	// decision process. The parallel search consumes evaluations in
	// exactly the sequential order, so Runs — like MaxTerminals and
	// AtMax — is identical for every worker count.
	Runs int
	// TotalRuns additionally counts speculative executions the decision
	// path never consumed: parallel probes that lost the race and seed
	// replications past a count's first failure. TotalRuns equals Runs
	// on a 1-worker runner and may exceed it otherwise.
	TotalRuns int
	// AtMax holds the metrics of the passing runs at MaxTerminals, one
	// per seed (utilization figures for the scaleup experiments).
	AtMax []Metrics
}

// evalOutcome is the cached verdict for one terminal count. The
// "consumed" view — pass/err plus the prefix of per-seed runs the
// sequential search would have executed before deciding — is fixed at
// execution time, so a count evaluated speculatively yields the same
// verdict, trace lines and Runs increment when (if ever) the decision
// path reaches it.
type evalOutcome struct {
	pass    bool
	ms      []Metrics // all-seed metrics when passing, nil otherwise
	traced  []Metrics // consumed prefix, for trace replay and Runs
	err     error     // error the sequential search would hit, if any
	counted bool      // consumed prefix already added to res.Runs
}

// searcher runs one FindMaxTerminals search: the decision logic walks
// counts strictly sequentially, while ensure() lets the phases warm the
// cache with speculative probes evaluated concurrently on the Runner.
type searcher struct {
	r        *Runner
	cfg      Config
	opt      SearchOptions
	res      SearchResult
	cache    map[int]*evalOutcome
	executed int
}

func (s *searcher) config(terminals int, seed uint64) Config {
	c := s.cfg
	c.Seed = seed
	c.Terminals = terminals
	return c
}

// fold derives a count's outcome from per-seed results supplied in seed
// order, replaying the sequential decision: stop at the first error or
// first glitching seed, pass only if every seed is glitch-free.
func (s *searcher) fold(terminals int, get func(j int) (Metrics, error)) *evalOutcome {
	out := &evalOutcome{}
	for j, seed := range s.opt.Seeds {
		m, err := get(j)
		if err != nil {
			out.err = fmt.Errorf("run(terminals=%d seed=%d): %w", terminals, seed, err)
			break
		}
		out.traced = append(out.traced, m)
		if !m.GlitchFree() {
			break
		}
		out.ms = append(out.ms, m)
	}
	out.pass = out.err == nil && len(out.ms) == len(s.opt.Seeds)
	if !out.pass {
		out.ms = nil
	}
	return out
}

// ensure evaluates every uncached count in the list, concurrently when
// the pool allows. It performs no decision-making and no accounting
// against the consumed-run trace; counts the decision path never visits
// stay speculative.
func (s *searcher) ensure(counts []int) {
	var fresh []int
	for _, t := range counts {
		if _, ok := s.cache[t]; ok {
			continue
		}
		dup := false
		for _, f := range fresh {
			if f == t {
				dup = true
				break
			}
		}
		if !dup {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return
	}
	seeds := s.opt.Seeds
	if s.r.workers == 1 {
		// Execute lazily, seed by seed: fold's short-circuit then skips
		// a count's remaining seeds after its first failure, so a
		// 1-worker searcher performs exactly the sequential run set.
		for _, t := range fresh {
			s.cache[t] = s.fold(t, func(j int) (Metrics, error) {
				s.executed++
				return s.r.Run(s.config(t, seeds[j]))
			})
		}
		return
	}
	cfgs := make([]Config, 0, len(fresh)*len(seeds))
	for _, t := range fresh {
		for _, seed := range seeds {
			cfgs = append(cfgs, s.config(t, seed))
		}
	}
	ms, errs := s.r.runAll(cfgs)
	s.executed += len(cfgs)
	for i, t := range fresh {
		base := i * len(seeds)
		s.cache[t] = s.fold(t, func(j int) (Metrics, error) {
			return ms[base+j], errs[base+j]
		})
	}
}

// eval consumes the verdict for a count: on first consumption its run
// prefix is charged to Runs and traced, exactly as the sequential search
// would have done at this point in the walk.
func (s *searcher) eval(terminals int) (bool, error) {
	out, ok := s.cache[terminals]
	if !ok {
		s.ensure([]int{terminals})
		out = s.cache[terminals]
	}
	if !out.counted {
		out.counted = true
		s.res.Runs += len(out.traced)
		if s.opt.Trace != nil {
			for j, m := range out.traced {
				s.opt.Trace("  eval terminals=%d seed=%d glitches=%d started=%v",
					terminals, s.opt.Seeds[j], m.Glitches, m.Started)
			}
		}
	}
	if out.err != nil {
		return false, out.err
	}
	return out.pass, nil
}

// growChain predicts the next doubling probes assuming each one passes.
// Lookahead is capped: probes past the first failing doubling are pure
// waste, and the deeper the chain the bigger (and costlier) the runs, so
// speculating more than a few doublings ahead loses more than it wins.
func growChain(cur, hi, width int) []int {
	if width > 4 {
		width = 4
	}
	var out []int
	for len(out) < width {
		next := cur * 2
		if next > hi {
			next = hi
		}
		if next == cur {
			break
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// downChain predicts the next scan-down probes assuming each one fails.
func downChain(lo, step, width int) []int {
	var out []int
	for len(out) < width && lo > step {
		lo -= step
		out = append(out, lo)
	}
	return out
}

// midTree collects the bisection decision tree: the next midpoint, then
// both midpoints that could follow it, and so on. Whichever way the
// verdicts fall, the consumed path is a root-to-leaf walk of this tree.
// Depth is capped at 2 (the midpoint plus both possible successors):
// only one root-to-leaf path is ever consumed, so a depth-d tree wastes
// 2^d-1-d of its evaluations, and past depth 2 the waste outgrows the
// extra overlap.
func midTree(lo, hi, step, budget int) []int {
	depth := 0
	for (1<<(depth+1))-1 <= budget {
		depth++
	}
	if depth > 2 {
		depth = 2
	}
	var out []int
	var collect func(lo, hi, d int)
	collect = func(lo, hi, d int) {
		if d == 0 || hi-lo <= step {
			return
		}
		mid := (lo + hi) / 2 / step * step
		if mid <= lo || mid >= hi {
			return
		}
		out = append(out, mid)
		collect(lo, mid, d-1)
		collect(mid, hi, d-1)
	}
	collect(lo, hi, depth)
	return out
}

// FindMaxTerminals binary-searches the largest glitch-free terminal
// count on the Step lattice, evaluating speculative probes concurrently
// when the pool has idle workers. The result — including Runs — is
// bit-identical for every worker count.
func (r *Runner) FindMaxTerminals(cfg Config, opt SearchOptions) (SearchResult, error) {
	opt = opt.withDefaults(cfg)
	s := &searcher{r: r, cfg: cfg, opt: opt, cache: map[int]*evalOutcome{}}
	err := s.search()
	s.res.TotalRuns = s.executed
	return s.res, err
}

func (s *searcher) search() error {
	opt := s.opt
	width := s.r.specWidth(len(opt.Seeds))

	// Establish a failing upper bound and a passing lower bound.
	lo, hi := opt.Lo, opt.Hi/opt.Step*opt.Step
	okLo, err := s.eval(lo)
	if err != nil {
		return err
	}
	if !okLo {
		// Even the lower bound glitches: scan down to the floor,
		// speculatively probing the next few lattice points down.
		for lo > opt.Step {
			if width > 1 {
				s.ensure(downChain(lo, opt.Step, width))
			}
			lo -= opt.Step
			ok, err := s.eval(lo)
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
		if !s.cache[lo].pass {
			s.res.MaxTerminals = 0
			return nil
		}
		hi = lo + opt.Step
	} else {
		// Grow exponentially until failure or cap, speculatively
		// evaluating the next few doublings.
		cur := lo
		for {
			if width > 1 {
				s.ensure(growChain(cur, hi, width))
			}
			next := cur * 2
			if next > hi {
				next = hi
			}
			if next == cur {
				// Passed at the cap.
				s.res.MaxTerminals = cur
				s.res.AtMax = s.cache[cur].ms
				return nil
			}
			ok, err := s.eval(next)
			if err != nil {
				return err
			}
			if !ok {
				lo, hi = cur, next
				break
			}
			cur = next
			if cur >= hi {
				s.res.MaxTerminals = cur
				s.res.AtMax = s.cache[cur].ms
				return nil
			}
		}
	}

	// Bisect (lo passes, hi fails) on the Step lattice, speculatively
	// evaluating the tree of midpoints the walk could visit next.
	for hi-lo > opt.Step {
		if width > 1 {
			s.ensure(midTree(lo, hi, opt.Step, width))
		}
		mid := (lo + hi) / 2 / opt.Step * opt.Step
		if mid <= lo || mid >= hi {
			break
		}
		ok, err := s.eval(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	s.res.MaxTerminals = lo
	s.res.AtMax = s.cache[lo].ms
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
