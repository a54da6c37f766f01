package experiments

import (
	"fmt"

	"spiffi/internal/cache"
	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// Caching is the prefix-cache and stream-merge experiment (CACHING.md):
// a memory-constrained system serves a fixed offered load while the
// request skew sweeps across Zipf z, under three caching policies —
// none (the plain buffer pool keeps all the memory), an LRU prefix
// cache, and the Zipf-rank prefix cache — with the cache budget carved
// out of the same server memory, so every variant runs on identical
// total hardware. The metric is disk reads per admitted terminal: a
// cache hit on a video's opening blocks serves the block without a
// disk transfer, and a successful merge rides a leader's in-flight
// stream for the rest of the movie, so effective caching shows up
// directly as disk I/O removed per viewer. Rank-based replacement pins
// the prefixes of the most-requested videos, so its advantage widens
// as the skew concentrates requests on few titles; LRU keeps whatever
// was touched last, so one-off requests for cold titles flush hot
// prefixes.
//
// A capacity search per variant at z = 1.0 reports the complementary
// figure of merit — the most terminals the same hardware sustains
// glitch-free — in the notes. At saturation the carve itself is the
// binding cost (a third of the buffer pool gone), so the cached
// variants trade peak capacity for per-viewer disk I/O; the sweep's
// fixed load is where the cache pays.
func Caching(f Fidelity) (Result, error) {
	res := Result{
		ID:     "caching",
		Title:  "Prefix caching and stream merging across access skew",
		XLabel: "zipf skew z",
		YLabel: "disk reads per admitted terminal",
	}

	const budget = 32 * core.MB
	variants := []variant{
		{"none", func(c *core.Config) {}},
		{"lru", func(c *core.Config) {
			c.Cache = cache.Config{BudgetBytes: budget, Policy: cache.PolicyLRU, PrefixBlocks: 16}
		}},
		{"zipf-rank", func(c *core.Config) {
			c.Cache = cache.Config{BudgetBytes: budget, Policy: cache.PolicyZipfRank, PrefixBlocks: 16}
		}},
	}
	skews := []float64{0.5, 1.0, 1.5}

	ms, err := grid(f, len(variants), len(skews), func(f Fidelity, vi, zi int) (core.Metrics, error) {
		cfg := cachingBase()
		cfg.Trace = f.Trace
		cfg.ZipfZ = skews[zi]
		variants[vi].apply(&cfg)
		return f.run.Run(cfg)
	})
	if err != nil {
		return res, err
	}
	for vi, v := range variants {
		s := Series{Name: v.name}
		for zi, z := range skews {
			m := ms[vi][zi]
			s.Points = append(s.Points, Point{X: z, Y: float64(m.DiskReads) / float64(m.Terminals)})
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s z=%.1f: diskreads=%d (%.1f/terminal) glitches=%d cache hits=%d misses=%d evictions=%d merges=%d forwarded=%d detaches=%d",
				v.name, z, m.DiskReads, float64(m.DiskReads)/float64(m.Terminals),
				m.Glitches, m.CacheHits, m.CacheMisses, m.CacheEvictions,
				m.Merges, m.MergedBlocks, m.MergeDetaches))
		}
		res.Series = append(res.Series, s)
	}

	// Capacity at z = 1.0 per variant: the same hardware's max
	// glitch-free terminal count with and without the caching tier.
	// The searches use the experiment's own workload (not f.apply's
	// timings — see cachingBase) with the fidelity's step and seeds.
	caps, err := grid(f, 1, len(variants), func(f Fidelity, _, vi int) (int, error) {
		cfg := cachingBase()
		cfg.ZipfZ = 1.0
		variants[vi].apply(&cfg)
		r, err := f.run.FindMaxTerminals(cfg, core.SearchOptions{
			Lo: 60, Hi: 420, Step: f.Step, Seeds: f.Seeds,
		})
		if err != nil {
			return 0, fmt.Errorf("capacity search (%s): %w", variants[vi].name, err)
		}
		return r.MaxTerminals, nil
	})
	if err != nil {
		return res, err
	}
	for vi, v := range variants {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"capacity z=1.0 %s: max terminals %d", v.name, caps[0][vi]))
	}
	return res, nil
}

// cachingBase is the experiment's workload, deliberately independent
// of the fidelity's video/window timings: caching and merging pay off
// on session *starts*, so the measurement window has to contain them.
// Movies last 90 s against a 45 s window with starts staggered across
// 90 s, which keeps session turnover — and with it cache lookups and
// merge joins — flowing through the measured interval; stamping the
// fidelity's 6–60-minute videos instead would push every start into
// the warm-up and measure nothing but steady-state streaming. Server
// memory is tight enough that the buffer pool cannot shadow the cache
// (pool residency is shorter than the typical same-video arrival gap),
// terminals start every movie from the beginning (a viewer dropped
// mid-movie has no prefix to catch up from), and terminal buffers are
// large enough to absorb a merge join gap.
func cachingBase() core.Config {
	cfg := base()
	cfg.Terminals = 64
	cfg.ServerMemBytes = 96 * core.MB
	cfg.TerminalMemBytes = 16 * core.MB
	cfg.RandomInitialPosition = false
	cfg.Video.Length = 90 * sim.Second
	cfg.StartWindow = 90 * sim.Second
	cfg.MeasureTime = 45 * sim.Second
	return cfg
}
