package experiments

import (
	"fmt"

	"spiffi/internal/cache"
	"spiffi/internal/core"
	"spiffi/internal/sim"
	"spiffi/internal/workload"
)

// stormsPremiere is the flash-crowd scenario: steady viewing, then a
// premiere that triples the arrival rate, concentrates 70% of selections
// on one video and doubles VCR seeking, then an open-ended recovery in
// which the popularity ranking has reshuffled (the premiere's churn).
const stormsPremiere = "think=20s; steady:60s; " +
	"premiere:45s load=3 promote=0 share=0.7 seekboost=2; recover:* shuffle"

// stormsChurn reshuffles the popularity ranking every 40 seconds — the
// cache-hostile shape: whatever the rank policy learned about yesterday's
// hits is wrong today.
const stormsChurn = "think=15s; a:40s; b:40s shuffle; c:40s shuffle; d:* shuffle"

// Storms is the production-traffic-shapes experiment (WORKLOADS.md): the
// premiere flash crowd hits a system offered 25% more terminals than its
// steady glitch-free capacity, under two postures — a baseline with every
// mechanism off, and a hardened build running adaptive admission with
// shedding (plus the step-response hysteresis knobs) and the churn-aware
// zipf-rank prefix cache. The series are phase-resolved: glitches per
// workload phase, so the JSON shows *when* each posture degrades, not
// just how much. A second pair of runs sweeps popularity churn (rank
// reshuffles every 40 s) over the cache's decay knob, reporting the
// per-phase hit rate the decay recovers.
func Storms(f Fidelity) (Result, error) {
	res := Result{
		ID:     "storms",
		Title:  "Graceful degradation under flash crowds and popularity churn",
		XLabel: "phase index (premiere: 0 steady, 1 premiere, 2 recover)",
		YLabel: "glitches in phase",
	}

	// Capacity anchor: the steady-state (no premiere) glitch-free
	// terminal count of the same short-session system, viewers thinking
	// between movies. The premiere then arrives against a system already
	// offered 25% more than this.
	f = f.withPool()
	capCfg := stormsBase(f)
	var err error
	capCfg.Workload, err = workload.ParseSpec("think=20s; steady:*")
	if err != nil {
		return res, err
	}
	r, err := f.run.FindMaxTerminals(capCfg, core.SearchOptions{
		Lo: 40, Hi: 400, Step: f.Step, Seeds: f.Seeds,
	})
	if err != nil {
		return res, fmt.Errorf("capacity search: %w", err)
	}
	limit := r.MaxTerminals
	offered := limit + max(limit/4, 1)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"steady capacity %d, offered load %d (125%%), admission limit %d", limit, offered, limit))

	premiere, err := workload.ParseSpec(stormsPremiere)
	if err != nil {
		return res, err
	}
	churn, err := workload.ParseSpec(stormsChurn)
	if err != nil {
		return res, err
	}
	const budget = 32 * core.MB
	variants := []struct {
		name string
		wl   workload.Config
		// series selects what the phase-resolved points plot.
		y     func(core.PhaseMetrics) float64
		apply func(*core.Config)
	}{
		{"baseline", premiere, phaseGlitches, func(c *core.Config) {
			c.Overload.ProtectedFraction = 0.5 // accounting only, arms nothing
		}},
		{"hardened", premiere, phaseGlitches, func(c *core.Config) {
			c.Overload.AdmitLimit = limit
			c.Overload.Adaptive = true
			c.Overload.Shed = true
			c.Overload.HoldAfterCut = 5 * sim.Second
			c.Overload.RaiseStreak = 2
			c.Cache = cache.Config{BudgetBytes: budget, Policy: cache.PolicyZipfRank,
				PrefixBlocks: 16, DecayEvery: 2000}
		}},
		{"churn-decay-off", churn, phaseHitRate, func(c *core.Config) {
			c.Cache = cache.Config{BudgetBytes: budget, Policy: cache.PolicyZipfRank, PrefixBlocks: 16}
		}},
		{"churn-decay-on", churn, phaseHitRate, func(c *core.Config) {
			c.Cache = cache.Config{BudgetBytes: budget, Policy: cache.PolicyZipfRank,
				PrefixBlocks: 16, DecayEvery: 2000}
		}},
	}

	ms, err := grid(f, 1, len(variants), func(f Fidelity, _, vi int) (core.Metrics, error) {
		cfg := stormsBase(f)
		cfg.Terminals = offered
		cfg.Workload = variants[vi].wl
		variants[vi].apply(&cfg)
		return f.run.Run(cfg)
	})
	if err != nil {
		return res, err
	}
	for vi, v := range variants {
		m := ms[0][vi]
		s := Series{Name: v.name}
		for _, ps := range m.PhaseStats {
			s.Points = append(s.Points, Point{X: float64(ps.Index), Y: v.y(ps)})
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s phase %d %s [%v..%v): glitches=%d (underrun/diskfail/timeout=%d/%d/%d) sheds=%d rejects=%d cache hit rate=%.2f movies=%d",
				v.name, ps.Index, ps.Name, ps.Start, ps.End,
				ps.Glitches, ps.GlitchesUnderrun, ps.GlitchesDiskFail, ps.GlitchesTimeout,
				ps.Sheds, ps.AdmRejected, ps.CacheHitRate(), ps.MoviesStarted))
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s totals: glitches=%d protected=%d (over %d terminals) admitted=%d rejected=%d limit min=%d sheds=%d cache hits/misses=%d/%d",
			v.name, m.Glitches, m.GlitchesProtected, m.ProtectedTerminals,
			m.Admitted, m.AdmRejected, m.AdmLimitMin, m.Sheds, m.CacheHits, m.CacheMisses))
	}
	return res, nil
}

func phaseGlitches(ps core.PhaseMetrics) float64 { return float64(ps.Glitches) }
func phaseHitRate(ps core.PhaseMetrics) float64  { return ps.CacheHitRate() }

// stormsBase is the experiment's system, deliberately independent of the
// fidelity's video/window timings for the same reason as cachingBase:
// workload phases act on session *starts*, so movies must be short
// enough that terminals keep returning to the selector inside the
// measured window, and the window must span the phase timeline. The
// fidelity still scales the search and worker pool.
func stormsBase(f Fidelity) core.Config {
	cfg := base()
	cfg.ServerMemBytes = 96 * core.MB
	cfg.TerminalMemBytes = 16 * core.MB
	cfg.RandomInitialPosition = false
	cfg.Video.Length = 90 * sim.Second
	cfg.StartWindow = 30 * sim.Second
	cfg.MeasureTime = 2 * sim.Minute
	cfg.Trace = f.Trace
	return cfg
}
