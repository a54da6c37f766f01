package experiments

import (
	"fmt"

	"spiffi/internal/bufferpool"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/prefetch"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
)

// base returns the paper's §7 base configuration (terminal count filled
// by the search).
func base() core.Config { return core.DefaultConfig(1) }

// rt34 is the paper's tuned real-time scheduler: 3 classes, 4 s spacing.
func rt34() dsched.Config {
	return dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
}

// Fig08Zipf reproduces Figure 8: the Zipfian video-access distribution
// for 64 videos at z in {0.5, 1.0, 1.5} plus uniform. Analytic — no
// simulation.
func Fig08Zipf(f Fidelity) (Result, error) {
	res := Result{
		ID:     "fig08",
		Title:  "Zipfian distribution over 64 videos",
		XLabel: "video rank",
		YLabel: "access probability",
	}
	for _, z := range []float64{0, 0.5, 1.0, 1.5} {
		name := fmt.Sprintf("z=%.1f", z)
		if z == 0 {
			name = "uniform"
		}
		zf := rng.NewZipf(64, z)
		s := Series{Name: name}
		for i := 0; i < 64; i++ {
			s.Points = append(s.Points, Point{X: float64(i + 1), Y: zf.PMF(i)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig09GlitchCurve reproduces Figure 9: glitches vs. the number of
// terminals for the base configuration, showing the knee the §7.1
// methodology searches for.
func Fig09GlitchCurve(f Fidelity) (Result, error) {
	f = f.withPool()
	cfg := base()
	cfg.ServerMemBytes = 4 * core.GB
	r, err := f.search(cfg, 0, 0)
	if err != nil {
		return Result{}, err
	}
	max := r.MaxTerminals
	var counts []int
	for _, d := range []int{-2 * f.Step, -f.Step, 0, f.Step, 2 * f.Step, 4 * f.Step} {
		if max+d > 0 {
			counts = append(counts, max+d)
		}
	}
	curve, err := f.run.GlitchCurve(f.apply(cfg), counts)
	if err != nil {
		return Result{}, err
	}
	s := Series{Name: "glitches"}
	for _, c := range counts {
		s.Points = append(s.Points, Point{X: float64(c), Y: float64(curve[c])})
	}
	return Result{
		ID:     "fig09",
		Title:  "Finding the maximum number of terminals without glitches",
		XLabel: "terminals",
		YLabel: "glitches",
		Series: []Series{s},
		Notes:  []string{fmt.Sprintf("max glitch-free terminals = %d", max)},
	}, nil
}

// fig10Algs lists Figure 10's disk scheduling algorithms.
func fig10Algs() []dsched.Config {
	return []dsched.Config{
		{Kind: dsched.KindElevator},
		{Kind: dsched.KindGSS, Groups: 1},
		{Kind: dsched.KindRoundRobin},
		{Kind: dsched.KindRealTime, Classes: 2, Spacing: 4 * sim.Second},
		{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second},
	}
}

// Fig10SchedStripe reproduces Figure 10: max terminals vs. stripe size
// for each disk scheduling algorithm, with plentiful (4 GB) memory and
// global LRU.
func Fig10SchedStripe(f Fidelity) (Result, error) {
	res := Result{
		ID:     "fig10",
		Title:  "Comparison of disk scheduling algorithms and stripe sizes",
		XLabel: "stripe size (KB)",
		YLabel: "max terminals",
	}
	var vs []variant
	for _, sc := range fig10Algs() {
		vs = append(vs, variant{sc.String(), func(c *core.Config) { c.Sched = sc }})
	}
	series, err := stripeSweep(f, vs)
	res.Series = series
	return res, err
}

// Fig11MemoryElevator reproduces Figure 11: max terminals vs. server
// memory under elevator scheduling, global LRU vs. love prefetch.
func Fig11MemoryElevator(f Fidelity) (Result, error) {
	res := Result{
		ID:     "fig11",
		Title:  "Reducing server memory requirements (elevator)",
		XLabel: "server memory (MB)",
		YLabel: "max terminals",
	}
	series, _, err := memorySweep(f, []variant{
		{"global-lru", func(c *core.Config) { c.Replacement = bufferpool.PolicyGlobalLRU }},
		{"love-prefetch", func(c *core.Config) { c.Replacement = bufferpool.PolicyLovePrefetch }},
	})
	res.Series = series
	return res, err
}

// Fig12MemoryRealTime reproduces Figure 12: the same sweep under
// real-time scheduling (3 classes, 4 s) with global LRU, love prefetch,
// and love prefetch + delayed prefetching at 8 s and 4 s maximum advance.
func Fig12MemoryRealTime(f Fidelity) (Result, error) {
	res := Result{
		ID:     "fig12",
		Title:  "Reducing server memory requirements (real-time)",
		XLabel: "server memory (MB)",
		YLabel: "max terminals",
	}
	series, _, err := memorySweep(f, []variant{
		{"global-lru", func(c *core.Config) {
			c.Sched = rt34()
			c.Replacement = bufferpool.PolicyGlobalLRU
		}},
		{"love-prefetch", func(c *core.Config) {
			c.Sched = rt34()
			c.Replacement = bufferpool.PolicyLovePrefetch
		}},
		{"love+delayed(8s)", func(c *core.Config) {
			c.Sched = rt34()
			c.Replacement = bufferpool.PolicyLovePrefetch
			c.Prefetch = prefetch.Config{Mode: prefetch.ModeDelayed, MaxAdvance: 8 * sim.Second}
		}},
		{"love+delayed(4s)", func(c *core.Config) {
			c.Sched = rt34()
			c.Replacement = bufferpool.PolicyLovePrefetch
			c.Prefetch = prefetch.Config{Mode: prefetch.ModeDelayed, MaxAdvance: 4 * sim.Second}
		}},
	})
	res.Series = series
	return res, err
}

// atMax plots, for every sweep series, y of each point's first passing
// run at the maximum (0 where the search found none).
func atMax(series []Series, rs [][]core.SearchResult, y func(core.Metrics) float64) []Series {
	out := make([]Series, len(series))
	for vi, s := range series {
		out[vi].Name = s.Name
		for i, r := range rs[vi] {
			v := 0.0
			if len(r.AtMax) > 0 {
				v = y(r.AtMax[0])
			}
			out[vi].Points = append(out[vi].Points, Point{X: s.Points[i].X, Y: v})
		}
	}
	return out
}

// Fig13And14Striping reproduces Figures 13 and 14: max terminals (13)
// and average disk utilization at that maximum (14) for striped vs.
// non-striped layouts under Zipf and uniform access, with love prefetch
// and elevator scheduling.
func Fig13And14Striping(f Fidelity) (Result, Result, error) {
	fig13 := Result{
		ID:     "fig13",
		Title:  "Striped vs. non-striped layouts",
		XLabel: "server memory (MB)",
		YLabel: "max terminals",
	}
	fig14 := Result{
		ID:     "fig14",
		Title:  "Average disk utilization, striped vs. non-striped",
		XLabel: "server memory (MB)",
		YLabel: "avg disk utilization (%)",
	}
	layout := func(striped bool, zipf float64) func(*core.Config) {
		return func(c *core.Config) {
			c.Replacement = bufferpool.PolicyLovePrefetch
			c.Striped = striped
			c.ZipfZ = zipf
		}
	}
	series, results, err := memorySweep(f, []variant{
		{"striped/zipf", layout(true, 1.0)},
		{"striped/uniform", layout(true, 0)},
		{"non-striped/zipf", layout(false, 1.0)},
		{"non-striped/uniform", layout(false, 0)},
	})
	if err != nil {
		return fig13, fig14, err
	}
	fig13.Series = series
	fig14.Series = atMax(series, results, func(m core.Metrics) float64 { return m.DiskUtilAvg * 100 })
	return fig13, fig14, nil
}

// Fig15And16AccessFrequencies reproduces Figures 15 and 16: max
// terminals (15) and the fraction of buffer references to pages
// previously referenced by another terminal (16), as video access skew
// varies (uniform, z = 0.5, 1.0, 1.5).
func Fig15And16AccessFrequencies(f Fidelity) (Result, Result, error) {
	fig15 := Result{
		ID:     "fig15",
		Title:  "Varying the video access frequencies",
		XLabel: "server memory (MB)",
		YLabel: "max terminals",
	}
	fig16 := Result{
		ID:     "fig16",
		Title:  "Buffer references to pages previously referenced by another terminal",
		XLabel: "server memory (MB)",
		YLabel: "shared references (%)",
	}
	var vs []variant
	for _, z := range []float64{0, 0.5, 1.0, 1.5} {
		name := fmt.Sprintf("z=%.1f", z)
		if z == 0 {
			name = "uniform"
		}
		vs = append(vs, variant{name, func(c *core.Config) {
			c.Replacement = bufferpool.PolicyLovePrefetch
			c.ZipfZ = z
		}})
	}
	series, results, err := memorySweep(f, vs)
	if err != nil {
		return fig15, fig16, err
	}
	fig15.Series = series
	fig16.Series = atMax(series, results, func(m core.Metrics) float64 { return m.Pool.SharedFraction() * 100 })
	return fig15, fig16, nil
}

// Fig19Pause reproduces Figure 19 (§8.1): pausing — two pauses per
// movie averaging two minutes each — does not change the maximum number
// of supportable terminals.
func Fig19Pause(f Fidelity) (Result, error) {
	res := Result{
		ID:     "fig19",
		Title:  "Effect of pausing videos",
		XLabel: "server memory (MB)",
		YLabel: "max terminals",
	}
	// Pause durations scale with fidelity so that short bench videos
	// still spend a comparable fraction of time paused.
	pauseDur := 2 * sim.Minute
	if f.VideoLength < 30*sim.Minute {
		pauseDur = f.VideoLength / 30
	}
	series, _, err := memorySweep(f, []variant{
		{"no pauses", func(c *core.Config) { c.Replacement = bufferpool.PolicyLovePrefetch }},
		{"with pauses", func(c *core.Config) {
			c.Replacement = bufferpool.PolicyLovePrefetch
			c.Pause = &terminal.PauseConfig{MeanPauses: 2, MeanDuration: pauseDur}
		}},
	})
	res.Series = series
	return res, err
}

// Piggyback reproduces the §8.2 claim: delaying video starts to batch
// terminals onto shared streams ("piggybacking") more than doubles the
// number of supportable terminals at Zipf z=1.
func Piggyback(f Fidelity) (Result, error) {
	res := Result{
		ID:     "piggyback",
		Title:  "Piggybacking terminals with delayed starts (§8.2)",
		XLabel: "start delay (s)",
		YLabel: "max terminals",
	}
	// The paper's 5-minute delay scaled to the fidelity's video length.
	delay := 5 * sim.Minute
	if f.VideoLength < 60*sim.Minute {
		delay = f.VideoLength / 12
	}
	delays := []sim.Duration{0, delay}
	maxes, err := grid(f, 1, len(delays), func(f Fidelity, _, i int) (int, error) {
		d := delays[i]
		cfg := base()
		cfg.Replacement = bufferpool.PolicyLovePrefetch
		cfg.ServerMemBytes = 512 * core.MB
		cfg.PiggybackDelay = d
		hi := 0
		if d > 0 {
			// Piggybacking multiplies capacity; widen the cap.
			hi = 100 * cfg.TotalDisks()
		}
		r, err := f.search(cfg, 0, hi)
		if err != nil {
			return 0, fmt.Errorf("delay=%v: %w", d, err)
		}
		return r.MaxTerminals, nil
	})
	if err != nil {
		return res, err
	}
	s := Series{Name: "max terminals"}
	for i, d := range delays {
		s.Points = append(s.Points, Point{X: d.Seconds(), Y: float64(maxes[0][i])})
	}
	res.Series = append(res.Series, s)
	if len(s.Points) == 2 && s.Points[0].Y > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("multiplier = %.2fx",
			s.Points[1].Y/s.Points[0].Y))
	}
	return res, nil
}
