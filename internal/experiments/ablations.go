package experiments

import (
	"fmt"

	"spiffi/internal/admission"

	"spiffi/internal/bufferpool"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
)

// The experiments in this file go beyond the paper's published plots:
// they ablate design choices the paper asserts in prose (§5.2.3's
// prefetch configuration, §7.2's claim that real-time parameters barely
// matter, the disk read-ahead cache, and the §8.1 VCR operations).

// AblationRTParams checks §7.2's claim: "We explored a wide variety of
// settings for these parameters [priority classes and spacing] and
// found that regardless of how they were set there was little variation
// in the performance of the system."
func AblationRTParams(f Fidelity) (Result, error) {
	res := Result{
		ID:     "ablation-rt",
		Title:  "Real-time scheduler parameter insensitivity (§7.2 claim)",
		XLabel: "priority spacing (s)",
		YLabel: "max terminals",
	}
	spacings := []sim.Duration{1 * sim.Second, 4 * sim.Second, 8 * sim.Second}
	xs := make([]float64, len(spacings))
	for i, sp := range spacings {
		xs[i] = sp.Seconds()
	}
	var vs []variant
	for _, classes := range []int{2, 3, 8} {
		vs = append(vs, variant{fmt.Sprintf("%d classes", classes), func(c *core.Config) { c.Sched.Classes = classes }})
	}
	series, _, err := sweep(f, vs, xs, func(c int) core.Config {
		cfg := base()
		cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Spacing: spacings[c]}
		cfg.Replacement = bufferpool.PolicyLovePrefetch
		cfg.ServerMemBytes = 512 * core.MB
		return cfg
	})
	res.Series = series
	return res, err
}

// AblationPrefetch measures what prefetching buys: no prefetching vs.
// basic FIFO (one worker) vs. deadline-aware real-time prefetching,
// everything else held at the paper's real-time configuration.
func AblationPrefetch(f Fidelity) (Result, error) {
	res := Result{
		ID:     "ablation-prefetch",
		Title:  "Value of prefetching (real-time scheduling, 512 MB)",
		XLabel: "variant",
		YLabel: "max terminals",
	}
	common := base()
	common.Sched = rt34()
	common.Replacement = bufferpool.PolicyLovePrefetch
	common.ServerMemBytes = 512 * core.MB
	prefetching := func(pf prefetch.Config) func(*core.Config) {
		return func(c *core.Config) { c.Prefetch = pf }
	}
	err := variantMaxima(f, &res, common, []variant{
		{"off", prefetching(prefetch.Config{Mode: prefetch.ModeOff})},
		{"basic(1 worker)", prefetching(prefetch.Config{Mode: prefetch.ModeBasic, WorkersPerDisk: 1})},
		{"real-time(4 workers)", prefetching(prefetch.Config{Mode: prefetch.ModeRealTime, WorkersPerDisk: 4})},
	})
	return res, err
}

// AblationDiskCache removes the drive's segmented read-ahead cache to
// quantify how much the sequential-continuation optimization matters at
// video-server stripe sizes (the paper models 8x128 KB contexts).
func AblationDiskCache(f Fidelity) (Result, error) {
	res := Result{
		ID:     "ablation-cache",
		Title:  "Drive read-ahead cache on vs. off",
		XLabel: "stripe size (KB)",
		YLabel: "max terminals",
	}
	contexts := func(n int) func(*core.Config) {
		return func(c *core.Config) { c.DiskParams.CacheContexts = n }
	}
	series, err := stripeSweep(f, []variant{{"8 contexts", contexts(8)}, {"no cache", contexts(0)}})
	res.Series = series
	return res, err
}

// AblationSchedulerZoo adds SSTF and C-SCAN (classic algorithms the
// paper does not evaluate) next to elevator and FCFS at the optimal
// stripe size.
func AblationSchedulerZoo(f Fidelity) (Result, error) {
	res := Result{
		ID:     "ablation-sched",
		Title:  "Extra disk schedulers at 512 KB stripes",
		XLabel: "variant",
		YLabel: "max terminals",
	}
	var vs []variant
	for _, sc := range []dsched.Config{
		{Kind: dsched.KindElevator},
		{Kind: dsched.KindCSCAN},
		{Kind: dsched.KindSSTF},
		{Kind: dsched.KindFCFS},
	} {
		vs = append(vs, variant{sc.String(), func(c *core.Config) { c.Sched = sc }})
	}
	err := variantMaxima(f, &res, base(), vs)
	return res, err
}

// Admission reproduces §4's design argument: the worst-case analytical
// capacity (every access pays a full-span seek and full rotation) that a
// provably glitch-free system would admit, the mean-value analytical
// capacity, and the capacity the simulation actually sustains. The
// paper: "a system that is designed around an analytical study and is
// proven never to cause a glitch is unlikely to achieve high utilization
// of the hardware."
func Admission(f Fidelity) (Result, error) {
	res := Result{
		ID:     "admission",
		Title:  "Analytical admission bounds vs. simulated capacity (§4)",
		XLabel: "variant",
		YLabel: "terminals",
	}
	f = f.withPool()
	cfg := base()
	a := admission.Analysis{
		Disk:        cfg.DiskParams,
		Cylinders:   4000,
		StripeBytes: cfg.StripeBytes,
		BitRate:     cfg.Video.BitRate,
		TotalDisks:  cfg.TotalDisks(),
	}
	r, err := f.search(cfg, 0, 0)
	if err != nil {
		return res, err
	}
	s := Series{Name: "terminals", Points: []Point{
		{X: 1, Y: float64(a.WorstCaseTerminals())},
		{X: 2, Y: float64(a.ExpectedCaseTerminals())},
		{X: 3, Y: float64(r.MaxTerminals)},
	}}
	res.Series = append(res.Series, s)
	res.Notes = append(res.Notes,
		"x=1 worst-case analytical bound (provably glitch-free, §4)",
		"x=2 expected-case analytical bound",
		"x=3 simulated maximum (this system's methodology)")
	return res, nil
}

// AblationZonedDisks ablates the paper's §6.2 simplification ("for
// simplicity ... a constant cylinder size is assumed") by running the
// same configurations on zoned-bit-recording drives whose outer zones
// hold more data and transfer ~30% faster than inner zones.
func AblationZonedDisks(f Fidelity) (Result, error) {
	res := Result{
		ID:     "ablation-zoned",
		Title:  "Constant cylinders vs. zoned-bit-recording geometry (§6.2 simplification)",
		XLabel: "stripe size (KB)",
		YLabel: "max terminals",
	}
	zoned := func(on bool) func(*core.Config) {
		return func(c *core.Config) { c.ZonedDisks = on }
	}
	series, err := stripeSweep(f, []variant{{"constant cylinders", zoned(false)}, {"zoned (8 zones)", zoned(true)}})
	res.Series = series
	return res, err
}

// VCRSeek exercises the §8.1 rewind/fast-forward implementation: max
// terminals without seeks, with jump seeks (seek + re-prime), and with
// the visual-search skim scheme. The paper predicts the skim scheme
// "will not significantly increase the load on the video server".
func VCRSeek(f Fidelity) (Result, error) {
	res := Result{
		ID:     "vcr",
		Title:  "Rewind/fast-forward and visual search (§8.1)",
		XLabel: "variant",
		YLabel: "max terminals",
	}
	common := base()
	common.Replacement = bufferpool.PolicyLovePrefetch
	common.ServerMemBytes = 512 * core.MB
	vcr := func(v *terminal.VCRConfig) func(*core.Config) {
		return func(c *core.Config) { c.VCR = v }
	}
	err := variantMaxima(f, &res, common, []variant{
		{"no seeks", vcr(nil)},
		{"jump seeks", vcr(&terminal.VCRConfig{
			MeanSeeksPerMovie: 2, MeanDistanceFrac: 0.25, ForwardProb: 0.5,
		})},
		{"visual search", vcr(&terminal.VCRConfig{
			MeanSeeksPerMovie: 2, MeanDistanceFrac: 0.25, ForwardProb: 0.5,
			Skim: true, SkimStrideBlocks: 8, SkimSegmentFrames: 30,
		})},
	})
	return res, err
}
