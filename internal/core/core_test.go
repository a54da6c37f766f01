package core_test

import (
	"testing"

	"spiffi/internal/bufferpool"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
)

// tinyConfig is a 2-node/4-disk system with 2-minute videos, sized so a
// full run takes tens of milliseconds. Its glitch-free capacity is
// around 40 terminals.
func tinyConfig(terminals int) core.Config {
	cfg := core.DefaultConfig(terminals)
	cfg.Nodes = 2
	cfg.DisksPerNode = 2
	cfg.VideosPerDisk = 4
	cfg.Video.Length = 2 * sim.Minute
	// Small enough that the library (16 videos x ~60 MB) cannot be
	// cached outright; the disks must carry the steady-state load.
	cfg.ServerMemBytes = 64 * core.MB
	cfg.StartWindow = 10 * sim.Second
	cfg.MeasureTime = 60 * sim.Second
	cfg.StartupGrace = 5 * sim.Minute
	return cfg
}

func TestLightLoadGlitchFree(t *testing.T) {
	m, err := core.Run(tinyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("simulation never reached steady state")
	}
	if m.Glitches != 0 {
		t.Fatalf("light load glitched %d times", m.Glitches)
	}
	if m.BlocksServed == 0 {
		t.Fatal("no blocks served")
	}
	if m.DiskUtilAvg <= 0 || m.DiskUtilAvg > 0.7 {
		t.Fatalf("light-load disk utilization %v implausible", m.DiskUtilAvg)
	}
}

func TestOverloadGlitches(t *testing.T) {
	// ~3x the tiny system's capacity must glitch.
	m, err := core.Run(tinyConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	if m.GlitchFree() {
		t.Fatal("gross overload ran glitch-free; the model cannot be load-sensitive")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() core.Metrics {
		m, err := core.Run(tinyConfig(30))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Glitches != b.Glitches || a.BlocksServed != b.BlocksServed ||
		a.Events != b.Events || a.PeakNetBandwidth != b.PeakNetBandwidth {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesOutcomeDetails(t *testing.T) {
	cfg := tinyConfig(30)
	a, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == b.Events && a.BlocksServed == b.BlocksServed {
		t.Fatal("different seeds produced identical event counts; seeding is broken")
	}
}

func TestMeasurementGatesGlitches(t *testing.T) {
	// Same overload, but with a measurement window so tiny that the
	// warm-up absorbs most glitching: measured glitches must not exceed
	// a long window's.
	cfg := tinyConfig(100)
	cfg.MeasureTime = time1
	short, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeasureTime = 60 * sim.Second
	long, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if short.Started && long.Started && short.Glitches > long.Glitches {
		t.Fatalf("short window recorded more glitches (%d) than long (%d)",
			short.Glitches, long.Glitches)
	}
}

const time1 = 1 * sim.Second

func TestStripedOutperformsNonStriped(t *testing.T) {
	// §7.4: at a load the striped layout handles, the non-striped layout
	// glitches badly (the disks holding popular videos overload).
	// Measured tiny-system capacities: striped ~60, non-striped ~40.
	cfg := tinyConfig(52)
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	striped, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Striped = false
	non, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !striped.GlitchFree() {
		t.Fatalf("striped layout glitched at moderate load: %d", striped.Glitches)
	}
	if non.GlitchFree() {
		t.Fatal("non-striped layout matched striped at a load that should overload hot disks")
	}
}

func TestRealTimeSchedulerRuns(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.GlitchFree() {
		t.Fatalf("real-time scheduling glitched at light load: %d", m.Glitches)
	}
	if m.Nodes.Prefetches == 0 {
		t.Fatal("real-time prefetching issued no prefetches")
	}
}

func TestDelayedPrefetchingRuns(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeDelayed, MaxAdvance: 8 * sim.Second}
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.GlitchFree() {
		t.Fatalf("delayed prefetching glitched at light load: %d", m.Glitches)
	}
}

func TestGSSAndRoundRobinRun(t *testing.T) {
	for _, sc := range []dsched.Config{
		{Kind: dsched.KindGSS, Groups: 1},
		{Kind: dsched.KindRoundRobin},
	} {
		cfg := tinyConfig(16)
		cfg.Sched = sc
		m, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if !m.Started || m.BlocksServed == 0 {
			t.Fatalf("%v: no progress", sc)
		}
	}
}

func TestPauseExperimentRuns(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.Pause = &terminal.PauseConfig{MeanPauses: 4, MeanDuration: 10 * sim.Second}
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("paused system never started")
	}
	// §8.1: pausing should not cause glitches at a supportable load.
	if m.Glitches != 0 {
		t.Fatalf("pausing caused %d glitches at light load", m.Glitches)
	}
}

func TestPiggybackReducesServerLoad(t *testing.T) {
	base := tinyConfig(40)
	base.ZipfZ = 1.5 // strong skew: batching collapses most starts
	base.Video.Length = 90 * sim.Second
	mBase, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pig := base
	pig.PiggybackDelay = 60 * sim.Second
	pig.StartupGrace = 10 * sim.Minute
	s, err := core.NewSimulation(pig)
	if err != nil {
		t.Fatal(err)
	}
	mPig, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	batches, riders := s.PiggybackStats()
	if batches == 0 || riders <= batches {
		t.Fatalf("piggybacking formed no multi-terminal batches: batches=%d riders=%d", batches, riders)
	}
	if !mPig.Started {
		t.Fatal("piggybacked system never started")
	}
	// Server block traffic per started terminal must drop.
	if mBase.Started && mPig.Nodes.Requests >= mBase.Nodes.Requests {
		t.Fatalf("piggybacking did not reduce server requests: %d vs %d",
			mPig.Nodes.Requests, mBase.Nodes.Requests)
	}
}

func TestFindMaxTerminalsBracketsCapacity(t *testing.T) {
	res, err := core.FindMaxTerminals(tinyConfig(0), core.SearchOptions{
		Lo: 8, Hi: 120, Step: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTerminals < 16 || res.MaxTerminals > 96 {
		t.Fatalf("max terminals = %d, expected within (16, 96) for the tiny system", res.MaxTerminals)
	}
	if res.Runs == 0 || len(res.AtMax) == 0 {
		t.Fatal("search reported no runs or no passing metrics")
	}
	// The reported max passes and max+step fails (by search invariant).
	if !res.AtMax[0].GlitchFree() {
		t.Fatal("metrics at max are not glitch-free")
	}
}

func TestGlitchCurveMonotoneTail(t *testing.T) {
	curve, err := core.GlitchCurve(tinyConfig(0), []int{16, 120})
	if err != nil {
		t.Fatal(err)
	}
	if curve[16] != 0 {
		t.Fatalf("16 terminals glitched: %d", curve[16])
	}
	if curve[120] == 0 {
		t.Fatal("120 terminals did not glitch")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*core.Config){
		func(c *core.Config) { c.Nodes = 0 },
		func(c *core.Config) { c.StripeBytes = 0 },
		func(c *core.Config) { c.TerminalMemBytes = 1 },
		func(c *core.Config) { c.ServerMemBytes = 0 },
		func(c *core.Config) { c.Terminals = 0 },
		func(c *core.Config) { c.ZipfZ = -1 },
		func(c *core.Config) { c.MeasureTime = 0 },
		func(c *core.Config) { c.StartWindow = -5 * sim.Second },
		func(c *core.Config) { c.Video.Length = 0 },
		func(c *core.Config) { c.Sched = dsched.Config{Kind: "nope"} },
		func(c *core.Config) {
			c.Prefetch = prefetch.Config{Mode: prefetch.ModeDelayed, MaxAdvance: sim.Second}
			// delayed prefetching without the real-time scheduler
		},
	}
	for i, mutate := range bad {
		cfg := tinyConfig(10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if err := tinyConfig(10).Normalize().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestNormalizePrefetchDefaults(t *testing.T) {
	cfg := tinyConfig(10)
	cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
	n := cfg.Normalize()
	if n.Prefetch.Mode != prefetch.ModeRealTime {
		t.Fatalf("real-time scheduler should default to real-time prefetching, got %v", n.Prefetch.Mode)
	}
	if n.Prefetch.WorkersPerDisk != 4 {
		t.Fatalf("real-time prefetch workers = %d, want aggressive default 4", n.Prefetch.WorkersPerDisk)
	}
	cfg.Sched = dsched.Config{Kind: dsched.KindElevator}
	n = cfg.Normalize()
	if n.Prefetch.Mode != prefetch.ModeBasic || n.Prefetch.WorkersPerDisk != 1 {
		t.Fatalf("elevator should default to timid basic prefetching, got %+v", n.Prefetch)
	}
}

func TestDerivedConfigValues(t *testing.T) {
	cfg := core.DefaultConfig(100)
	if cfg.TotalDisks() != 16 || cfg.NumVideos() != 64 {
		t.Fatalf("base system: %d disks %d videos", cfg.TotalDisks(), cfg.NumVideos())
	}
	if got := cfg.PoolPagesPerNode(); got != 2048 {
		t.Fatalf("pool pages per node = %d, want 2048 (1GB / 512KB)", got)
	}
	// One 512 KB stripe block at 4 Mbit/s plays for ~1.049 s.
	if got := cfg.StripePlayTime().Seconds(); got < 1.04 || got > 1.06 {
		t.Fatalf("stripe play time = %v", got)
	}
}

// Failure injection: degrading one disk mid-measurement must cause
// glitches in an otherwise comfortable configuration — striping puts
// every stream on every disk, so one bad disk hurts everyone (the flip
// side of §7.4's load balancing).
func TestFailureInjectionCausesGlitches(t *testing.T) {
	cfg := tinyConfig(32)
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	healthy, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.GlitchFree() {
		t.Fatalf("baseline glitched: %d", healthy.Glitches)
	}
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade disk 0 by 8x for 30 simulated seconds, starting after the
	// start window (inside or near the measured region).
	s.ScheduleDiskFault(0, sim.Time(30*sim.Second), 8, 30*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("faulted system never started")
	}
	if m.Glitches == 0 && m.GlitchTerminals == 0 {
		t.Fatal("an 8x disk degradation produced no glitches at near-capacity load")
	}
}

// After the fault clears, the system must recover: a fault confined to
// the warm-up leaves the measured window glitch-free.
func TestFailureRecovery(t *testing.T) {
	cfg := tinyConfig(24) // comfortably below capacity
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	cfg.StartWindow = 5 * sim.Second
	cfg.StartupGrace = 10 * sim.Minute
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A degradation shorter than the terminals' ~4-second playout buffer:
	// streams ride through it on buffered data and the backlog drains
	// during warm-up, so the measured window stays clean.
	s.ScheduleDiskFault(1, sim.Time(sim.Second), 6, 3*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("system never recovered to steady state")
	}
	if m.Glitches != 0 {
		t.Fatalf("glitches persisted after the fault cleared: %d", m.Glitches)
	}
}

// When even the lower bound glitches, the search must descend and still
// return a meaningful answer (possibly zero).
func TestSearchDescendsWhenLoFails(t *testing.T) {
	res, err := core.FindMaxTerminals(tinyConfig(0), core.SearchOptions{
		Lo: 112, Hi: 120, Step: 8, // tiny system's capacity is ~40-60
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTerminals < 8 || res.MaxTerminals > 104 {
		t.Fatalf("descending search returned %d", res.MaxTerminals)
	}
	if !res.AtMax[0].GlitchFree() {
		t.Fatal("result not glitch-free")
	}
}

// A capacity beyond Hi is reported as Hi (the cap), not an error.
func TestSearchCapsAtHi(t *testing.T) {
	res, err := core.FindMaxTerminals(tinyConfig(0), core.SearchOptions{
		Lo: 8, Hi: 16, Step: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTerminals != 16 {
		t.Fatalf("capped search = %d, want 16", res.MaxTerminals)
	}
}

func TestConfidentMaxStopsOnAgreement(t *testing.T) {
	// The deterministic tiny system gives near-identical per-seed maxima,
	// so the §7.1 stopping rule should fire at the minimum seed count.
	iv, maxima, err := core.ConfidentMax(tinyConfig(0), core.SearchOptions{
		Lo: 16, Hi: 96, Step: 16,
	}, 0.90, 0.25, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(maxima) < 2 {
		t.Fatalf("maxima = %v", maxima)
	}
	if iv.Mean < 16 || iv.Mean > 96 {
		t.Fatalf("interval mean = %v", iv.Mean)
	}
}

// Zoned disks must behave like a real system: same order of capacity as
// constant cylinders (the §6.2 ablation's premise).
func TestZonedDisksRun(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.ZonedDisks = true
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.GlitchFree() {
		t.Fatalf("zoned geometry glitched at light load: %d", m.Glitches)
	}
}

// VCR workloads integrate end to end: seeks happen, no deadlock, and the
// response-time histogram percentiles are populated.
func TestVCRWorkloadIntegration(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.Replacement = bufferpool.PolicyLovePrefetch
	cfg.VCR = &terminal.VCRConfig{
		MeanSeeksPerMovie: 3,
		MeanDistanceFrac:  0.25,
		ForwardProb:       0.5,
		Skim:              true,
		SkimStrideBlocks:  4,
		SkimSegmentFrames: 15,
	}
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("never started")
	}
	if m.Seeks == 0 {
		t.Fatal("no seeks executed")
	}
	if m.SkimBlocks == 0 {
		t.Fatal("no skim blocks fetched")
	}
	if m.RespTimeP50 <= 0 || m.RespTimeP99 < m.RespTimeP50 {
		t.Fatalf("histogram percentiles wrong: p50=%v p99=%v", m.RespTimeP50, m.RespTimeP99)
	}
}
