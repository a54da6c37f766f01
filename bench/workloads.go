package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"spiffi"
	"spiffi/internal/mpeg"
)

// seedsPerRun is how many distinct configuration seeds one benchmark run
// cycles its units through. Several seeds per run keep a run's medians
// from hanging on one seed's trajectory; a run of more units than this
// repeats seeds, and every repetition is checked against the first.
const seedsPerRun = 8

// workload is one benchmark input: a configuration family plus the unit
// of work run on it. A single-run workload's unit is one simulation; the
// sweep's unit is one capacity search.
type workload struct {
	name string
	why  string
	// config builds the simulation configuration for a configuration
	// seed. For the sweep it is the base configuration the search probes.
	config func(seed uint64) spiffi.Config
	sweep  bool
	// check rejects a unit whose output breaks a property every correct
	// run of this workload has.
	check func(u *unit) error
}

// unit is the outcome of one unit of work.
type unit struct {
	seed     uint64
	wall     float64 // host seconds
	mallocs  uint64  // heap objects allocated during the unit
	allocB   uint64  // heap bytes allocated during the unit
	liveHeap int64   // heap the held result retains: HeapAlloc growth across the unit, both after a forced GC
	digest   string

	m            spiffi.Metrics // the run; for the sweep, the first at-max run
	maxTerminals int            // sweep only
	runs         int            // simulations consumed (1 for single runs)
	totalRuns    int            // simulations executed (1 for single runs)
	err          error

	// sim is the unit's single simulation: the unit itself, or for the
	// sweep its first at-max run, re-run alone after the search. A
	// finished search retains only its answer, and its other runs are not
	// visible from outside, so the sweep's per-simulation numbers (heap
	// retained, host cost per event) come from this re-run.
	sim *unit
}

// tenMinuteBase is the paper's base system at quick-experiment timings:
// 10-minute videos, a 30 s start window and a 2-minute measured window.
func tenMinuteBase(terminals int, seed uint64) spiffi.Config {
	cfg := spiffi.DefaultConfig(terminals)
	cfg.Seed = seed
	cfg.Video.Length = 10 * spiffi.Minute
	cfg.StartWindow = 30 * spiffi.Second
	cfg.MeasureTime = 2 * spiffi.Minute
	return cfg
}

var workloads = []*workload{
	{
		name: "steady-knee",
		why:  "base system just under its 490-terminal knee: disks saturated, so the per-block path and kernel handoff do the most work; cache and trace idle",
		config: func(seed uint64) spiffi.Config {
			return tenMinuteBase(480, seed)
		},
		check: func(u *unit) error {
			if u.m.DiskUtilAvg < 0.5 {
				return fmt.Errorf("disk utilisation %.2f, want a loaded system", u.m.DiskUtilAvg)
			}
			return nil
		},
	},
	{
		name: "rt-lowmem",
		why:  "Fig 12 point: real-time scheduling, love prefetch and deadline prefetch on an eviction-bound 512 MB pool; the only workload using those paths",
		config: func(seed uint64) spiffi.Config {
			cfg := tenMinuteBase(240, seed)
			cfg.ServerMemBytes = 512 * spiffi.MB
			cfg.Sched = spiffi.RealTimeSched(3, 4*spiffi.Second)
			cfg.Replacement = spiffi.ReplaceLovePrefetch
			cfg.Prefetch = spiffi.PrefetchConfig{Mode: spiffi.PrefetchRealTime, WorkersPerDisk: 4}
			return cfg
		},
		check: func(u *unit) error {
			if u.m.Pool.Evictions == 0 || u.m.Nodes.Prefetches == 0 {
				return fmt.Errorf("evictions=%d prefetches=%d, want both > 0",
					u.m.Pool.Evictions, u.m.Nodes.Prefetches)
			}
			return nil
		},
	},
	{
		name: "churn-cache",
		why:  "short videos restarted from block 0 through a zipf-rank prefix cache: constant session turnover, thousands of cache hits and merges per run",
		config: func(seed uint64) spiffi.Config {
			cfg := spiffi.DefaultConfig(192)
			cfg.Seed = seed
			cfg.ServerMemBytes = 288 * spiffi.MB
			cfg.TerminalMemBytes = 16 * spiffi.MB
			cfg.Cache = spiffi.CacheConfig{BudgetBytes: 96 * spiffi.MB, Policy: spiffi.CacheZipfRank, PrefixBlocks: 16}
			cfg.ZipfZ = 1.5
			cfg.RandomInitialPosition = false
			cfg.Video.Length = 90 * spiffi.Second
			cfg.StartWindow = 90 * spiffi.Second
			cfg.MeasureTime = 3 * spiffi.Minute
			return cfg
		},
		check: func(u *unit) error {
			if u.m.CacheHits == 0 || u.m.Merges == 0 {
				return fmt.Errorf("cache hits=%d merges=%d, want both > 0", u.m.CacheHits, u.m.Merges)
			}
			return nil
		},
	},
	{
		name:  "sweep-capacity",
		why:   "a full capacity search on the parallel runner (512 MB love prefetch, two seeds, step 10): the job users of the simulator wait for",
		sweep: true,
		config: func(seed uint64) spiffi.Config {
			cfg := spiffi.DefaultConfig(1)
			cfg.Seed = seed
			cfg.Video.Length = 6 * spiffi.Minute
			cfg.MeasureTime = 45 * spiffi.Second
			cfg.StartWindow = 20 * spiffi.Second
			cfg.ServerMemBytes = 512 * spiffi.MB
			cfg.Replacement = spiffi.ReplaceLovePrefetch
			return cfg
		},
		check: func(u *unit) error {
			if u.maxTerminals <= 0 || u.runs <= 0 || u.totalRuns < u.runs {
				return fmt.Errorf("max=%d runs=%d total=%d", u.maxTerminals, u.runs, u.totalRuns)
			}
			return nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// searchOptions gives the sweep's search for a configuration seed s: the
// replication seeds {2s-1, 2s}, so s = 1 searches with seeds {1, 2}.
func searchOptions(s uint64) spiffi.SearchOptions {
	return spiffi.SearchOptions{Step: 10, Seeds: []uint64{2*s - 1, 2 * s}}
}

// unitSeed is the configuration seed of the i-th unit of a run started
// with -seed n. Runs with seeds 0 and 1 both cycle through {1..8}, which
// holds the golden seed 1.
func unitSeed(n uint64, i int) uint64 {
	base := uint64(1)
	if n > 0 {
		base = (n-1)*seedsPerRun + 1
	}
	return base + uint64(i%seedsPerRun)
}

// runUnit executes one unit of the workload at a configuration seed;
// traced turns on the structured event recorder.
func (w *workload) runUnit(seed uint64, traced bool) *unit {
	cfg := w.config(seed)
	cfg.Trace = spiffi.TraceOptions{Enabled: traced}
	u := measure(cfg, w.sweep)
	u.sim = u
	if u.err == nil && w.sweep {
		at := cfg
		at.Seed = searchOptions(seed).Seeds[0]
		at.Terminals = u.maxTerminals
		u.sim = measure(at, false)
		if u.sim.err != nil {
			u.err = fmt.Errorf("at-max re-run: %w", u.sim.err)
		} else if u.sim.m.Events != u.m.Events {
			u.err = fmt.Errorf("at-max re-run: %d events, the search's run had %d", u.sim.m.Events, u.m.Events)
		}
	}
	if u.err == nil {
		u.digest = w.digest(u)
	}
	return u
}

// measure runs one simulation of cfg, or the capacity search over cfg
// when sweep is set, and measures it from outside: host time,
// allocations, and the heap its result still retains once it has
// finished. It starts from a collected heap, so garbage left by earlier
// work is not collected on its time, and the retained heap excludes what
// the process held before the unit, such as other workloads' libraries.
func measure(cfg spiffi.Config, sweep bool) *unit {
	u := &unit{seed: cfg.Seed, runs: 1, totalRuns: 1}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var held any
	if sweep {
		res, err := spiffi.NewRunner(0).FindMaxTerminals(cfg, searchOptions(cfg.Seed))
		u.err = err
		u.maxTerminals, u.runs, u.totalRuns = res.MaxTerminals, res.Runs, res.TotalRuns
		if len(res.AtMax) > 0 {
			u.m = res.AtMax[0]
		}
		held = &res
	} else {
		s, err := spiffi.NewSimulation(cfg)
		if err == nil {
			u.m, err = s.Run()
		}
		u.err = err
		held = s
	}
	u.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	u.mallocs = after.Mallocs - before.Mallocs
	u.allocB = after.TotalAlloc - before.TotalAlloc

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	u.liveHeap = int64(live.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(held)
	return u
}

// digest fingerprints a unit's simulated output: the Metrics JSON with
// the kernel event count zeroed (the trace snapshot is never marshalled),
// plus the answer and consumed-run count for the sweep. Event counts are
// left out because a kernel change may count events differently without
// changing what is simulated.
func (w *workload) digest(u *unit) string {
	m := u.m
	m.Events = 0
	var v any = m
	if w.sweep {
		v = struct {
			MaxTerminals, Runs int
			AtMax              spiffi.Metrics
		}{u.maxTerminals, u.runs, m}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // Metrics is plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// setupConfig is the configuration whose assembly setup_s times. Its
// start window and startup grace are zeroed so the assembled simulation
// can be torn down without simulating anything; assembly does the same
// work either way. The sweep's setup is one probe at the knee of its
// search.
func (w *workload) setupConfig(seed uint64) spiffi.Config {
	cfg := w.config(seed)
	if w.sweep {
		cfg.Terminals = 240
	}
	cfg.StartWindow = 0
	cfg.StartupGrace = 0
	return cfg
}

// setupBatch is how many set-ups one set-up sample averages. A single
// set-up takes 3–35 ms, short enough for scheduler jitter to show.
const setupBatch = 5

// setup returns the mean host seconds of setupBatch set-ups, each what a
// fresh process pays before its first simulated event: generating the
// workload's video library from scratch and assembling the simulation.
func (w *workload) setup(seed uint64) (float64, error) {
	var total float64
	for i := 0; i < setupBatch; i++ {
		t, err := w.setupOnce(seed)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total / setupBatch, nil
}

func (w *workload) setupOnce(seed uint64) (float64, error) {
	cfg := w.setupConfig(seed)
	// Assembly takes its library from the process-wide cache; fill that
	// first so the timed part generates exactly one library.
	shared := mpeg.SharedLibrary(cfg.Video, cfg.NumVideos(), cfg.LibrarySeed)
	for i := 0; i < shared.Count(); i++ {
		shared.Get(i)
	}
	// Every set-up starts from a collected heap, so whether a collection
	// falls inside it does not vary from one to the next.
	runtime.GC()
	start := time.Now()
	lib := mpeg.NewLibrary(cfg.Video, cfg.NumVideos(), cfg.LibrarySeed)
	for i := 0; i < lib.Count(); i++ {
		lib.Get(i)
	}
	s, err := spiffi.NewSimulation(cfg)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	// With a zero start deadline Run returns at once, stopping every
	// process the assembly spawned.
	if m, err := s.Run(); err != nil || m.Started {
		return 0, fmt.Errorf("setup teardown: started=%v err=%v", m.Started, err)
	}
	return elapsed, nil
}
