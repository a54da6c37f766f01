package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/faults"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
	"spiffi/internal/workload"
)

// updateGolden rewrites metricsGoldenPath from this run instead of
// checking it:
// go test ./internal/core/ -run MetricsGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite "+metricsGoldenPath+" from this run")

// metricsGoldenPath pins, per case of goldenCases, the SHA-256 of the
// run's full Metrics JSON followed by Metrics.String().
const metricsGoldenPath = "testdata/metrics_golden.json"

// goldenCase is one small run that drives one family of Metrics
// counters. fires reports whether the run actually exercised that
// family, so a config drift cannot turn the pin into a pin of zeros.
type goldenCase struct {
	name   string
	cfg    func() core.Config
	script func(s *core.Simulation) // scripted faults, scheduled before Run
	fires  func(m core.Metrics) bool
}

// goldenBase is the 2-node/2-disk system every case starts from.
func goldenBase(terminals int) core.Config {
	cfg := tinyConfig(terminals)
	cfg.Video.Length = 90 * sim.Second
	return cfg
}

var goldenCases = []goldenCase{
	{
		name: "faults-disk-net",
		cfg: func() core.Config {
			cfg := goldenBase(24)
			cfg.Faults = faults.Config{
				DiskSlowRate:   30,
				DiskFailRate:   60,
				DiskRepairTime: 5 * sim.Second,
				NetLossProb:    0.01,
				NetJitterMax:   2 * sim.Millisecond,
			}
			return cfg
		},
		fires: func(m core.Metrics) bool {
			return m.DiskFailStops > 0 && m.Nacks > 0 && m.Retries > 0 &&
				m.Timeouts > 0 && m.LostBlocks > 0 && m.Recoveries > 0 && m.NetDropped > 0 &&
				m.Pool.FetchFails > 0
		},
	},
	{
		name: "failover-crash",
		cfg: func() core.Config {
			cfg := goldenBase(20)
			cfg.ReplicateVideos = true
			cfg.MirrorCrossNode = true
			cfg.Failover = true
			cfg.RequestTimeout = 2 * sim.Second
			cfg.MaxRetries = 3
			cfg.RetryBackoff = 50 * sim.Millisecond
			return cfg
		},
		script: func(s *core.Simulation) { s.ScheduleNodeCrash(1, sim.Time(30*sim.Second), 15*sim.Second) },
		fires: func(m core.Metrics) bool {
			return m.Nodes.Crashes > 0 && m.SessionsImpacted > 0 && m.NodeSuspects > 0 && m.NodeRejoins > 0
		},
	},
	{
		name: "adaptive-shed-rebuild",
		cfg: func() core.Config {
			cfg := goldenBase(44)
			cfg.ReplicateVideos = true
			cfg.RequestTimeout = 2 * sim.Second
			cfg.MaxRetries = 3
			cfg.RetryBackoff = 50 * sim.Millisecond
			cfg.MeasureTime = 90 * sim.Second
			cfg.Overload.AdmitLimit = 44
			cfg.Overload.Adaptive = true
			cfg.Overload.Shed = true
			cfg.Overload.RebuildRate = 16 * core.MB
			return cfg
		},
		script: func(s *core.Simulation) { s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 10*sim.Second) },
		fires: func(m core.Metrics) bool {
			return m.Sheds > 0 && m.DegradedBlocks > 0 && m.AdmLimitMin < m.AdmLimit && m.RebuiltBlocks > 0
		},
	},
	{
		name: "vcr-skim",
		cfg: func() core.Config {
			cfg := goldenBase(24)
			cfg.VCR = &terminal.VCRConfig{
				MeanSeeksPerMovie: 3,
				MeanDistanceFrac:  0.25,
				ForwardProb:       0.5,
				Skim:              true,
				SkimStrideBlocks:  4,
				SkimSegmentFrames: 15,
			}
			return cfg
		},
		fires: func(m core.Metrics) bool { return m.Seeks > 0 && m.SkimBlocks > 0 && m.SeekRePrimeMax > 0 },
	},
	{
		name: "pause",
		cfg: func() core.Config {
			cfg := goldenBase(24)
			cfg.Pause = &terminal.PauseConfig{MeanPauses: 4, MeanDuration: 10 * sim.Second}
			return cfg
		},
		fires: func(m core.Metrics) bool { return m.Started && m.BlocksServed > 0 },
	},
	{
		name: "cache-zipf-rank-merge",
		cfg: func() core.Config {
			cfg := goldenBase(32)
			cfg.ZipfZ = 1.5
			cfg.ServerMemBytes = 96 * core.MB
			cfg.TerminalMemBytes = 16 * core.MB
			cfg.StartWindow = 60 * sim.Second
			cfg.MeasureTime = 45 * sim.Second
			cfg.Cache = cache.Config{BudgetBytes: 32 * core.MB, Policy: cache.PolicyZipfRank, PrefixBlocks: 16}
			return cfg
		},
		fires: func(m core.Metrics) bool { return m.CacheHits > 0 && m.Merges > 0 && m.MergedBlocks > 0 },
	},
	{
		name: "workload-premiere-shuffle",
		cfg: func() core.Config {
			cfg := goldenBase(40)
			spec, err := workload.ParseSpec(
				"think=5s; steady:30s; premiere:30s load=3 promote=0 share=0.8 seekboost=2; recover:* shuffle")
			if err != nil {
				panic(err)
			}
			cfg.Workload = spec
			cfg.VCR = &terminal.VCRConfig{MeanSeeksPerMovie: 1, MeanDistanceFrac: 0.25, ForwardProb: 0.5}
			cfg.MeasureTime = 90 * sim.Second
			cfg.RequestTimeout = 2 * sim.Second
			cfg.MaxRetries = 2
			cfg.RetryBackoff = 50 * sim.Millisecond
			cfg.Overload.AdmitLimit = 30
			cfg.Overload.Patience = 2 * sim.Second
			cfg.Overload.Adaptive = true
			cfg.Overload.Shed = true
			cfg.Cache = cache.Config{BudgetBytes: 16 * core.MB, Policy: cache.PolicyZipfRank, PrefixBlocks: 8}
			return cfg
		},
		// A disk dies during warm-up and comes back inside the window,
		// so glitches land on both sides of the window's opening.
		script: func(s *core.Simulation) { s.ScheduleDiskFailStop(0, sim.Time(5*sim.Second), 20*sim.Second) },
		fires: func(m core.Metrics) bool {
			var p core.PhaseMetrics
			for _, ps := range m.PhaseStats {
				p.Glitches += ps.Glitches
				p.Sheds += ps.Sheds
				p.AdmRejected += ps.AdmRejected
				p.CacheHits += ps.CacheHits
				p.MoviesStarted += ps.MoviesStarted
			}
			return len(m.PhaseStats) == 3 && p.Glitches > m.Glitches && m.Glitches > 0 &&
				p.Sheds > 0 && p.AdmRejected > 0 && p.CacheHits > 0 && p.MoviesStarted > 0
		},
	},
	{
		name: "piggyback",
		cfg: func() core.Config {
			cfg := goldenBase(40)
			cfg.ZipfZ = 1.5
			cfg.PiggybackDelay = 60 * sim.Second
			cfg.StartupGrace = 10 * sim.Minute
			return cfg
		},
		fires: func(m core.Metrics) bool { return m.Started && m.BlocksServed > 0 },
	},
	{
		name: "zoned-realtime-love",
		cfg: func() core.Config {
			cfg := goldenBase(32)
			cfg.ZonedDisks = true
			cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
			cfg.Replacement = bufferpool.PolicyLovePrefetch
			cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeRealTime}
			return cfg
		},
		fires: func(m core.Metrics) bool { return m.Nodes.Prefetches > 0 && m.Pool.Evictions > 0 },
	},
}

// metricsDigest is the SHA-256 of m's JSON followed by its report.
func metricsDigest(t *testing.T, m core.Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte(m.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// Every counter family's Metrics — the JSON and the human report — is
// pinned byte for byte, so a refactor of how counters travel from the
// components to Metrics and PhaseStats cannot move a single value. Not
// skipped under -short: the race pass runs the fold too.
func TestMetricsGolden(t *testing.T) {
	golden := map[string]string{}
	if b, err := os.ReadFile(metricsGoldenPath); err == nil {
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatalf("%s: %v", metricsGoldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		s, err := core.NewSimulation(c.cfg())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.script != nil {
			c.script(s)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.fires(m) {
			t.Errorf("%s: the run no longer exercises its counter family:\n%s", c.name, m)
		}
		t.Logf("%s:\n%s", c.name, m)
		got := metricsDigest(t, m)
		if *updateGolden {
			golden[c.name] = got
		} else if got != golden[c.name] {
			t.Errorf("%s: Metrics digest %s, pinned %s:\n%s", c.name, got, golden[c.name], m)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
