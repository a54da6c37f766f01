// Package spiffi is a faithful reimplementation, as a discrete-event
// simulation library, of the system described in "The SPIFFI Scalable
// Video-on-Demand System" (Freedman & DeWitt, SIGMOD 1995).
//
// The library simulates a shared-nothing video server — nodes with CPUs,
// buffer pools and disks, fully striped video placement, and a network —
// serving MPEG streams to video terminals with small playout buffers.
// It implements and compares the paper's algorithms:
//
//   - Disk scheduling: elevator, FCFS, round-robin, the group sweeping
//     scheme (GSS), and the paper's deadline-driven real-time scheduler.
//   - Page replacement: global LRU and "love prefetch" (two-chain LRU
//     protecting prefetched pages).
//   - Prefetching: basic FIFO, real-time (deadline-estimated), and
//     delayed (bounded maximum advance prefetch time).
//   - Extras: pause/resume (§8.1) and piggybacked starts (§8.2).
//
// The headline metric is the maximum number of terminals a configuration
// supports with zero glitches (§7.1), found by FindMaxTerminals.
//
// Quick start:
//
//	cfg := spiffi.DefaultConfig(200) // the paper's 16-disk base system
//	m, err := spiffi.Run(cfg)
//	fmt.Println(m.Glitches, m.DiskUtilAvg)
//
// Everything is deterministic given Config.Seed. See DESIGN.md for the
// model inventory and EXPERIMENTS.md for the reproduced paper results.
package spiffi

import (
	"io"

	"spiffi/internal/admission"
	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/stats"
	"spiffi/internal/terminal"
	"spiffi/internal/trace"
	"spiffi/internal/workload"
)

// Config is a complete simulation configuration; zero values are invalid,
// start from DefaultConfig.
type Config = core.Config

// Metrics is the result of one simulation run.
type Metrics = core.Metrics

// SearchOptions controls FindMaxTerminals.
type SearchOptions = core.SearchOptions

// SearchResult is FindMaxTerminals' outcome.
type SearchResult = core.SearchResult

// Simulation is an assembled run (NewSimulation + Run for two-phase use).
type Simulation = core.Simulation

// Runner evaluates independent simulations concurrently on a bounded
// worker pool; every result is bit-identical to sequential execution.
type Runner = core.Runner

// SchedConfig selects and parameterizes a disk scheduling algorithm.
type SchedConfig = dsched.Config

// PrefetchConfig selects and parameterizes a prefetching strategy.
type PrefetchConfig = prefetch.Config

// PauseConfig enables the pause/resume workload (§8.1).
type PauseConfig = terminal.PauseConfig

// VCRConfig enables the rewind/fast-forward workload, optionally with
// the paper's "visual search" skim scheme (§8.1).
type VCRConfig = terminal.VCRConfig

// Interval is a Student-t confidence interval (§7.1 methodology).
type Interval = stats.Interval

// TraceOptions enables the structured event recorder on Config.Trace;
// the resulting snapshot rides Metrics.Trace. See OBSERVABILITY.md.
type TraceOptions = trace.Options

// TraceData is one run's recorded trace snapshot (events, per-subsystem
// latency histograms); render it with ExportTrace.
type TraceData = trace.Data

// AdmissionAnalysis computes the §4 analytical capacity bounds
// (worst-case and expected-case) the paper contrasts simulation against.
type AdmissionAnalysis = admission.Analysis

// CacheConfig enables the per-node prefix cache and stream merging on
// Config.Cache; the zero value disables both. See CACHING.md.
type CacheConfig = cache.Config

// WorkloadConfig drives time-varying traffic scenarios (flash crowds,
// popularity churn, diurnal cycles) on Config.Workload; the zero value
// is inert and reproduces historical behavior bit-for-bit. See
// WORKLOADS.md.
type WorkloadConfig = workload.Config

// WorkloadPhase is one phase of a workload scenario.
type WorkloadPhase = workload.Phase

// Duration and Time re-export the simulation clock types.
type (
	Duration = sim.Duration
	Time     = sim.Time
)

// Time units for configurations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Size units for configurations.
const (
	KB = core.KB
	MB = core.MB
	GB = core.GB
)

// Disk scheduling algorithm kinds (§5.2.2).
const (
	SchedElevator   = dsched.KindElevator
	SchedFCFS       = dsched.KindFCFS
	SchedRoundRobin = dsched.KindRoundRobin
	SchedGSS        = dsched.KindGSS
	SchedRealTime   = dsched.KindRealTime
)

// Page replacement policies (§5.2.1).
const (
	ReplaceGlobalLRU    = bufferpool.PolicyGlobalLRU
	ReplaceLovePrefetch = bufferpool.PolicyLovePrefetch
)

// Prefetching strategies (§5.2.3).
const (
	PrefetchOff      = prefetch.ModeOff
	PrefetchBasic    = prefetch.ModeBasic
	PrefetchRealTime = prefetch.ModeRealTime
	PrefetchDelayed  = prefetch.ModeDelayed
)

// Prefix-cache replacement policies (CACHING.md).
const (
	CacheLRU      = cache.PolicyLRU
	CacheZipfRank = cache.PolicyZipfRank
)

// DefaultConfig returns the paper's base configuration (§7: 4 processors,
// 16 disks, 64 one-hour videos, 4 GB server memory, 512 KB stripes, 2 MB
// terminals, Zipf z=1, elevator scheduling, global LRU) with the given
// number of terminals.
func DefaultConfig(terminals int) Config { return core.DefaultConfig(terminals) }

// NewSimulation validates and assembles a simulation for one run.
func NewSimulation(cfg Config) (*Simulation, error) { return core.NewSimulation(cfg) }

// Run builds and executes one simulation, returning its metrics.
func Run(cfg Config) (Metrics, error) { return core.Run(cfg) }

// NewRunner returns a worker pool evaluating at most `workers`
// simulations concurrently (0 = GOMAXPROCS). Its FindMaxTerminals,
// GlitchCurve, ConfidentMax and RunMany methods parallelize the
// package-level functions of the same names with bit-identical results.
func NewRunner(workers int) *Runner { return core.NewRunner(workers) }

// FindMaxTerminals searches for the largest glitch-free terminal count —
// the paper's primary performance metric (§7.1).
func FindMaxTerminals(cfg Config, opt SearchOptions) (SearchResult, error) {
	return core.NewRunner(1).FindMaxTerminals(cfg, opt)
}

// GlitchCurve measures glitch counts at each terminal count (Figure 9's
// raw data).
func GlitchCurve(cfg Config, counts []int) (map[int]int64, error) {
	return core.NewRunner(1).GlitchCurve(cfg, counts)
}

// ConfidentMax repeats independent max-terminal searches across seeds
// until the paper's §7.1 stopping rule holds (confidence `level`,
// relative half-width `relWidth`), returning the interval and per-seed
// maxima.
func ConfidentMax(cfg Config, opt SearchOptions, level, relWidth float64, minSeeds, maxSeeds int) (Interval, []int, error) {
	return core.NewRunner(1).ConfidentMax(cfg, opt, level, relWidth, minSeeds, maxSeeds)
}

// RealTimeSched is a convenience constructor for the paper's tuned
// real-time scheduler configuration (3 classes, 4-second spacing by
// default in the paper's experiments).
func RealTimeSched(classes int, spacing Duration) SchedConfig {
	return SchedConfig{Kind: dsched.KindRealTime, Classes: classes, Spacing: spacing}
}

// GSSSched is a convenience constructor for group sweeping.
func GSSSched(groups int) SchedConfig {
	return SchedConfig{Kind: dsched.KindGSS, Groups: groups}
}

// ParseWorkloadSpec parses the compact workload scenario grammar
// documented in WORKLOADS.md (e.g. "think=10s; steady:60s;
// premiere:45s load=3 promote=0 share=0.7; recover:* shuffle") into a
// WorkloadConfig, normalized and validated.
func ParseWorkloadSpec(spec string) (WorkloadConfig, error) {
	return workload.ParseSpec(spec)
}

// ExportTrace renders a trace snapshot in the named format: "jsonl"
// (one self-describing JSON object per event), "chrome" (trace-event
// JSON for Perfetto or chrome://tracing), or "summary" (plain-text
// digest). The full schema is documented in OBSERVABILITY.md.
func ExportTrace(w io.Writer, d *TraceData, format string) error {
	return trace.Export(w, d, format)
}
