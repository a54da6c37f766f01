// Package cli provides the shared flag surface of the spiffi command
// line tools, mapping flags onto a core.Config.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/faults"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
	"spiffi/internal/trace"
	"spiffi/internal/workload"
)

// Flags holds the parsed common flags.
type Flags struct {
	Terminals  *int
	Nodes      *int
	Disks      *int // per node
	Videos     *int // per disk
	StripeKB   *int64
	ServerMB   *int64
	TerminalKB *int64
	Zipf       *float64
	Sched      *string
	Classes    *int
	SpacingS   *float64
	Groups     *int
	Replace    *string
	Prefetch   *string
	MaxAdvS    *float64
	Striped    *bool
	VideoMin   *float64
	MeasureS   *float64
	StartS     *float64
	Seed       *uint64
	Pause      *bool
	PiggyS     *float64
	VCRSeeks   *float64
	VCRSkim    *bool

	// Fault injection & degraded-mode operation.
	FaultDiskSlow  *float64
	FaultDiskFail  *float64
	FaultRepairS   *float64
	FaultNodeCrash *float64
	FaultRestartS  *float64
	FaultNetLoss   *float64
	FaultJitterMS  *float64
	Mirror         *bool
	MirrorNode     *bool
	Failover       *bool
	ReqTimeoutS    *float64
	Retries        *int
	BackoffMS      *float64

	// Overload control & recovery (internal/overload, OVERLOAD.md).
	AdmitLimit    *int
	Adaptive      *bool
	Shed          *bool
	PatienceS     *float64
	RebuildMBs    *float64
	HoldAfterCutS *float64
	RaiseStreak   *int

	// Prefix caching & stream merging (internal/cache, CACHING.md).
	CacheMB      *int64
	CachePolicy  *string
	PrefixBlocks *int
	CacheDecay   *int64

	// Workload scenarios (internal/workload, WORKLOADS.md).
	Workload *string

	// Workers is not part of core.Config: it sizes the worker pool for
	// tools that evaluate many runs (searches, sweeps).
	Workers *int

	// Observability (internal/trace, OBSERVABILITY.md).
	Trace    *string // export format ("" = tracing off)
	TraceOut *string // output path ("" = format default, "-" = stdout)
	TraceCap *int    // ring capacity in events (0 = default)
}

// Register installs the common flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		Terminals:  fs.Int("terminals", 200, "number of video terminals"),
		Nodes:      fs.Int("nodes", 4, "server nodes (CPUs)"),
		Disks:      fs.Int("disks", 4, "disks per node"),
		Videos:     fs.Int("videos", 4, "videos per disk"),
		StripeKB:   fs.Int64("stripe", 512, "stripe size in KB"),
		ServerMB:   fs.Int64("servermem", 4096, "aggregate server memory in MB"),
		TerminalKB: fs.Int64("termmem", 2048, "terminal memory in KB"),
		Zipf:       fs.Float64("zipf", 1.0, "video access skew z (0 = uniform)"),
		Sched:      fs.String("sched", "elevator", "disk scheduler: elevator|fcfs|round-robin|gss|real-time"),
		Classes:    fs.Int("classes", 3, "real-time priority classes"),
		SpacingS:   fs.Float64("spacing", 4, "real-time priority spacing (seconds)"),
		Groups:     fs.Int("groups", 1, "GSS groups"),
		Replace:    fs.String("replace", "global-lru", "page replacement: global-lru|love-prefetch"),
		Prefetch:   fs.String("prefetch", "", "prefetching: off|basic|real-time|delayed (default: per scheduler)"),
		MaxAdvS:    fs.Float64("maxadvance", 8, "delayed prefetching max advance (seconds)"),
		Striped:    fs.Bool("striped", true, "stripe videos across all disks"),
		VideoMin:   fs.Float64("videolen", 60, "video length in minutes"),
		MeasureS:   fs.Float64("measure", 600, "measured window (simulated seconds)"),
		StartS:     fs.Float64("startwindow", 60, "terminal start stagger window (seconds)"),
		Seed:       fs.Uint64("seed", 1, "simulation seed"),
		Pause:      fs.Bool("pause", false, "terminals pause twice per movie for ~2 minutes"),
		PiggyS:     fs.Float64("piggyback", 0, "piggyback start delay in seconds (0 = off)"),
		VCRSeeks:   fs.Float64("vcr", 0, "mean rewind/fast-forward seeks per movie (0 = off)"),
		VCRSkim:    fs.Bool("vcrskim", false, "seeks use the visual-search skim scheme"),

		FaultDiskSlow:  fs.Float64("faultdiskslow", 0, "transient disk slowdowns per disk-hour (0 = off)"),
		FaultDiskFail:  fs.Float64("faultdiskfail", 0, "disk fail-stops per disk-hour (0 = off)"),
		FaultRepairS:   fs.Float64("faultrepair", 30, "disk repair time in seconds (0 = permanent)"),
		FaultNodeCrash: fs.Float64("faultnodecrash", 0, "node crashes per node-hour (0 = off)"),
		FaultRestartS:  fs.Float64("faultrestart", 60, "node restart time in seconds (0 = permanent)"),
		FaultNetLoss:   fs.Float64("faultnetloss", 0, "per-message network drop probability (0 = off)"),
		FaultJitterMS:  fs.Float64("faultnetjitter", 0, "max extra network latency in ms (0 = off)"),
		Mirror:         fs.Bool("mirror", false, "store a declustered replica of every video"),
		MirrorNode:     fs.Bool("mirrornode", false, "place replicas cross-node (interleaved declustering; requires -mirror)"),
		Failover:       fs.Bool("failover", false, "redirect around suspect nodes and re-admit with priority (requires -mirror)"),
		ReqTimeoutS:    fs.Float64("reqtimeout", 0, "terminal request timeout in seconds (0 = default when faults on)"),
		Retries:        fs.Int("retries", 0, "max retries per block (0 = default when faults on)"),
		BackoffMS:      fs.Float64("backoff", 0, "first retry backoff in ms, doubling per retry up to 64x (0 = default)"),

		AdmitLimit:    fs.Int("admit", 0, "admission limit on concurrent streams (0 = off)"),
		Adaptive:      fs.Bool("adaptive", false, "adapt the admission limit from measured disk slack"),
		Shed:          fs.Bool("shed", false, "shed low-priority streams to half rate under overload"),
		PatienceS:     fs.Float64("patience", 0, "admission queue patience in seconds (0 = default 10; <0 = wait forever)"),
		RebuildMBs:    fs.Float64("rebuildrate", 0, "mirror rebuild rate in MB/s after disk repair (0 = off)"),
		HoldAfterCutS: fs.Float64("holdaftercut", 0, "suppress adaptive limit raises for this many seconds after each cut (0 = off)"),
		RaiseStreak:   fs.Int("raisestreak", 0, "consecutive healthy estimator ticks required before a limit raise (0 = raise immediately)"),

		CacheMB:      fs.Int64("cache", 0, "prefix-cache budget in MB, carved from server memory (0 = off)"),
		CachePolicy:  fs.String("cachepolicy", "", "cache replacement: lru|zipf-rank (default lru with -cache)"),
		PrefixBlocks: fs.Int("prefixblocks", 0, "cacheable prefix depth in blocks per video (0 = default 8 with -cache)"),
		CacheDecay:   fs.Int64("cachedecay", 0, "halve cached popularity counts every N lookups (0 = never; churn-aware zipf-rank)"),

		Workload: fs.String("workload", "", "workload scenario spec, e.g. 'think=10s; steady:60s; premiere:45s load=3 promote=0 share=0.7' (see WORKLOADS.md; empty = off)"),

		Workers: fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS); results are identical for any value"),

		Trace:    fs.String("trace", "", "record structured events and export as jsonl|chrome|summary (empty = off)"),
		TraceOut: fs.String("trace-out", "", "trace output path (default trace.jsonl/trace.json, summary to stdout; '-' = stdout)"),
		TraceCap: fs.Int("tracecap", 0, "trace ring capacity in events (0 = default, 65536)"),
	}
}

// TraceOptions materializes trace.Options from the parsed flags.
func (f *Flags) TraceOptions() trace.Options {
	return trace.Options{Enabled: *f.Trace != "", Capacity: *f.TraceCap}
}

// ExportTrace writes a trace snapshot per the -trace/-trace-out flags
// and returns the destination it wrote ("" when tracing is off or there
// is nothing to write). The default destination keeps stdout clean for
// the metrics report: summaries print inline, event dumps go to
// trace.jsonl (JSONL) or trace.json (Chrome/Perfetto).
func (f *Flags) ExportTrace(d *trace.Data) (string, error) {
	format := *f.Trace
	if format == "" || d == nil {
		return "", nil
	}
	path := *f.TraceOut
	if path == "" {
		switch format {
		case "chrome":
			path = "trace.json"
		case "summary":
			path = "-"
		default:
			path = "trace." + format
		}
	}
	if path == "-" {
		return "stdout", trace.Export(os.Stdout, d, format)
	}
	out, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.Export(out, d, format); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}

// Config materializes a core.Config from the parsed flags.
func (f *Flags) Config() (core.Config, error) {
	cfg := core.DefaultConfig(*f.Terminals)
	cfg.Seed = *f.Seed
	cfg.Nodes = *f.Nodes
	cfg.DisksPerNode = *f.Disks
	cfg.VideosPerDisk = *f.Videos
	cfg.StripeBytes = *f.StripeKB * core.KB
	cfg.ServerMemBytes = *f.ServerMB * core.MB
	cfg.TerminalMemBytes = *f.TerminalKB * core.KB
	cfg.ZipfZ = *f.Zipf
	cfg.Striped = *f.Striped
	cfg.Video.Length = sim.DurationOfSeconds(*f.VideoMin * 60)
	cfg.MeasureTime = sim.DurationOfSeconds(*f.MeasureS)
	cfg.StartWindow = sim.DurationOfSeconds(*f.StartS)

	switch *f.Sched {
	case "elevator":
		cfg.Sched = dsched.Config{Kind: dsched.KindElevator}
	case "fcfs":
		cfg.Sched = dsched.Config{Kind: dsched.KindFCFS}
	case "round-robin":
		cfg.Sched = dsched.Config{Kind: dsched.KindRoundRobin}
	case "gss":
		cfg.Sched = dsched.Config{Kind: dsched.KindGSS, Groups: *f.Groups}
	case "real-time":
		cfg.Sched = dsched.Config{
			Kind:    dsched.KindRealTime,
			Classes: *f.Classes,
			Spacing: sim.DurationOfSeconds(*f.SpacingS),
		}
	default:
		return cfg, fmt.Errorf("unknown scheduler %q", *f.Sched)
	}

	switch *f.Replace {
	case "global-lru":
		cfg.Replacement = bufferpool.PolicyGlobalLRU
	case "love-prefetch":
		cfg.Replacement = bufferpool.PolicyLovePrefetch
	default:
		return cfg, fmt.Errorf("unknown replacement policy %q", *f.Replace)
	}

	switch *f.Prefetch {
	case "":
		// Per-scheduler default via Normalize.
	case "off":
		cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeOff}
	case "basic":
		cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeBasic}
	case "real-time":
		cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeRealTime}
	case "delayed":
		cfg.Prefetch = prefetch.Config{
			Mode:       prefetch.ModeDelayed,
			MaxAdvance: sim.DurationOfSeconds(*f.MaxAdvS),
		}
	default:
		return cfg, fmt.Errorf("unknown prefetch mode %q", *f.Prefetch)
	}

	if *f.Pause {
		cfg.Pause = &terminal.PauseConfig{MeanPauses: 2, MeanDuration: 2 * sim.Minute}
	}
	if *f.PiggyS > 0 {
		cfg.PiggybackDelay = sim.DurationOfSeconds(*f.PiggyS)
	}
	if *f.VCRSeeks > 0 {
		cfg.VCR = &terminal.VCRConfig{
			MeanSeeksPerMovie: *f.VCRSeeks,
			MeanDistanceFrac:  0.25,
			ForwardProb:       0.5,
		}
		if *f.VCRSkim {
			cfg.VCR.Skim = true
			cfg.VCR.SkimStrideBlocks = 8
			cfg.VCR.SkimSegmentFrames = 30
		}
	}

	cfg.Faults = faults.Config{
		DiskSlowRate:    *f.FaultDiskSlow,
		DiskFailRate:    *f.FaultDiskFail,
		DiskRepairTime:  sim.DurationOfSeconds(*f.FaultRepairS),
		NodeCrashRate:   *f.FaultNodeCrash,
		NodeRestartTime: sim.DurationOfSeconds(*f.FaultRestartS),
		NetLossProb:     *f.FaultNetLoss,
		NetJitterMax:    sim.DurationOfSeconds(*f.FaultJitterMS / 1000),
	}
	cfg.ReplicateVideos = *f.Mirror
	cfg.MirrorCrossNode = *f.MirrorNode
	cfg.Failover = *f.Failover
	cfg.Trace = f.TraceOptions()
	cfg.RequestTimeout = sim.DurationOfSeconds(*f.ReqTimeoutS)
	cfg.MaxRetries = *f.Retries
	cfg.RetryBackoff = sim.DurationOfSeconds(*f.BackoffMS / 1000)

	cfg.Overload.AdmitLimit = *f.AdmitLimit
	cfg.Overload.Adaptive = *f.Adaptive
	cfg.Overload.Shed = *f.Shed
	cfg.Overload.Patience = sim.DurationOfSeconds(*f.PatienceS)
	cfg.Overload.RebuildRate = int64(*f.RebuildMBs * float64(core.MB))
	cfg.Overload.HoldAfterCut = sim.DurationOfSeconds(*f.HoldAfterCutS)
	cfg.Overload.RaiseStreak = *f.RaiseStreak

	cfg.Cache.BudgetBytes = *f.CacheMB * core.MB
	cfg.Cache.Policy = cache.PolicyKind(*f.CachePolicy)
	cfg.Cache.PrefixBlocks = *f.PrefixBlocks
	cfg.Cache.DecayEvery = *f.CacheDecay
	if !cfg.Cache.Enabled() && (*f.CachePolicy != "" || *f.PrefixBlocks != 0 || *f.CacheDecay != 0) {
		return cfg, fmt.Errorf("-cachepolicy/-prefixblocks/-cachedecay require -cache")
	}

	if *f.Workload != "" {
		wl, err := workload.ParseSpec(*f.Workload)
		if err != nil {
			return cfg, err
		}
		cfg.Workload = wl
	}
	return cfg, nil
}

// FormatDuration renders a wall-clock duration compactly.
func FormatDuration(d time.Duration) string { return d.Round(time.Millisecond).String() }
