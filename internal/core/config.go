// Package core assembles the full SPIFFI video-on-demand simulation: the
// video library, striped (or non-striped) placement, server nodes with
// buffer pools, disks and prefetch workers, the network, and the video
// terminals. It runs the paper's methodology (§6, §7.1): terminals start
// at random intervals, measurement begins once every terminal is actively
// viewing, runs for a fixed simulated time, and the headline metric is
// the maximum number of terminals supported with zero glitches.
//
// Beyond single runs, the package provides the measurement machinery the
// experiments are built from: FindMaxTerminals implements the paper's
// capacity search (doubling ascent plus bisection, all seeds must pass),
// and Runner fans independent simulations — sweep points, search probes,
// seed replications — across a bounded worker pool with bit-identical
// results for every worker count (see runner.go and search.go for the
// ordering discipline that makes that hold). Observability rides along:
// when Config.Trace is enabled each run's Metrics carries a structured
// event trace (internal/trace, see OBSERVABILITY.md) that follows the
// same consumed-results discipline, so traces are as deterministic as
// the metrics they accompany.
package core

import (
	"fmt"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/cpu"
	"spiffi/internal/disk"
	"spiffi/internal/dsched"
	"spiffi/internal/faults"
	"spiffi/internal/mpeg"
	"spiffi/internal/network"
	"spiffi/internal/overload"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
	"spiffi/internal/trace"
	"spiffi/internal/workload"
)

// KB and MB are byte-size helpers used throughout configurations.
const (
	KB int64 = 1024
	MB int64 = 1024 * 1024
	GB int64 = 1024 * 1024 * 1024
)

// Config is a complete simulation configuration. DefaultConfig returns
// the paper's base system (§7: 4 processors, 16 disks, 64 videos, 4 GB of
// server memory, 512 KB stripes, 2 MB terminals, Zipf z=1, elevator disk
// scheduling, global LRU replacement).
type Config struct {
	Seed        uint64 // run seed (replication variable)
	LibrarySeed uint64 // video-content seed, fixed across a sweep

	Nodes         int
	DisksPerNode  int
	VideosPerDisk int

	MIPS       float64
	CPUCosts   cpu.Costs
	DiskParams disk.Params
	// ZonedDisks switches the drives to zoned-bit-recording geometry
	// (8 zones, 1.3/0.7 outer/inner spread) instead of the paper's
	// constant-cylinder simplification.
	ZonedDisks bool
	NetParams  network.Params
	Video      mpeg.Params

	StripeBytes int64
	Striped     bool

	ServerMemBytes   int64 // aggregate across nodes
	TerminalMemBytes int64

	Terminals int
	ZipfZ     float64 // 0 selects the uniform distribution

	Sched       dsched.Config
	Replacement bufferpool.PolicyKind
	Prefetch    prefetch.Config // zero WorkersPerDisk picks a per-scheduler default

	Pause          *terminal.PauseConfig
	VCR            *terminal.VCRConfig // §8.1 rewind/fast-forward workload
	PiggybackDelay sim.Duration        // >0 enables §8.2 piggybacking

	// RandomInitialPosition starts every terminal's first movie at a
	// uniformly random position, putting the snapshot directly in the
	// steady state the paper measures (§6: "the results represent a
	// snapshot of the system's performance with all the terminals
	// active"). Defaults to true in DefaultConfig.
	RandomInitialPosition bool

	// StartWindow staggers terminal start times uniformly over [0, w).
	StartWindow sim.Duration
	// MeasureTime is the measured simulated duration after warm-up.
	MeasureTime sim.Duration
	// StartupGrace bounds how long after StartWindow the simulator waits
	// for every terminal to begin display before declaring the
	// configuration overloaded.
	StartupGrace sim.Duration

	// Faults configures fault injection (disk slowdowns and fail-stops,
	// node crashes, network loss/jitter). The zero value injects nothing
	// and reproduces fault-free runs bit for bit.
	Faults faults.Config

	// ReplicateVideos stores a second, declustered copy of every video
	// (each block's replica on the next disk), letting terminals fail
	// over around a dead disk. Doubles per-disk space.
	ReplicateVideos bool

	// MirrorCrossNode places every replica on a *different node* than
	// its primary (layout.MirrorCrossNode) instead of the chained-disk
	// default, so a whole-node crash leaves every block reachable.
	// Requires ReplicateVideos and at least two nodes.
	MirrorCrossNode bool

	// Failover enables session continuity across node crashes: blocks
	// homed on a suspect node are proactively resolved to their mirror
	// copy and impacted sessions re-admit through the failover-priority
	// path. Requires ReplicateVideos; Normalize fills SuspectThreshold
	// and RejoinWarmup when set.
	Failover bool

	// SuspectThreshold is the consecutive-timeout count (across all
	// terminals) at which a node is marked suspect. 0 disables the
	// health tracker unless Failover is set (Normalize then fills 2).
	// Setting it without Failover still runs suspicion tracking and
	// recovered/lost session accounting — the comparison baseline.
	SuspectThreshold int

	// RejoinWarmup holds the adaptive admission limit down for this
	// long after a crashed node restarts, so the rejoining node is not
	// instantly re-saturated (0 = none; Normalize fills 30s with
	// Failover set).
	RejoinWarmup sim.Duration

	// RequestTimeout/MaxRetries/RetryBackoff configure the terminals'
	// degraded-mode retry machinery. A zero RequestTimeout disables it
	// entirely (no timers are armed); Normalize fills all three with
	// defaults whenever fault injection is enabled. RetryBackoffCap
	// clamps the exponential backoff growth (zero = 64x RetryBackoff) so
	// large retry budgets cannot overflow the backoff into a negative
	// duration.
	RequestTimeout  sim.Duration
	MaxRetries      int
	RetryBackoff    sim.Duration
	RetryBackoffCap sim.Duration

	// RetryJitter adds a uniform draw from a derived per-terminal
	// stream on top of each retry backoff, breaking up retry
	// synchronization storms after a node restart. Strictly opt-in:
	// zero (the default) draws nothing, so fault-injection runs
	// without it reproduce earlier builds bit for bit.
	RetryJitter sim.Duration

	// Cache configures the popularity-aware prefix-cache tier
	// (internal/cache, CACHING.md): each node keeps the first
	// PrefixBlocks blocks of popular videos in a budget carved from the
	// buffer pool, and viewers whose prefix is resident merge onto
	// in-flight disk streams (core/merge.go). The zero value disables
	// the tier entirely — no caches are built, the pool keeps its full
	// size, and runs reproduce cache-less builds bit for bit.
	Cache cache.Config

	// Overload configures the adaptive overload-control subsystem:
	// measurement-based admission, QoS load shedding, and rate-limited
	// mirror rebuild (internal/overload). The zero value arms no
	// timers and consumes no randomness, reproducing runs without the
	// subsystem bit for bit.
	Overload overload.Config

	// Workload configures the scenario generator (internal/workload,
	// WORKLOADS.md): time-varying phases driving video selection
	// (Zipf-with-churn, premieres), session arrivals (binge think time
	// scaled by phase load), and VCR storm intensity, with phase entries
	// traced as wl.phase events and degradation counters bucketed per
	// phase in Metrics.PhaseStats. The zero value is strictly inert —
	// no schedule is compiled, no streams are derived, and every
	// existing run reproduces bit for bit.
	Workload workload.Config

	// Trace enables the structured event recorder (internal/trace). The
	// zero value records nothing and costs only nil-receiver checks on
	// the hot paths; enabling it never perturbs the simulation — traced
	// and untraced runs produce identical Metrics.
	Trace trace.Options
}

// DefaultConfig returns the paper's base configuration at a given
// terminal count.
func DefaultConfig(terminals int) Config {
	return Config{
		Seed:                  1,
		LibrarySeed:           1,
		Nodes:                 4,
		DisksPerNode:          4,
		VideosPerDisk:         4,
		MIPS:                  40,
		CPUCosts:              cpu.DefaultCosts(),
		DiskParams:            disk.DefaultParams(),
		NetParams:             network.DefaultParams(),
		Video:                 mpeg.DefaultParams(),
		StripeBytes:           512 * KB,
		Striped:               true,
		ServerMemBytes:        4 * GB,
		TerminalMemBytes:      2 * MB,
		Terminals:             terminals,
		ZipfZ:                 1.0,
		Sched:                 dsched.Config{Kind: dsched.KindElevator},
		Replacement:           bufferpool.PolicyGlobalLRU,
		Prefetch:              prefetch.Config{Mode: prefetch.ModeBasic},
		RandomInitialPosition: true,
		StartWindow:           60 * sim.Second,
		MeasureTime:           10 * sim.Minute,
		StartupGrace:          10 * sim.Minute,
	}
}

// TotalDisks returns Nodes*DisksPerNode.
func (c Config) TotalDisks() int { return c.Nodes * c.DisksPerNode }

// NumVideos returns the library size.
func (c Config) NumVideos() int { return c.VideosPerDisk * c.TotalDisks() }

// PoolPagesPerNode returns each node's buffer-pool frame count. An
// enabled prefix cache carves its budget out of the same server memory,
// shrinking the pool — the comparison against a cache-less run is at
// equal total hardware.
func (c Config) PoolPagesPerNode() int {
	mem := c.ServerMemBytes
	if c.Cache.Enabled() {
		mem -= c.Cache.BudgetBytes
	}
	return int(mem / int64(c.Nodes) / c.StripeBytes)
}

// StripePlayTime returns how long one full stripe block plays at the
// configured bit rate (the prefetch deadline-estimation unit).
func (c Config) StripePlayTime() sim.Duration {
	return sim.DurationOfSeconds(float64(c.StripeBytes) * 8 / float64(c.Video.BitRate))
}

// Normalize fills derived defaults: the prefetch strategy and worker
// count are chosen to suit the disk scheduler, as the paper does
// ("the prefetching mechanism was configured to maximize the performance
// of the disk scheduling algorithm in use", §5.2.3).
func (c Config) Normalize() Config {
	if c.Prefetch.Mode == "" {
		c.Prefetch.Mode = prefetch.ModeBasic
	}
	if c.Prefetch.Mode != prefetch.ModeOff {
		if c.Sched.IsRealTime() {
			// Real-time scheduling benefits from aggressive, deadline-
			// aware prefetching; it can always skip lazy prefetches.
			if c.Prefetch.Mode == prefetch.ModeBasic {
				c.Prefetch.Mode = prefetch.ModeRealTime
			}
			if c.Prefetch.WorkersPerDisk == 0 {
				c.Prefetch.WorkersPerDisk = 4
			}
		} else {
			// Non-real-time schedulers cannot tell prefetches from
			// urgent demand reads, so prefetching is kept timid.
			if c.Prefetch.WorkersPerDisk == 0 {
				c.Prefetch.WorkersPerDisk = 1
			}
		}
	}
	c.Faults.Normalize()
	if c.Failover && c.SuspectThreshold == 0 {
		c.SuspectThreshold = 2
	}
	if c.Failover && c.RejoinWarmup == 0 {
		c.RejoinWarmup = 30 * sim.Second
	}
	if c.Faults.Enabled() || c.SuspectThreshold > 0 {
		// Degraded-mode operation needs the retry machinery; fill
		// defaults so a bare fault config behaves sensibly. With faults
		// disabled RequestTimeout stays zero and no timers are armed —
		// that keeps fault-free runs event-identical to builds predating
		// fault injection.
		if c.RequestTimeout == 0 {
			c.RequestTimeout = 2 * sim.Second
		}
		if c.MaxRetries == 0 {
			c.MaxRetries = 3
		}
		if c.RetryBackoff == 0 {
			c.RetryBackoff = 200 * sim.Millisecond
		}
	}
	c.Overload = c.Overload.Normalize()
	c.Cache = c.Cache.Normalize()
	c.Workload = c.Workload.Normalize()
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.DisksPerNode < 1 {
		return fmt.Errorf("core: need nodes >= 1 and disks >= 1")
	}
	if c.VideosPerDisk < 1 {
		return fmt.Errorf("core: need at least one video per disk")
	}
	if c.StripeBytes < 1 {
		return fmt.Errorf("core: non-positive stripe size")
	}
	if c.TerminalMemBytes < c.StripeBytes {
		return fmt.Errorf("core: terminal memory %d below one stripe block %d",
			c.TerminalMemBytes, c.StripeBytes)
	}
	if c.PoolPagesPerNode() < 1 {
		return fmt.Errorf("core: server memory %d gives an empty buffer pool", c.ServerMemBytes)
	}
	if c.Terminals < 1 {
		return fmt.Errorf("core: need at least one terminal")
	}
	if c.ZipfZ < 0 {
		return fmt.Errorf("core: negative zipf skew")
	}
	if c.MeasureTime <= 0 {
		return fmt.Errorf("core: non-positive measure time")
	}
	if err := c.Sched.Validate(); err != nil {
		return err
	}
	if c.Prefetch.Mode == prefetch.ModeDelayed && c.Prefetch.MaxAdvance <= 0 {
		return fmt.Errorf("core: delayed prefetching needs MaxAdvance > 0")
	}
	if (c.Prefetch.Mode == prefetch.ModeDelayed || c.Prefetch.Mode == prefetch.ModeRealTime) && !c.Sched.IsRealTime() {
		return fmt.Errorf("core: %s prefetching requires the real-time disk scheduler", c.Prefetch.Mode)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.RequestTimeout < 0 || c.MaxRetries < 0 || c.RetryBackoff < 0 || c.RetryBackoffCap < 0 || c.RetryJitter < 0 {
		return fmt.Errorf("core: negative retry parameter")
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Cache.Enabled() && c.Cache.BudgetBytes/int64(c.Nodes) < c.StripeBytes {
		return fmt.Errorf("core: cache budget %d below one block per node", c.Cache.BudgetBytes)
	}
	if c.Overload.RebuildRate > 0 && !c.ReplicateVideos {
		return fmt.Errorf("core: mirror rebuild needs ReplicateVideos (no healthy copy to rebuild from)")
	}
	if c.RequestTimeout > 0 && c.MaxRetries > 0 && c.RetryBackoff <= 0 {
		return fmt.Errorf("core: retries need a positive backoff")
	}
	if c.ReplicateVideos && c.TotalDisks() < 2 {
		return fmt.Errorf("core: replication needs at least two disks")
	}
	if c.MirrorCrossNode && !c.ReplicateVideos {
		return fmt.Errorf("core: cross-node mirroring needs ReplicateVideos")
	}
	if c.MirrorCrossNode && c.Nodes < 2 {
		return fmt.Errorf("core: cross-node mirroring needs at least two nodes")
	}
	if c.Failover && !c.ReplicateVideos {
		return fmt.Errorf("core: failover needs ReplicateVideos (no mirror to redirect to)")
	}
	if c.SuspectThreshold < 0 || c.RejoinWarmup < 0 {
		return fmt.Errorf("core: negative failover parameter")
	}
	if v := c.VCR; v != nil {
		if v.MeanSeeksPerMovie < 0 || v.MeanDistanceFrac <= 0 ||
			v.ForwardProb < 0 || v.ForwardProb > 1 {
			return fmt.Errorf("core: invalid VCR config %+v", *v)
		}
		if v.Skim && (v.SkimStrideBlocks < 1 || v.SkimSegmentFrames < 1) {
			return fmt.Errorf("core: skim needs positive stride and segment length")
		}
	}
	return nil
}
