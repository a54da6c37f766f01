// Package faults builds deterministic fault-injection plans for the SPIFFI
// simulation: transient disk slowdowns, fail-stop disk failures with
// optional repair, node crashes with optional restart, and network message
// loss and latency jitter.
//
// The paper's experiments assume fault-free hardware; this package probes
// the degraded-mode behavior the full system needs around that core — the
// retry/failover machinery in the terminals, NACKs from the server, and
// per-cause glitch accounting.
//
// Determinism: every fault stream is an independent derived RNG
// (rng.Source.DeriveIndexed), so a plan is a pure function of (seed,
// config, horizon) and adding fault injection never perturbs the random
// streams the fault-free simulation consumes. Event times are drawn as
// Poisson processes (exponential inter-arrivals) per component, then the
// merged plan is sorted by (time, kind, index) for a reproducible
// application order.
package faults

import (
	"fmt"
	"sort"

	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// Config parameterizes fault injection. Rates are mean events per
// component-hour (a DiskFailRate of 2 fail-stops each disk about twice an
// hour); zero disables that fault class. The zero value disables
// everything and reproduces fault-free runs bit for bit.
type Config struct {
	// Transient disk degradation: service times stretch by DiskSlowFactor
	// for an exponentially distributed duration with mean diskSlowMeanDur.
	DiskSlowRate   float64 // slowdown onsets per disk-hour
	DiskSlowFactor float64 // service-time multiplier (default 4)

	// Fail-stop disk failures: queued and in-flight requests complete with
	// an error, new submissions are rejected, and service resumes after
	// DiskRepairTime (0 = the disk never comes back).
	DiskFailRate   float64      // fail-stops per disk-hour
	DiskRepairTime sim.Duration // outage length; 0 = permanent

	// Node crashes: the node drops requests and suppresses replies while
	// down, and all its disks fail-stop, recovering together after
	// NodeRestartTime (0 = the node never comes back).
	NodeCrashRate   float64      // crashes per node-hour
	NodeRestartTime sim.Duration // outage length; 0 = permanent

	// Network faults: each message is independently dropped with
	// NetLossProb, and surviving messages gain a uniform extra latency in
	// [0, NetJitterMax).
	NetLossProb  float64      // per-message drop probability
	NetJitterMax sim.Duration // max extra per-message latency
}

// diskSlowMeanDur is the mean length of a transient disk slowdown.
const diskSlowMeanDur = 5 * sim.Second

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.DiskSlowRate > 0 || c.DiskFailRate > 0 || c.NodeCrashRate > 0 ||
		c.NetLossProb > 0 || c.NetJitterMax > 0
}

// Normalize fills defaults for enabled fault classes.
func (c *Config) Normalize() {
	if c.DiskSlowRate > 0 && c.DiskSlowFactor == 0 {
		c.DiskSlowFactor = 4
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.DiskSlowRate < 0 || c.DiskFailRate < 0 || c.NodeCrashRate < 0:
		return fmt.Errorf("faults: negative event rate")
	case c.DiskSlowRate > 0 && c.DiskSlowFactor < 1:
		return fmt.Errorf("faults: disk slow factor %g below 1", c.DiskSlowFactor)
	case c.NetLossProb < 0 || c.NetLossProb >= 1:
		return fmt.Errorf("faults: network loss probability %g outside [0,1)", c.NetLossProb)
	case c.NetJitterMax < 0 || c.DiskRepairTime < 0 || c.NodeRestartTime < 0:
		return fmt.Errorf("faults: negative duration")
	}
	return nil
}

// Kind classifies a scheduled fault event.
type Kind int

// Fault event kinds, in plan tie-break order.
const (
	KindDiskSlow Kind = iota
	KindDiskFail
	KindNodeCrash
)

func (k Kind) String() string {
	switch k {
	case KindDiskSlow:
		return "disk-slow"
	case KindDiskFail:
		return "disk-fail"
	default:
		return "node-crash"
	}
}

// Event is one scheduled fault.
type Event struct {
	At       sim.Time
	Kind     Kind
	Index    int          // global disk index (disk kinds) or node index
	Factor   float64      // service-time multiplier (KindDiskSlow only)
	Duration sim.Duration // slowdown length, repair time, or restart time
}

// NewPlan draws the fault schedule for a simulation spanning [0, horizon):
// an independent Poisson arrival stream per component per fault class,
// merged and sorted by (time, kind, index). The source is only derived
// from, never advanced, so callers' other streams are unaffected.
func NewPlan(cfg Config, nodes, disksPerNode int, horizon sim.Time, src *rng.Source) []Event {
	var plan []Event
	totalDisks := nodes * disksPerNode
	if cfg.DiskSlowRate > 0 {
		for d := 0; d < totalDisks; d++ {
			s := src.DeriveIndexed("fault-disk-slow", d)
			for _, at := range arrivals(s, cfg.DiskSlowRate, horizon) {
				plan = append(plan, Event{
					At:       at,
					Kind:     KindDiskSlow,
					Index:    d,
					Factor:   cfg.DiskSlowFactor,
					Duration: sim.DurationOfSeconds(s.Exp(diskSlowMeanDur.Seconds())),
				})
			}
		}
	}
	if cfg.DiskFailRate > 0 {
		for d := 0; d < totalDisks; d++ {
			s := src.DeriveIndexed("fault-disk-fail", d)
			for _, at := range arrivals(s, cfg.DiskFailRate, horizon) {
				plan = append(plan, Event{
					At:       at,
					Kind:     KindDiskFail,
					Index:    d,
					Duration: cfg.DiskRepairTime,
				})
			}
		}
	}
	if cfg.NodeCrashRate > 0 {
		for n := 0; n < nodes; n++ {
			s := src.DeriveIndexed("fault-node-crash", n)
			for _, at := range arrivals(s, cfg.NodeCrashRate, horizon) {
				plan = append(plan, Event{
					At:       at,
					Kind:     KindNodeCrash,
					Index:    n,
					Duration: cfg.NodeRestartTime,
				})
			}
		}
	}
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i], plan[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Index < b.Index
	})
	return plan
}

// arrivals draws Poisson event times in [0, horizon) at `rate` events per
// hour. Interleaving the duration draw with the arrival draw is fine: the
// stream is private to one (component, fault class) pair.
func arrivals(s *rng.Source, rate float64, horizon sim.Time) []sim.Time {
	meanGap := 3600.0 / rate // seconds between events
	var out []sim.Time
	t := sim.Time(0)
	for {
		t = t.Add(sim.DurationOfSeconds(s.Exp(meanGap)))
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// NetModel injects message loss and latency jitter; it implements the
// network package's Hook interface. Draws happen in Send order from a
// private derived stream, so seeded runs are reproducible.
type NetModel struct {
	lossProb float64
	jitter   sim.Duration
	src      *rng.Source
}

// NewNetModel returns a hook for the config's network faults, or nil when
// the config injects none (callers install nil as "no hook").
func NewNetModel(cfg Config, src *rng.Source) *NetModel {
	if cfg.NetLossProb <= 0 && cfg.NetJitterMax <= 0 {
		return nil
	}
	return &NetModel{
		lossProb: cfg.NetLossProb,
		jitter:   cfg.NetJitterMax,
		src:      src.Derive("fault-net"),
	}
}

// Mangle implements network.Hook.
func (m *NetModel) Mangle(int64) (drop bool, extra sim.Duration) {
	if m.lossProb > 0 && m.src.Float64() < m.lossProb {
		return true, 0
	}
	if m.jitter > 0 {
		extra = sim.Duration(m.src.Float64() * float64(m.jitter))
	}
	return false, extra
}
