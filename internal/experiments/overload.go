package experiments

import (
	"fmt"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// Overload is the adaptive overload-control experiment: a mirrored
// system offered 25% more streams than its fault-free glitch-free
// capacity, swept over disk fail-stop rates, under three control
// policies — none (every stream admitted), a static admission limit at
// the fault-free capacity, and the adaptive controller (measurement-
// based limit, load shedding, rate-limited mirror rebuild). The metric
// is glitches suffered by the protected half of the terminals: the
// viewers the operator promised quality to. Static admission protects
// them while the hardware is healthy but keeps admitting to a capacity
// the system no longer has once disks start failing; the adaptive
// controller sheds the unprotected half and tightens the limit as
// measured slack collapses, so protected-stream quality degrades far
// less.
//
// Two scripted probes quantify the mirror rebuild's window of
// vulnerability: after a repaired disk rejoins, a second failure of its
// neighbor during the rebuild loses blocks (both copies unavailable:
// one stale, one dead), while the same failure after the rebuild
// completes loses nothing.
func Overload(f Fidelity) (Result, error) {
	res := Result{
		ID:     "overload",
		Title:  "Adaptive overload control under disk fail-stops",
		XLabel: "disk fail-stops per disk-hour",
		YLabel: "protected-stream glitches",
	}

	// The fault-free mirrored capacity anchors both the admission limit
	// and the offered load (25% above it, so admission always matters).
	f = f.withPool()
	capCfg := base()
	capCfg.ReplicateVideos = true
	r, err := f.search(capCfg, 0, 0)
	if err != nil {
		return res, fmt.Errorf("capacity search: %w", err)
	}
	limit := r.MaxTerminals
	offered := limit + max(limit/4, 1)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fault-free mirrored capacity %d, offered load %d, admission limit %d", limit, offered, limit))

	rates := []float64{0, 1, 2}
	const repair = 30 * sim.Second
	variants := []variant{
		// ProtectedFraction alone is pure accounting: it defines which
		// terminals GlitchesProtected counts, arming nothing, so all
		// three variants report over the same protected set.
		{"none", func(c *core.Config) {
			c.Overload.ProtectedFraction = 0.5
		}},
		{"static", func(c *core.Config) {
			c.Overload.AdmitLimit = limit
			c.Overload.ProtectedFraction = 0.5
		}},
		{"adaptive", func(c *core.Config) {
			c.Overload.AdmitLimit = limit
			c.Overload.Adaptive = true
			c.Overload.Shed = true
			c.Overload.RebuildRate = 16 * core.MB
		}},
	}

	ms, err := grid(f, len(variants), len(rates), func(f Fidelity, vi, ri int) (core.Metrics, error) {
		cfg := f.apply(base())
		cfg.Terminals = offered
		cfg.ReplicateVideos = true
		cfg.Faults.DiskFailRate = rates[ri]
		cfg.Faults.DiskRepairTime = repair
		variants[vi].apply(&cfg)
		return f.run.Run(cfg)
	})
	if err != nil {
		return res, err
	}
	for vi, v := range variants {
		s := Series{Name: v.name}
		for ri, rate := range rates {
			m := ms[vi][ri]
			s.Points = append(s.Points, Point{X: rate, Y: float64(m.GlitchesProtected)})
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s rate=%.0f: protected glitches %d (all %d), admitted=%d waited=%d rejected=%d, limit min %d, sheds=%d restores=%d peak=%d, degraded blocks=%d, rebuilt=%d stalenacks=%d",
				v.name, rate, m.GlitchesProtected, m.Glitches,
				m.Admitted, m.AdmWaited, m.AdmRejected, m.AdmLimitMin,
				m.Sheds, m.Restores, m.ShedPeak, m.DegradedBlocks,
				m.RebuiltBlocks, m.StaleNacks))
		}
		res.Series = append(res.Series, s)
	}

	// Redundancy-window probes: second fail-stop during vs. after the
	// neighbor's rebuild.
	during, err := RebuildProbe(true)
	if err != nil {
		return res, fmt.Errorf("rebuild probe (during): %w", err)
	}
	after, err := RebuildProbe(false)
	if err != nil {
		return res, fmt.Errorf("rebuild probe (after): %w", err)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("rebuild probe, 2nd failure during window: lost=%d stalenacks=%d rebuilt=%d windows=%d",
			during.LostBlocks, during.StaleNacks, during.RebuiltBlocks, during.RebuildWindows),
		fmt.Sprintf("rebuild probe, 2nd failure after window: lost=%d window avg=%v rebuilt=%d windows=%d",
			after.LostBlocks, after.RebuildWindowAvg, after.RebuiltBlocks, after.RebuildWindows))
	return res, nil
}

// RebuildProbe runs the scripted window-of-vulnerability scenario on a
// small mirrored system: disk 0 fail-stops at t=30s and repairs 5s
// later, starting a paced rebuild of its (now stale) contents. The
// second failure hits disk 1 — where disk 0's primaries keep their
// replicas — either during the rebuild (both copies of those blocks
// unavailable: blocks are lost) or well after it (the redundancy window
// has closed: nothing is lost). Exported so the core test suite asserts
// both outcomes.
func RebuildProbe(duringWindow bool) (core.Metrics, error) {
	cfg := core.DefaultConfig(8)
	cfg.Nodes = 2
	cfg.DisksPerNode = 2
	cfg.VideosPerDisk = 1
	cfg.Video.Length = sim.Minute
	cfg.ServerMemBytes = 16 * core.MB
	cfg.StartWindow = 10 * sim.Second
	cfg.MeasureTime = 80 * sim.Second
	cfg.StartupGrace = 5 * sim.Minute
	cfg.ReplicateVideos = true
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 50 * sim.Millisecond
	cfg.Overload.RebuildRate = 16 * core.MB
	s, err := core.NewSimulation(cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 5*sim.Second)
	second := sim.Time(75 * sim.Second) // after the window closes
	if duringWindow {
		second = sim.Time(37 * sim.Second) // mid-rebuild
	}
	s.ScheduleDiskFailStop(1, second, 5*sim.Second)
	return s.Run()
}
