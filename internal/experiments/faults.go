package experiments

import (
	"fmt"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// Faults is the fault-injection experiment: how many glitch-free
// terminals the system sustains as the disk fail-stop rate rises, with
// and without a declustered replica of every video. A mirrored layout
// lets the terminals' retry machinery route around a dead disk, so its
// capacity should degrade far more gracefully than the no-replica
// layout, where every fail-stop leaves unreadable blocks until repair.
//
// Besides the capacity curve, each nonzero fault rate also runs one
// probe at that layout's fault-free maximum and reports its degraded-
// mode accounting (per-cause glitches, NACKs, retries, timeouts, mean
// time to recover) in the notes — the per-viewer cost of operating a
// faulty system at full load.
func Faults(f Fidelity) (Result, error) {
	res := Result{
		ID:     "faults",
		Title:  "Degraded-mode capacity under disk fail-stops",
		XLabel: "disk fail-stops per disk-hour",
		YLabel: "max glitch-free terminals",
	}
	rates := []float64{0, 0.5, 1, 2}
	const repair = 30 * sim.Second
	vs := []variant{
		{"no-replica", func(c *core.Config) {}},
		{"mirrored", func(c *core.Config) { c.ReplicateVideos = true }},
	}
	point := func(i int) core.Config {
		cfg := base()
		cfg.Faults.DiskFailRate = rates[i]
		cfg.Faults.DiskRepairTime = repair
		return cfg
	}
	series, rs, err := sweep(f, vs, rates, point)
	if err != nil {
		return res, err
	}
	res.Series = series

	// Probe each faulty cell's degraded accounting at its layout's
	// fault-free maximum (rates[0] is fault-free).
	notes, err := grid(f, len(vs), len(rates), func(f Fidelity, v, i int) (string, error) {
		baseline := rs[v][0].MaxTerminals
		if rates[i] == 0 || baseline == 0 {
			return "", nil
		}
		probe := point(i)
		vs[v].apply(&probe)
		probe = f.apply(probe)
		probe.Terminals = baseline
		m, err := f.run.Run(probe)
		if err != nil {
			return "", fmt.Errorf("%s rate=%.1f probe: %w", vs[v].name, rates[i], err)
		}
		return fmt.Sprintf(
			"%s rate=%.1f probe@%d: glitches underrun/diskfail/timeout = %d/%d/%d, nacks=%d retries=%d timeouts=%d lost=%d, failstops=%d, mttr avg/max = %v/%v",
			vs[v].name, rates[i], baseline,
			m.GlitchesUnderrun, m.GlitchesDiskFail, m.GlitchesTimeout,
			m.Nacks, m.Retries, m.Timeouts, m.LostBlocks,
			m.DiskFailStops, m.MTTRAvg, m.MTTRMax), nil
	})
	if err != nil {
		return res, err
	}
	for _, row := range notes {
		for _, n := range row {
			if n != "" {
				res.Notes = append(res.Notes, n)
			}
		}
	}
	return res, nil
}
