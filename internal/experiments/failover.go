package experiments

import (
	"fmt"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// Failover is the node-failover experiment: a mirrored system running at
// 80% of its admitted capacity loses 1 of its N nodes mid-measurement,
// swept over node restart times (0 = the node never comes back), under
// three policies — cross-node mirroring with failover, cross-node
// mirroring with failover disabled (sessions keep hammering the dead
// primary and survive only on per-retry copy rotation), and intra-node
// chained mirroring with failover (the mirror of a dead node's disk
// lives on the same dead node, so redirection has nowhere useful to go
// until the node restarts). The metric is the fraction of impacted
// sessions — sessions a timeout caught talking to the dead node — that
// recover, i.e. resume first-attempt fetches of the dead node's blocks.
//
// Cross-node + failover recovers essentially everything at every
// restart time, including never: the per-local-slot rotation spreads the
// dead node's load across all survivors and the failover-priority
// re-admission keeps the survivors from starving migrants. Without
// failover, sessions recover only once the node itself restarts; with
// intra-node mirroring, redirection is useless for a whole-node crash
// and the restart time is all that matters.
func Failover(f Fidelity) (Result, error) {
	res := Result{
		ID:     "failover",
		Title:  "Node failover and session continuity after a node crash",
		XLabel: "node restart delay (seconds; 0 = never restarts)",
		YLabel: "impacted sessions recovered (%)",
	}

	// The paper's 16 disks, spread wide: 8 thin nodes instead of 4 fat
	// ones, so one crash takes out 12.5% of capacity and the 80% offered
	// load leaves the survivors headroom to absorb the redirected
	// streams. (Losing 1 of 4 nodes at 80% load puts the survivors at
	// ~107% — past saturation, where no redirection policy can win.)
	shape := func(c *core.Config) {
		c.Nodes = 8
		c.DisksPerNode = 2
	}

	// The fault-free mirrored capacity anchors the admission limit; the
	// run is offered 80% of it.
	f = f.withPool()
	capCfg := base()
	shape(&capCfg)
	capCfg.ReplicateVideos = true
	r, err := f.search(capCfg, 0, 0)
	if err != nil {
		return res, fmt.Errorf("capacity search: %w", err)
	}
	limit := r.MaxTerminals
	offered := max(limit*4/5, 1)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fault-free mirrored capacity %d, offered load %d (80%%), admission limit %d",
		limit, offered, limit))

	// The crash lands a quarter into the measurement window; restarts are
	// swept from never through half the window.
	crashAt := sim.Time(0).Add(f.StartWindow).Add(f.MeasureTime / 4)
	restarts := []sim.Duration{0, f.MeasureTime / 4, f.MeasureTime / 2}

	variants := []variant{
		{"cross-node + failover", func(c *core.Config) {
			c.MirrorCrossNode = true
			c.Failover = true
		}},
		// SuspectThreshold alone arms the watchdog accounting (impacted /
		// recovered / lost) without redirection or re-admission.
		{"cross-node, no failover", func(c *core.Config) {
			c.MirrorCrossNode = true
			c.SuspectThreshold = 2
		}},
		{"intra-node + failover", func(c *core.Config) {
			c.Failover = true
		}},
	}

	ms, err := grid(f, len(variants), len(restarts), func(f Fidelity, vi, ri int) (core.Metrics, error) {
		cfg := f.apply(base())
		shape(&cfg)
		cfg.Terminals = offered
		cfg.ReplicateVideos = true
		cfg.Overload.AdmitLimit = limit
		cfg.Overload.Adaptive = true
		cfg.Overload.Shed = true
		cfg.Overload.RebuildRate = 16 * core.MB
		variants[vi].apply(&cfg)
		return f.run.RunScript(cfg, func(s *core.Simulation) {
			s.ScheduleNodeCrash(1, crashAt, restarts[ri])
		})
	})
	if err != nil {
		return res, err
	}

	for vi, v := range variants {
		s := Series{Name: v.name}
		for ri, restart := range restarts {
			m := ms[vi][ri]
			recovered := 100.0
			if m.SessionsImpacted > 0 {
				recovered = 100 * float64(m.SessionsRecovered) / float64(m.SessionsImpacted)
			}
			s.Points = append(s.Points, Point{X: restart.Seconds(), Y: recovered})
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s restart=%v: impacted=%d recovered=%d lost=%d, failover lat avg/max=%v/%v, redirects=%d readmits=%d (rejected=%d), drops req/reply=%d/%d, protected glitches=%d",
				v.name, restart, m.SessionsImpacted, m.SessionsRecovered, m.SessionsLost,
				m.FailoverLatAvg, m.FailoverLatMax,
				m.FailoverRedirects, m.FailoverReadmits, m.FailoverRejected,
				m.Nodes.DroppedReqs, m.Nodes.DroppedReplies, m.GlitchesProtected))
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// FailoverProbe runs the scripted crashed-node scenario the test suite
// asserts against: a small 2-node mirrored system whose node 1 crashes
// at t=30s and restarts after `restart` (<= 0: never). With cross-node
// mirroring and failover, every session the crash impacts re-resolves to
// node 0's mirror copies and recovers; with failover disabled and no
// restart, the same sessions end the run lost. Exported so the core test
// suite asserts both outcomes.
func FailoverProbe(crossNode, failover bool, restart sim.Duration) (core.Metrics, error) {
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
	cfg.MirrorCrossNode = crossNode
	cfg.Failover = failover
	cfg.SuspectThreshold = 2
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 50 * sim.Millisecond
	cfg.Overload.AdmitLimit = 12
	cfg.Overload.RebuildRate = 16 * core.MB
	s, err := core.NewSimulation(cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	s.ScheduleNodeCrash(1, sim.Time(30*sim.Second), restart)
	return s.Run()
}
