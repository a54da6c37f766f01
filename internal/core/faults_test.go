package core_test

import (
	"reflect"
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// faultyConfig is the tiny system with every fault class enabled at
// rates high enough to fire several times inside the one-minute window.
func faultyConfig(terminals int) core.Config {
	cfg := tinyConfig(terminals)
	cfg.Faults.DiskSlowRate = 30 // per disk-hour
	cfg.Faults.DiskFailRate = 60
	cfg.Faults.DiskRepairTime = 5 * sim.Second
	cfg.Faults.NodeCrashRate = 30
	cfg.Faults.NodeRestartTime = 4 * sim.Second
	cfg.Faults.NetLossProb = 0.01
	cfg.Faults.NetJitterMax = 2 * sim.Millisecond
	cfg.ReplicateVideos = true
	return cfg
}

// A seeded run with nonzero fault rates must be bit-for-bit
// reproducible: every metric, including the kernel event count.
func TestFaultRunDeterministic(t *testing.T) {
	run := func() core.Metrics {
		m, err := core.Run(faultyConfig(24))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical faulty seeds diverged:\n%+v\n%+v", a, b)
	}
	if !a.FaultsSeen() {
		t.Fatalf("fault config injected nothing: %+v", a)
	}
}

// Arming the retry machinery without any faults must not change what
// the system does — only add (never-firing) timers. Simulated results
// are identical to the bare run except for the kernel event count.
func TestRetryMachineryIdleWithoutFaults(t *testing.T) {
	bare, err := core.Run(tinyConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(24)
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 100 * sim.Millisecond
	armed, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Retries != 0 || armed.Timeouts != 0 || armed.Nacks != 0 || armed.LostBlocks != 0 {
		t.Fatalf("retry machinery fired without faults: %+v", armed)
	}
	// The timers add kernel events but must not perturb the simulation.
	armed.Events = bare.Events
	if !reflect.DeepEqual(bare, armed) {
		t.Fatalf("idle retry machinery changed results:\n%+v\n%+v", bare, armed)
	}
}

// A scripted fail-stop of one disk mid-window, with no replica: the
// NACK/retry path runs and gives up, every loss is attributed to the
// disk failure, and the repair restores service (nonzero downtime).
func TestScriptedDiskFailStop(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 50 * sim.Millisecond
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 10*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("never started")
	}
	if m.DiskFailStops != 1 {
		t.Fatalf("fail-stops = %d, want 1", m.DiskFailStops)
	}
	if m.Nacks == 0 || m.Retries == 0 {
		t.Fatalf("dead disk produced no NACK/retry traffic: %+v", m)
	}
	if m.LostBlocks == 0 || m.GlitchesDiskFail == 0 {
		t.Fatalf("unmirrored failure lost nothing: lost=%d glitches=%d", m.LostBlocks, m.GlitchesDiskFail)
	}
	if m.GlitchesTimeout != 0 {
		t.Fatalf("NACKs misattributed to timeouts: %d", m.GlitchesTimeout)
	}
	if m.DiskDownTime < 9*sim.Second || m.DiskDownTime > 11*sim.Second {
		t.Fatalf("downtime = %v, want ~10s", m.DiskDownTime)
	}
}

// The same failure with a mirrored layout: retries fail over to the
// replica disk, so the viewer loses nothing.
func TestMirroredFailoverMasksDiskFailure(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.ReplicateVideos = true
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 50 * sim.Millisecond
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 10*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Nacks == 0 || m.Retries == 0 {
		t.Fatalf("no failover traffic: %+v", m)
	}
	if m.LostBlocks != 0 {
		t.Fatalf("mirrored layout lost %d blocks", m.LostBlocks)
	}
	if m.Glitches != 0 {
		t.Fatalf("mirrored failover glitched %d times", m.Glitches)
	}
}

// A scripted node crash: requests are dropped silently, terminals ride
// timeouts to retries, and the node's disks recover with it.
func TestScriptedNodeCrash(t *testing.T) {
	cfg := tinyConfig(24)
	cfg.ReplicateVideos = true
	cfg.RequestTimeout = 500 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 50 * sim.Millisecond
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleNodeCrash(0, sim.Time(30*sim.Second), 5*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", m.Nodes.Crashes)
	}
	if m.Nodes.Dropped == 0 {
		t.Fatal("dead node dropped no requests")
	}
	if m.Timeouts == 0 || m.Retries == 0 {
		t.Fatalf("silence produced no timeouts/retries: %+v", m)
	}
	if m.Nacks != 0 {
		t.Fatalf("a dead node must be silent, got %d NACKs", m.Nacks)
	}
	// Both local disks fail-stop with the node and repair with it.
	if m.DiskFailStops != 2 {
		t.Fatalf("fail-stops = %d, want 2 (both local disks)", m.DiskFailStops)
	}
	if m.DiskDownTime < 9*sim.Second || m.DiskDownTime > 11*sim.Second {
		t.Fatalf("disk downtime = %v, want ~2x5s", m.DiskDownTime)
	}
}

// Underrun glitches during a stall record a recovery time once the
// stream resumes (mean time to recover). Lost blocks never stall — the
// frontier rides over the hole — so the stall must come from delayed,
// not lost, data: a deep transient slowdown.
func TestRecoveryTimeRecorded(t *testing.T) {
	cfg := tinyConfig(32)
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFault(0, sim.Time(30*sim.Second), 10, 20*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.GlitchesUnderrun == 0 {
		t.Fatalf("deep slowdown caused no underruns: %+v", m)
	}
	if m.Recoveries == 0 || m.MTTRAvg <= 0 || m.MTTRMax < m.MTTRAvg {
		t.Fatalf("recovery accounting broken: recoveries=%d avg=%v max=%v",
			m.Recoveries, m.MTTRAvg, m.MTTRMax)
	}
}

// Network loss alone — no disk or node faults — is healed by the retry
// machinery: timeouts and retries happen, NACKs never do.
func TestNetworkLossHealedByRetries(t *testing.T) {
	cfg := tinyConfig(16)
	cfg.Faults.NetLossProb = 0.02
	cfg.Faults.NetJitterMax = sim.Millisecond
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NetDropped == 0 {
		t.Fatal("lossy network dropped nothing")
	}
	if m.Timeouts == 0 || m.Retries == 0 {
		t.Fatalf("losses never timed out/retried: %+v", m)
	}
	if m.Nacks != 0 {
		t.Fatalf("loss produced NACKs: %d", m.Nacks)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []func(*core.Config){
		func(c *core.Config) { c.Faults.DiskFailRate = -1 },
		func(c *core.Config) { c.Faults.NetLossProb = 1.5 },
		func(c *core.Config) { c.Faults.NetJitterMax = -sim.Second },
		func(c *core.Config) { c.RequestTimeout = sim.Second; c.MaxRetries = 2; c.RetryBackoff = 0 },
		func(c *core.Config) { c.MaxRetries = -1 },
		func(c *core.Config) { c.Nodes = 1; c.DisksPerNode = 1; c.ReplicateVideos = true },
	}
	for i, mutate := range bad {
		cfg := tinyConfig(10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	// A bare fault config normalizes to a valid retry setup.
	cfg := faultyConfig(10)
	if err := cfg.Normalize().Validate(); err != nil {
		t.Fatalf("faulty config invalid after Normalize: %v", err)
	}
}
