package core_test

import (
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/sim"
	"spiffi/internal/workload"
)

// A glitch during warm-up belongs to its workload phase but not to the
// measurement window: the phase and the window are differences of the
// same lifetime counters over different spans.
func TestWarmupGlitchInPhaseNotWindow(t *testing.T) {
	cfg := tinyConfig(12)
	cfg.StartWindow = 20 * sim.Second
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 50 * sim.Millisecond
	spec, err := workload.ParseSpec("all:*")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = spec
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Down and repaired well before the last terminal starts at ~20 s.
	s.ScheduleDiskFailStop(0, sim.Time(8*sim.Second), 4*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started || m.MeasureStart < sim.Time(12*sim.Second) {
		t.Fatalf("window opened at %v, want after the repair at 12s", m.MeasureStart)
	}
	if len(m.PhaseStats) != 1 {
		t.Fatalf("want one phase segment, got %+v", m.PhaseStats)
	}
	ps := m.PhaseStats[0]
	if ps.GlitchesDiskFail == 0 || ps.Glitches < ps.GlitchesDiskFail {
		t.Fatalf("warm-up disk-fail glitches missing from the phase: %+v", ps)
	}
	if m.GlitchesDiskFail != 0 || m.DiskFailStops != 0 || m.DiskDownTime != 0 {
		t.Fatalf("warm-up outage leaked into the window: glitches=%d failstops=%d downtime=%v",
			m.GlitchesDiskFail, m.DiskFailStops, m.DiskDownTime)
	}
	if m.Glitches > ps.Glitches-ps.GlitchesDiskFail {
		t.Fatalf("window glitches %d exceed the phase's non-warm-up share", m.Glitches)
	}
}

// A disk that is mid-access when the window opens contributes only the
// in-window part of that access. Every terminal watches the one video
// on disk 0, so that disk never idles: its in-window busy time is the
// whole window, exactly, and its utilization exactly 1.
func TestDiskBusyAtWindowOpenCountsInWindowOnly(t *testing.T) {
	cfg := tinyConfig(40)
	cfg.Striped = false
	cfg.ZipfZ = 8
	m, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("never started")
	}
	if m.DiskUtilMax != 1 {
		t.Fatalf("saturated disk utilization = %v, want exactly 1", m.DiskUtilMax)
	}
	if m.DiskUtilMin >= 1 {
		t.Fatalf("every disk saturated (min util %v); the skew did not isolate one", m.DiskUtilMin)
	}
}
