package core

import (
	"runtime"
	"testing"

	"spiffi/internal/sim"
)

// allocsPerRequestBudget bounds the heap objects a run allocates per
// block request handled: the request itself plus amortized page, buffer
// and map growth. A per-hop closure or a per-request process would each
// add about one.
const allocsPerRequestBudget = 4

// TestRunAllocationsPerRequest runs a small 2-node system and divides the
// heap objects Run allocates by the block requests the nodes handled.
func TestRunAllocationsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := DefaultConfig(24)
	cfg.Nodes = 2
	cfg.DisksPerNode = 2
	cfg.VideosPerDisk = 4
	cfg.Video.Length = 2 * sim.Minute
	cfg.ServerMemBytes = 64 * MB
	cfg.StartWindow = 10 * sim.Second
	cfg.MeasureTime = 60 * sim.Second
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var requests int64
	for _, n := range s.nodes {
		requests += n.Stats().Requests
	}
	if requests < 1000 {
		t.Fatalf("only %d requests handled; the run is too small to amortize set-up", requests)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(requests)
	t.Logf("%d requests, %.2f allocs per request", requests, per)
	if per > allocsPerRequestBudget {
		t.Fatalf("%.2f allocs per block request, budget %d", per, allocsPerRequestBudget)
	}
}
