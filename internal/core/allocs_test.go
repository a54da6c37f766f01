package core

import (
	"runtime"
	"testing"

	"spiffi/internal/cache"
	"spiffi/internal/sim"
)

// allocsPerMessageBudget bounds the heap objects a run allocates per
// block message: each block request a node handles and each block a
// merged stream forwards. A recycled request and a pooled page cost
// nothing once the run is warm, so what remains is set-up, map growth
// and movie starts, amortized. One allocation per request, per forward
// or per page would each exceed it.
const allocsPerMessageBudget = 0.3

// TestRunAllocationsPerRequest runs small 2-node systems and divides the
// heap objects Run allocates by the block messages the run carried.
func TestRunAllocationsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	steady := DefaultConfig(24)
	steady.Nodes = 2
	steady.DisksPerNode = 2
	steady.VideosPerDisk = 4
	steady.Video.Length = 2 * sim.Minute
	steady.ServerMemBytes = 64 * MB
	steady.StartWindow = 10 * sim.Second
	steady.MeasureTime = 60 * sim.Second

	// churn restarts short videos from block 0 through a prefix cache,
	// so viewers merge onto each other's streams and a good share of
	// the blocks arrive as forwards.
	churn := DefaultConfig(64)
	churn.Nodes = 2
	churn.DisksPerNode = 2
	churn.VideosPerDisk = 2
	churn.Video.Length = 90 * sim.Second
	churn.ServerMemBytes = 96 * MB
	churn.TerminalMemBytes = 16 * MB
	churn.RandomInitialPosition = false
	churn.ZipfZ = 1.5
	churn.StartWindow = 90 * sim.Second
	churn.MeasureTime = 45 * sim.Second
	churn.Cache = cache.Config{BudgetBytes: 32 * MB, Policy: cache.PolicyZipfRank, PrefixBlocks: 16}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"steady", steady}, {"churn", churn}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSimulation(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			var requests, forwards int64
			for _, n := range s.nodes {
				requests += n.Stats().Requests
			}
			if s.merge != nil {
				forwards = s.merge.MergedBlocks
			}
			if requests < 1000 {
				t.Fatalf("only %d requests handled; the run is too small to amortize set-up", requests)
			}
			if tc.cfg.Cache.Enabled() && forwards < requests/10 {
				t.Fatalf("only %d forwards for %d requests; the run barely merges", forwards, requests)
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(requests+forwards)
			t.Logf("%d requests, %d forwards, %.3f allocs per message", requests, forwards, per)
			if per > allocsPerMessageBudget {
				t.Fatalf("%.3f allocs per block message, budget %.2f", per, allocsPerMessageBudget)
			}
		})
	}
}
