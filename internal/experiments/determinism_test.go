package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// updateGolden rewrites goldenPath from this run instead of checking it:
// go test ./internal/experiments/ -run DeterminismAcrossWorkers -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run")

// goldenPath pins, per registry id, the SHA-256 of the workers=1
// canonical Result JSON that TestDeterminismAcrossWorkers builds.
const goldenPath = "testdata/golden.json"

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	g := map[string]string{}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

func writeGolden(t *testing.T, g map[string]string) {
	t.Helper()
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// digest is the SHA-256 of an experiment's result blobs, in order.
func digest(blobs [][]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// detFidelity is the determinism suite's fidelity: bench simulation
// parameters (video length, windows, step, seeds) with trimmed sweep
// lists. Sweep points are independent (config, seed) searches, so one
// or two points per sweep exercise the parallel machinery as thoroughly
// as the full list at a fraction of the wall-clock cost.
func detFidelity() Fidelity {
	f := Bench()
	f.MemoryPointsMB = []int64{512}
	f.StripePointsKB = []int64{256, 512}
	f.ScaleFactors = []int{1, 2}
	return f
}

// runWorkers executes one experiment id with the given worker count and
// returns the results plus their canonical JSON with the execution
// provenance (workers, wall-clock) zeroed — the only fields allowed to
// differ across worker counts.
func runWorkers(t *testing.T, id string, f Fidelity, workers int) ([]Result, [][]byte) {
	t.Helper()
	f.Workers = workers
	f.run = nil
	results, err := Run(id, f)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	blobs := make([][]byte, len(results))
	for i, r := range results {
		if r.Workers != workers {
			t.Fatalf("%s: result stamped workers=%d, ran with %d", id, r.Workers, workers)
		}
		r.Workers = 0
		r.WallClock = 0
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}
	return results, blobs
}

// diffBlobs fails the test if the two JSON renderings differ.
func diffBlobs(t *testing.T, id string, seq, par [][]byte) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: result count differs: %d vs %d", id, len(seq), len(par))
	}
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Errorf("%s result %d differs between workers=1 and workers=8:\n--- workers=1:\n%s\n--- workers=8:\n%s",
				id, i, seq[i], par[i])
		}
	}
}

// Every registered experiment must produce byte-identical Result JSON
// whatever the worker count: parallelism changes execution order and
// adds speculative evaluations, but never the data. The workers=1 JSON
// must also match its pinned digest in goldenPath, so a change that
// moves any experiment's numbers fails here.
func TestDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; fig09 coverage stays via TestDeterminismFig09Parallel")
	}
	golden := loadGolden(t)
	if *updateGolden {
		defer writeGolden(t, golden)
	}
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			results, seq := runWorkers(t, id, detFidelity(), 1)
			for _, r := range results {
				seen[r.ID] = true
			}
			_, par := runWorkers(t, id, detFidelity(), 8)
			diffBlobs(t, id, seq, par)
			got := digest(seq)
			if *updateGolden {
				golden[id] = got
			} else if want, ok := golden[id]; !ok {
				t.Errorf("%s: no entry in %s (regenerate with -update-golden)", id, goldenPath)
			} else if got != want {
				t.Errorf("%s: workers=1 JSON digest %.12s, want %.12s", id, got, want)
			}
		})
	}
}

// The cheap always-on slice of the suite: fig09 (a full search plus the
// glitch curve) at the full bench fidelity, multi-worker vs sequential.
// Not skipped under -short so the race-detector pass exercises the
// parallel runner end to end through an experiment harness.
func TestDeterminismFig09Parallel(t *testing.T) {
	_, seq := runWorkers(t, "fig09", Bench(), 1)
	_, par := runWorkers(t, "fig09", Bench(), 8)
	diffBlobs(t, "fig09", seq, par)
}
