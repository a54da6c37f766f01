package experiments

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"spiffi/internal/trace"
)

// traceBlob runs fig09 at bench fidelity with tracing enabled and
// returns every delivered trace rendered to JSONL, concatenated in
// sorted-label order. Delivery order varies with scheduling, but the
// set of (label, events) pairs must not — traces surface only through
// consumed search results, the same discipline that makes every other
// metric bit-identical across worker counts.
func traceBlob(t *testing.T, workers int) []byte {
	t.Helper()
	f := Bench()
	f.Workers = workers
	f.run = nil
	f.Trace = trace.Options{Enabled: true}
	var mu sync.Mutex
	got := map[string][]byte{}
	f.TraceSink = func(label string, d *trace.Data) {
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, d); err != nil {
			t.Errorf("WriteJSONL(%s): %v", label, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := got[label]; ok && !bytes.Equal(prev, buf.Bytes()) {
			t.Errorf("workers=%d: label %q delivered twice with different bytes", workers, label)
		}
		got[label] = buf.Bytes()
	}
	if _, err := Run("fig09", f); err != nil {
		t.Fatalf("fig09 workers=%d: %v", workers, err)
	}
	labels := make([]string, 0, len(got))
	for l := range got {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var out bytes.Buffer
	for _, l := range labels {
		out.WriteString("== " + l + " ==\n")
		out.Write(got[l])
	}
	return out.Bytes()
}

// The traced runs a search consumes — and therefore the exported JSONL
// bytes — must be identical whatever the worker count. Seed
// replications run past a count's first failure record traces too, but
// only consumed results ever reach the sink.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; trace export determinism is also covered by internal/trace tests")
	}
	seq := traceBlob(t, 1)
	par := traceBlob(t, 8)
	if len(seq) == 0 {
		t.Fatal("no traces delivered with tracing enabled")
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("trace JSONL differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(seq), len(par))
	}
}
