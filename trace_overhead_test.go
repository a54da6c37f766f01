// The observability layer's two contracts with the simulator (see
// OBSERVABILITY.md): enabling tracing never changes what the simulation
// computes, and leaving it disabled costs less than 2% of a run.
//
// The overhead bound is checked analytically rather than by wall-clock
// A/B (which flakes on loaded CI machines): with tracing disabled every
// instrumentation point is exactly one nil-receiver method call, so the
// disabled-path cost of a run is (emit count) x (nil-emit cost). The
// emit count comes from a traced run of the same configuration, the
// nil-emit cost from a measured loop, and their product must stay under
// 2% of the untraced run's wall time. Both timings are the minimum over
// a few interleaved repetitions, so a burst of load on the host inflates
// neither into the verdict.
package spiffi_test

import (
	"reflect"
	"testing"
	"time"

	"spiffi"
	"spiffi/internal/trace"
)

// nilRec lives at package scope so the compiler cannot specialize the
// measured loop on a provably nil receiver.
var nilRec *trace.Recorder

// overheadReps is how many times the untraced run and the nil-emit loop
// are each timed, alternately; the minimum of each is kept.
const overheadReps = 5

func TestTracingNeutralityAndOverhead(t *testing.T) {
	cfg := fastConfig(12)

	// Traced run first: it also warms the shared MPEG library cache, so
	// the untraced timing below measures simulation, not generation.
	cfg.Trace = spiffi.TraceOptions{Enabled: true}
	traced, err := spiffi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("tracing enabled but Metrics.Trace is nil")
	}
	if traced.Trace.Total == 0 {
		t.Fatal("tracing enabled but no events were recorded")
	}

	emits := traced.Trace.Total
	traced.Trace = nil

	cfg.Trace = spiffi.TraceOptions{}
	const iters = 1 << 22
	var elapsed time.Duration
	perEmit := 0.0
	for rep := 0; rep < overheadReps; rep++ {
		start := time.Now()
		plain, err := spiffi.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); rep == 0 || d < elapsed {
			elapsed = d
		}
		if plain.Trace != nil {
			t.Fatal("tracing disabled but Metrics.Trace is non-nil")
		}
		// Neutrality: the recorder schedules no events and draws no
		// random numbers, so every other metric must match exactly.
		if !reflect.DeepEqual(traced, plain) {
			t.Fatalf("tracing perturbed the simulation:\ntraced:   %+v\nuntraced: %+v", traced, plain)
		}

		// The nil-emit cost, scaled by the emit count below.
		lap := time.Now()
		for i := 0; i < iters; i++ {
			nilRec.DiskDispatch(1, 2, 3, false, 4)
		}
		if ns := float64(time.Since(lap).Nanoseconds()) / iters; rep == 0 || ns < perEmit {
			perEmit = ns
		}
	}
	overheadNs := float64(emits) * perEmit
	budgetNs := 0.02 * float64(elapsed.Nanoseconds())
	t.Logf("disabled-path cost: %d emits x %.2f ns = %.0f µs against a %.0f µs budget (2%% of %v)",
		emits, perEmit, overheadNs/1e3, budgetNs/1e3, elapsed)
	if overheadNs >= budgetNs {
		t.Errorf("disabled tracing costs %.0f µs, over the 2%% budget of %.0f µs",
			overheadNs/1e3, budgetNs/1e3)
	}
}
