// Package experiments regenerates every table and figure of the SPIFFI
// paper's evaluation (§7 and §8). Each harness builds the paper's
// workload, sweeps the paper's parameter, and returns rows/series shaped
// exactly like the published plot, at a selectable fidelity.
//
// Fidelity trades wall-clock time for measurement quality. The paper's
// own runs simulate an hour of video per data point on 1995 hardware;
// Full approximates that, Quick keeps the full 16-disk system but
// shortens videos and windows, and Bench is sized for `go test -bench`.
// Shapes — who wins, by what rough factor, where the crossovers fall —
// hold at every fidelity; absolute terminal counts shift slightly with
// video length and window size.
package experiments

import (
	"fmt"

	"spiffi/internal/core"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Fidelity scales an experiment's cost.
type Fidelity struct {
	Name        string
	VideoLength sim.Duration
	MeasureTime sim.Duration
	StartWindow sim.Duration
	Step        int      // max-terminal search resolution
	Seeds       []uint64 // replications per evaluated point

	// MemoryPointsMB and StripePointsKB override the default sweep
	// points of the memory and stripe-size experiments (nil = paper's
	// full set).
	MemoryPointsMB []int64
	StripePointsKB []int64

	// ScaleFactors lists the scaleup multipliers for Table 2 (nil = the
	// paper's 1, 2, 4).
	ScaleFactors []int

	// Workers bounds how many simulations run concurrently across the
	// whole experiment: sweep cells, search probes and seed replications
	// all share the bound, so Workers 1 runs one simulation at a time
	// and exactly the sequential run set. <= 0 selects GOMAXPROCS.
	// Results are bit-identical whatever the value — see core.Runner.
	Workers int

	// Trace enables structured event tracing (internal/trace) on every
	// simulation the experiment runs. Traces ride the run's Metrics and
	// surface only through TraceSink; Result data and its JSON/CSV
	// exports never change, enabled or not.
	Trace trace.Options

	// TraceSink, when set alongside Trace.Enabled, receives the trace of
	// each *consumed* passing run at a search's maximum — the same runs
	// whose Metrics populate SearchResult.AtMax, so the delivered set of
	// (label, data) pairs is bit-identical for every worker count. The
	// label ("max<terminals>-seed<seed>") is deterministic but not
	// globally unique across a multi-point sweep; sinks that file traces
	// should key on the label and tolerate concurrent calls (grid cells
	// run concurrently, so delivery order — not content — varies
	// between runs).
	TraceSink func(label string, d *trace.Data)

	// run is the shared worker pool, created by withPool so every
	// simulation of one experiment shares a single concurrency bound.
	run *core.Runner
}

// withPool returns f with its worker pool materialized. Run and grid
// call it, as does every exported harness that simulates outside a
// grid, so nothing an experiment runs escapes the one pool.
func (f Fidelity) withPool() Fidelity {
	if f.run == nil {
		f.run = core.NewRunner(f.Workers)
	}
	return f
}

// Bench is the smallest fidelity, sized so that one experiment fits in a
// few seconds of a `go test -bench` run.
func Bench() Fidelity {
	return Fidelity{
		Name:           "bench",
		VideoLength:    6 * sim.Minute,
		MeasureTime:    45 * sim.Second,
		StartWindow:    20 * sim.Second,
		Step:           20,
		Seeds:          []uint64{1},
		MemoryPointsMB: []int64{128, 512, 2048},
		StripePointsKB: []int64{128, 512, 1024},
		ScaleFactors:   []int{1, 2},
	}
}

// Quick keeps the paper's full system but shortens videos and windows;
// an experiment takes on the order of a minute.
func Quick() Fidelity {
	return Fidelity{
		Name:           "quick",
		VideoLength:    10 * sim.Minute,
		MeasureTime:    2 * sim.Minute,
		StartWindow:    30 * sim.Second,
		Step:           10,
		Seeds:          []uint64{1},
		MemoryPointsMB: []int64{128, 256, 512, 1024, 2048, 4096},
		StripePointsKB: []int64{128, 256, 512, 1024},
		ScaleFactors:   []int{1, 2, 4},
	}
}

// Full approximates the paper's own fidelity: hour-long videos, long
// measurement windows, multi-seed replication at 5-terminal resolution.
func Full() Fidelity {
	return Fidelity{
		Name:           "full",
		VideoLength:    60 * sim.Minute,
		MeasureTime:    10 * sim.Minute,
		StartWindow:    60 * sim.Second,
		Step:           5,
		Seeds:          []uint64{1, 2, 3},
		MemoryPointsMB: []int64{128, 256, 512, 1024, 2048, 4096},
		StripePointsKB: []int64{128, 256, 512, 1024},
		ScaleFactors:   []int{1, 2, 4},
	}
}

// ByName resolves a fidelity level.
func ByName(name string) (Fidelity, bool) {
	switch name {
	case "bench":
		return Bench(), true
	case "quick":
		return Quick(), true
	case "full":
		return Full(), true
	}
	return Fidelity{}, false
}

// apply stamps the fidelity onto a configuration.
func (f Fidelity) apply(cfg core.Config) core.Config {
	cfg.Video.Length = f.VideoLength
	cfg.MeasureTime = f.MeasureTime
	cfg.StartWindow = f.StartWindow
	cfg.Trace = f.Trace
	return cfg
}

// search runs the max-terminal search at this fidelity on the shared
// worker pool, delivering the consumed at-max traces to TraceSink.
func (f Fidelity) search(cfg core.Config, hintLo, hintHi int) (core.SearchResult, error) {
	r, err := f.run.FindMaxTerminals(f.apply(cfg), core.SearchOptions{
		Lo: hintLo, Hi: hintHi, Step: f.Step, Seeds: f.Seeds,
	})
	if err == nil && f.TraceSink != nil {
		for i, m := range r.AtMax {
			if m.Trace != nil && i < len(f.Seeds) {
				f.TraceSink(fmt.Sprintf("max%d-seed%d", r.MaxTerminals, f.Seeds[i]), m.Trace)
			}
		}
	}
	return r, err
}
