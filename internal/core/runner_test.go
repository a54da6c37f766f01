package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// searchOpts brackets the tiny system's ~40-60 terminal capacity tightly
// enough that a search costs a handful of runs.
func searchOpts() core.SearchOptions {
	return core.SearchOptions{Lo: 10, Hi: 160, Step: 10, Seeds: []uint64{1, 2}}
}

// tracedSearch runs one search capturing its trace lines, and strips the
// worker-dependent TotalRuns so results can be compared directly.
func tracedSearch(t *testing.T, workers int, opt core.SearchOptions) (core.SearchResult, []string) {
	t.Helper()
	var lines []string
	opt.Trace = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	res, err := core.NewRunner(workers).FindMaxTerminals(tinyConfig(1), opt)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if res.TotalRuns < res.Runs {
		t.Fatalf("workers=%d: TotalRuns=%d < consumed Runs=%d", workers, res.TotalRuns, res.Runs)
	}
	if workers == 1 && res.TotalRuns != res.Runs {
		t.Fatalf("1-worker search ran unconsumed seeds: TotalRuns=%d Runs=%d", res.TotalRuns, res.Runs)
	}
	if workers > 1 {
		// A parallel search runs every seed of each count it visits and
		// no other count.
		counts := map[string]bool{}
		for _, line := range lines {
			counts[strings.Fields(line)[1]] = true
		}
		if want := len(opt.Seeds) * len(counts); res.TotalRuns != want {
			t.Fatalf("workers=%d: TotalRuns=%d, want %d seeds x %d visited counts",
				workers, res.TotalRuns, len(opt.Seeds), len(counts))
		}
	}
	res.TotalRuns = 0
	return res, lines
}

// The parallel search must be bit-identical to sequential execution:
// same MaxTerminals, same AtMax metrics, same consumed-run count, and
// the same trace lines in the same order, whatever the worker count.
func TestSearchParityAcrossWorkers(t *testing.T) {
	seqRes, seqTrace := tracedSearch(t, 1, searchOpts())
	if seqRes.MaxTerminals == 0 {
		t.Fatal("tiny system found no capacity; bracket is wrong")
	}
	for _, workers := range []int{2, 8} {
		res, trace := tracedSearch(t, workers, searchOpts())
		if !reflect.DeepEqual(res, seqRes) {
			t.Errorf("workers=%d diverged:\nseq: %+v\npar: %+v", workers, seqRes, res)
		}
		if !reflect.DeepEqual(trace, seqTrace) {
			t.Errorf("workers=%d trace diverged:\nseq: %q\npar: %q", workers, seqTrace, trace)
		}
	}
}

// Same parity through the scan-down phase (lower bound already
// glitching), which steps down instead of doubling.
func TestSearchParityScanDown(t *testing.T) {
	opt := searchOpts()
	opt.Lo = 150 // far above capacity: Lo itself fails
	seqRes, seqTrace := tracedSearch(t, 1, opt)
	res, trace := tracedSearch(t, 8, opt)
	if !reflect.DeepEqual(res, seqRes) {
		t.Errorf("scan-down diverged:\nseq: %+v\npar: %+v", seqRes, res)
	}
	if !reflect.DeepEqual(trace, seqTrace) {
		t.Errorf("scan-down trace diverged:\nseq: %q\npar: %q", seqTrace, trace)
	}
}

// GlitchCurve results are keyed to terminal counts, never completion
// order, so the curve must match sequential exactly.
func TestGlitchCurveParityAcrossWorkers(t *testing.T) {
	counts := []int{10, 30, 60, 90, 120}
	seq, err := core.NewRunner(1).GlitchCurve(tinyConfig(1), counts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.NewRunner(8).GlitchCurve(tinyConfig(1), counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("glitch curves diverged:\nseq: %v\npar: %v", seq, par)
	}
}

// The §7.1 stopping rule scans per-seed maxima in seed order, so the
// interval and the raw maxima must not depend on the worker count.
func TestConfidentMaxParityAcrossWorkers(t *testing.T) {
	opt := searchOpts()
	opt.Seeds = nil // ConfidentMax assigns one seed per search
	run := func(workers int) (iv interface{}, raw []int) {
		i, r, err := core.NewRunner(workers).ConfidentMax(tinyConfig(1), opt, 0.90, 0.5, 2, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return i, r
	}
	seqIv, seqRaw := run(1)
	parIv, parRaw := run(8)
	if !reflect.DeepEqual(seqIv, parIv) || !reflect.DeepEqual(seqRaw, parRaw) {
		t.Fatalf("ConfidentMax diverged:\nseq: %+v %v\npar: %+v %v", seqIv, seqRaw, parIv, parRaw)
	}
}

// RunMany must return results by input index, identical to calling Run
// on each configuration in a loop.
func TestRunManyMatchesIndividualRuns(t *testing.T) {
	cfgs := []core.Config{tinyConfig(8), tinyConfig(24), tinyConfig(8)}
	cfgs[2].Seed = 77
	got, err := core.NewRunner(8).RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("RunMany[%d] diverged from Run:\ngot:  %+v\nwant: %+v", i, got[i], want)
		}
	}
}

// RunScript must apply its script to the assembled simulation before it
// runs: a scripted node crash through the pool gives exactly what the
// same crash scheduled by hand gives, and differs from the plain run.
func TestRunScriptAppliesScript(t *testing.T) {
	cfg := tinyConfig(24)
	crash := func(s *core.Simulation) { s.ScheduleNodeCrash(1, sim.Time(30*sim.Second), 0) }
	got, err := core.NewRunner(2).RunScript(cfg, crash)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunScript diverged from the hand-scripted run:\ngot:  %+v\nwant: %+v", got, want)
	}
	plain, err := core.NewRunner(2).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, plain) {
		t.Fatal("the scripted crash changed nothing: RunScript ignored its script")
	}
}

// A worker count of zero selects GOMAXPROCS; negative likewise.
func TestRunnerDefaultWorkers(t *testing.T) {
	if core.NewRunner(0).Workers() < 1 || core.NewRunner(-3).Workers() < 1 {
		t.Fatal("defaulted worker count below 1")
	}
	if core.NewRunner(6).Workers() != 6 {
		t.Fatal("explicit worker count not honored")
	}
}
