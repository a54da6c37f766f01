package core

import (
	"runtime"
	"sync"
)

// Runner evaluates independent simulations concurrently on a bounded
// worker pool. The paper's §7 methodology is embarrassingly parallel —
// every figure sweeps independent (config, seed) runs — and each run
// owns its own kernel and derived rng streams (the only cross-run state,
// the shared MPEG library cache, is immutable after generation), so runs
// may execute in any order on any number of OS threads.
//
// Every result a Runner produces is bit-identical to sequential
// execution: results are keyed to (config, seed) rather than completion
// order, and a search evaluates one count at a time and consumes its
// seeds in seed order. The only runs extra workers add are a search
// count's seed replications past its first failure, which run alongside
// the count's other seeds and which the search then discards.
//
// The pool bounds concurrent simulation executions, not goroutines:
// every simulation a Runner's methods start, the lazy seed-by-seed runs
// of a 1-worker search included, takes one of its slots. Nested fan-out
// (a sweep of searches, each running a count's seeds in parallel)
// shares one semaphore, so total simulation concurrency never exceeds
// Workers however deep the nesting, and a 1-worker Runner runs one
// simulation at a time.
type Runner struct {
	workers int
	sem     chan struct{}
}

// NewRunner returns a pool executing at most `workers` simulations
// concurrently; workers <= 0 selects GOMAXPROCS. A 1-worker runner
// executes exactly the sequential evaluation set: a search skips a
// count's seeds past its first failure.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Run executes one simulation under the pool's concurrency limit.
func (r *Runner) Run(cfg Config) (Metrics, error) { return r.RunScript(cfg, nil) }

// RunScript executes one simulation under the pool's concurrency limit,
// applying script, if non-nil, to the assembled Simulation before it
// runs: the hook for scripted events such as ScheduleNodeCrash.
func (r *Runner) RunScript(cfg Config, script func(*Simulation)) (Metrics, error) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	s, err := NewSimulation(cfg)
	if err != nil {
		return Metrics{}, err
	}
	if script != nil {
		script(s)
	}
	return s.Run()
}

// runAll executes every configuration on the pool and returns results
// and errors by index. It never short-circuits: determinism requires
// consuming outcomes in a fixed order, not completion order, so error
// policy is the caller's.
func (r *Runner) runAll(cfgs []Config) ([]Metrics, []error) {
	ms := make([]Metrics, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = r.Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	return ms, errs
}

// RunMany executes every configuration concurrently; out[i] is cfgs[i]'s
// metrics. On error it returns the first error in index order — the same
// error a sequential loop over cfgs would have returned.
func (r *Runner) RunMany(cfgs []Config) ([]Metrics, error) {
	ms, errs := r.runAll(cfgs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}
