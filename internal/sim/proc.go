package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// errKilled is the panic value that unwinds a parked process when its
// kernel closes. User code never observes it: the coroutine recovers it.
var errKilled = errors.New("sim: process killed by kernel shutdown")

// Proc is a simulation process: user logic running on a coroutine that
// parks whenever it waits for simulated time to pass or for a Queue to be
// signalled, handing control back to the kernel. At most one process runs
// at a time. A Proc is the Action that every start and wake of it
// schedules, so neither allocates. The simulated system runs no process:
// only this package's tests and the repo benchmark's kernel
// micro-benchmarks spawn one.
type Proc struct {
	k    *Kernel
	name string
	fn   func(*Proc) // nil once the process has returned or been unwound
	co   *coro       // the coroutine running fn; nil until it starts
}

// coro is a coroutine that runs processes one after another: when one
// returns, the coroutine goes on its kernel's idle list for a later Spawn.
type coro struct {
	p     *Proc                   // the process it runs; nil while idle
	yield func(struct{}) bool     // parks the coroutine; false once stopped
	next  func() (struct{}, bool) // runs the coroutine until it parks
	stop  func()
}

// Spawn creates a process executing fn and schedules it to start at the
// current simulated time (after already-scheduled events at this time).
// The name appears only in the error Run returns if a wake reaches the
// process after it has returned.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt is Spawn with a delayed start time.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	k.Schedule(t, p)
	return p
}

// Fire runs p until it parks or returns. It is the calendar entry that
// every start and every wake of p schedules; only the kernel calls it.
func (p *Proc) Fire() {
	if p.fn == nil {
		p.k.fail(fmt.Errorf("sim: wake reached process %q after it returned", p.name))
		return
	}
	if p.co == nil {
		p.co = p.k.coro()
		p.co.p = p
	}
	p.co.next()
}

// coro returns an idle coroutine, starting a new one if none is idle.
func (k *Kernel) coro() *coro {
	if n := len(k.idle); n > 0 {
		c := k.idle[n-1]
		k.idle = k.idle[:n-1]
		return c
	}
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for c.run() && yield(struct{}{}) {
		}
	})
	k.coros = append(k.coros, c)
	return c
}

// run runs the coroutine's process to completion, then puts the coroutine
// on the idle list. It reports false, and the coroutine ends, if the
// process panicked or Close unwound it. An unwound process drops its
// function and coroutine, so whatever still holds the Proc (the Queue it
// parked on) does not keep the state its function captured alive.
func (c *coro) run() (ok bool) {
	p := c.p
	defer func() {
		switch r := recover(); {
		case r == errKilled:
			p.fn, p.co, c.p = nil, nil, nil
		case r != nil:
			p.k.fail(fmt.Errorf("sim: process panic: %v\n%s", r, debug.Stack()))
		}
	}()
	p.fn(p)
	p.fn, p.co, c.p = nil, nil, nil
	p.k.idle = append(p.k.idle, c)
	return true
}

// park suspends p until the event a wake scheduled for it is dispatched.
// Only SleepUntil, Queue.Wait and Facility.Use call it, each
// after scheduling or registering exactly one wake.
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) {
		panic(errKilled)
	}
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.SleepUntil(p.k.now.Add(d))
}

// SleepUntil suspends the process until absolute time t. Times at or
// before now return after yielding once (preserving event ordering).
func (p *Proc) SleepUntil(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.Schedule(t, p)
	p.park()
}
