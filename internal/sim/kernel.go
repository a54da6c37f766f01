package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Action is the work a calendar entry does: Fire runs in kernel context
// at the entry's time and must not block. Waking a process is done by
// scheduling the process itself (a *Proc is an Action), never inline.
// An Action that is on the calendar at most once at a time can be a
// long-lived value, so scheduling it allocates nothing.
type Action interface{ Fire() }

// Func adapts a plain function to an Action. A func value is a single
// pointer, so the conversion allocates nothing beyond the closure itself.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a calendar entry.
type event struct {
	t   Time
	seq uint64
	a   Action
}

// Kernel is the simulation executive: an event calendar plus the
// coroutines that run processes one at a time.
//
// A Kernel is not safe for concurrent use from multiple OS-level
// goroutines; all user logic runs either inside kernel-context event
// callbacks or inside processes.
type Kernel struct {
	now    Time
	heap   []event
	seq    uint64
	events uint64 // total events dispatched

	coros []*coro // every coroutine started, parked, idle or finished
	idle  []*coro // coroutines whose process returned, ready for reuse

	err    error // a process panic or stray wake, reported by Run
	closed bool

	// MaxEvents, when non-zero, aborts Run with an error once that many
	// events have been dispatched and more remain — the check happens
	// before each dispatch, so exactly MaxEvents events ever run. It is a
	// guard against accidental infinite event loops in tests.
	MaxEvents uint64
}

// NewKernel returns a kernel with time zero and an empty calendar.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of calendar events dispatched so far. It is
// useful for performance reporting and runaway-loop diagnostics.
func (k *Kernel) Events() uint64 { return k.events }

// Pending returns the number of events currently on the calendar.
func (k *Kernel) Pending() int { return len(k.heap) }

// Schedule puts a on the calendar to fire at absolute time t, after every
// entry already scheduled for t. Scheduling in the past is a programming
// error and panics.
func (k *Kernel) Schedule(t Time, a Action) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.push(event{t: t, seq: k.seq, a: a})
}

// At schedules fn to run in kernel context at absolute time t. fn must not
// block.
func (k *Kernel) At(t Time, fn func()) { k.Schedule(t, Func(fn)) }

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// Run dispatches events in (time, seq) order until the calendar is empty
// or the next event lies beyond `until`, whichever comes first, then sets
// the clock to `until`. Events exactly at `until` are dispatched. It
// returns an error if a process or a kernel-context Action panicked, a
// wake reached a process that had returned, or MaxEvents was exceeded.
func (k *Kernel) Run(until Time) (err error) {
	if k.closed {
		return errors.New("sim: kernel is closed")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: event panic at t=%v: %v\n%s", k.now, r, debug.Stack())
		}
	}()
	for len(k.heap) > 0 {
		if k.heap[0].t > until {
			break
		}
		if k.MaxEvents != 0 && k.events >= k.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", k.MaxEvents, k.now)
		}
		ev := k.pop()
		k.now = ev.t
		k.events++
		ev.a.Fire()
		if err := k.err; err != nil {
			k.err = nil
			return err
		}
	}
	if until > k.now {
		k.now = until
	}
	return nil
}

// RunAll dispatches events until the calendar is empty.
func (k *Kernel) RunAll() error {
	for len(k.heap) > 0 {
		if err := k.Run(k.heap[0].t); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every coroutine, parked or idle, unwinding parked processes.
// It must be called when the kernel is discarded (typically via defer) so
// repeated simulations do not leak them. After Close the kernel cannot be
// used.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, c := range k.coros {
		c.stop()
	}
	k.coros, k.idle, k.heap = nil, nil, nil
}

// fail records the first error of a dispatch for Run to return.
func (k *Kernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// --- binary min-heap on (t, seq) ---

func (k *Kernel) push(ev event) {
	k.heap = append(k.heap, ev)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() event {
	top := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(k.heap[l], k.heap[smallest]) {
			smallest = l
		}
		if r < n && less(k.heap[r], k.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
	return top
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
