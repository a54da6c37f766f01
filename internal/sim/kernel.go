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

// farAhead is how far ahead of now an entry must be scheduled to be
// filed in the far heap rather than the near one. Terminal timers sit
// seconds ahead and stay resident; the hops a block request takes are
// under it and are popped soon after they are pushed.
const farAhead = 100 * Millisecond

// Kernel is the simulation executive: an event calendar, plus the
// coroutines of any processes started with Spawn.
//
// The calendar dispatches in (time, seq) order from three tiers shaped
// like the schedule. A FIFO lane holds every entry scheduled for the
// current instant: it was scheduled after every heap entry for that
// instant, so the lane drains after them. A near heap holds entries
// less than farAhead ahead and a far heap the rest, so the many
// resident far-future timers add no levels to the short-lived hops;
// the next entry is the smaller of the two heap tops.
//
// A Kernel is not safe for concurrent use from multiple OS-level
// goroutines; all user logic runs either inside kernel-context event
// callbacks or inside processes.
type Kernel struct {
	now       Time
	lane      []Action // entries at now, in seq order from lane[head]
	head      int
	near, far eventHeap
	seq       uint64
	events    uint64 // total events dispatched

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
func (k *Kernel) Pending() int { return len(k.lane) - k.head + len(k.near) + len(k.far) }

// Schedule puts a on the calendar to fire at absolute time t, after every
// entry already scheduled for t. Scheduling in the past is a programming
// error and panics.
func (k *Kernel) Schedule(t Time, a Action) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	switch d := t.Sub(k.now); {
	case d == 0:
		k.lane = append(k.lane, a)
	case d < farAhead:
		k.near.push(event{t: t, seq: k.seq, a: a})
	default:
		k.far.push(event{t: t, seq: k.seq, a: a})
	}
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
	for {
		t, h, ok := k.next()
		if !ok || t > until {
			break
		}
		if k.MaxEvents != 0 && k.events >= k.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", k.MaxEvents, k.now)
		}
		var a Action
		if h == nil {
			a = k.lane[k.head]
			k.lane[k.head] = nil
			if k.head++; k.head == len(k.lane) {
				k.lane, k.head = k.lane[:0], 0
			}
		} else {
			a = h.pop()
		}
		k.now = t
		k.events++
		a.Fire()
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
	for {
		t, _, ok := k.next()
		if !ok {
			return nil
		}
		if err := k.Run(t); err != nil {
			return err
		}
	}
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
	k.coros, k.idle = nil, nil
	k.lane, k.head, k.near, k.far = nil, 0, nil, nil
}

// fail records the first error of a dispatch for Run to return.
func (k *Kernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// next reports the time of the earliest entry and the heap holding it,
// or a nil heap when it is the lane's head; ok is false when the
// calendar is empty. A heap entry at now goes before the lane.
func (k *Kernel) next() (t Time, h *eventHeap, ok bool) {
	h = &k.near
	if len(k.far) > 0 && (len(k.near) == 0 || k.far[0].before(k.near[0])) {
		h = &k.far
	}
	if len(*h) > 0 && (k.head == len(k.lane) || (*h)[0].t == k.now) {
		return (*h)[0].t, h, true
	}
	return k.now, nil, k.head < len(k.lane)
}

// before orders calendar entries by (t, seq).
func (e event) before(o event) bool {
	return e.t < o.t || e.t == o.t && e.seq < o.seq
}

// eventHeap is a binary min-heap on (t, seq). Both sifts move a hole
// rather than swapping pairs, so each level costs one copy.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// pop removes the earliest entry and returns its Action. The heap must
// not be empty.
func (h *eventHeap) pop() Action {
	s := *h
	a := s[0].a
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(s[c]) {
				c = r
			}
			if !s[c].before(last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return a
}
