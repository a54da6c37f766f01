package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// tierEdge is 100 ms, the distance ahead at which the calendar files an
// entry in its far tier instead of its near one. The delays drawn below
// sit at zero, under a millisecond, either side of this edge and well
// beyond it.
const tierEdge = 100 * Millisecond

// gridStep spaces the instants that entries filed in different tiers
// aim at together, so far, near and zero-delay entries fall due at the
// same time.
const gridStep = 50 * Millisecond

// refEntry is one entry of the reference calendar.
type refEntry struct {
	t   Time
	seq uint64
	id  int
}

// calendarCheck drives a kernel with a random schedule and checks every
// dispatch against a reference calendar: a slice kept sorted by
// (time, seq), whose first entry is the one the kernel must run next.
type calendarCheck struct {
	k       *Kernel
	r       *rand.Rand
	ref     []refEntry
	ids     int
	budget  int // entries the schedule may still add
	q       Queue
	waiting []int // ids the queue's waiters record on waking, oldest first
	err     error // the first disagreement with the reference
}

func (c *calendarCheck) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// newID returns an id no entry has used.
func (c *calendarCheck) newID() int {
	c.ids++
	return c.ids
}

// expect notes that the next calendar entry, scheduled for t, will be
// recorded by id.
func (c *calendarCheck) expect(t Time, id int) {
	e := refEntry{t: t, seq: c.k.seq + 1, id: id}
	i := sort.Search(len(c.ref), func(i int) bool {
		r := c.ref[i]
		return r.t > e.t || r.t == e.t && r.seq > e.seq
	})
	c.ref = append(c.ref, refEntry{})
	copy(c.ref[i+1:], c.ref[i:])
	c.ref[i] = e
}

// fired checks that the entry recorded by id is the reference's first
// and runs at its time, and takes it off the reference.
func (c *calendarCheck) fired(id int) {
	if len(c.ref) == 0 {
		c.fail("dispatched %d at %v with the reference empty", id, c.k.now)
		return
	}
	e := c.ref[0]
	c.ref = c.ref[1:]
	if e.id != id || e.t != c.k.now {
		c.fail("dispatched %d at %v, reference runs %d at %v", id, c.k.now, e.id, e.t)
	}
}

// delay draws how far ahead of now an entry is scheduled.
func (c *calendarCheck) delay() Duration {
	switch c.r.Intn(8) {
	case 0:
		return 0
	case 1:
		return Duration(1 + c.r.Intn(int(Millisecond)-1))
	case 2:
		return tierEdge - Duration(1+c.r.Intn(1000))
	case 3:
		return tierEdge
	case 4:
		return tierEdge + Duration(c.r.Intn(3))
	case 5:
		return Duration(2+c.r.Intn(30)) * tierEdge
	default:
		next := (c.k.now/Time(gridStep) + 1 + Time(c.r.Intn(4))) * Time(gridStep)
		return next.Sub(c.k.now)
	}
}

// recorderAction is an Action entry of the schedule.
type recorderAction struct {
	c  *calendarCheck
	id int
}

func (a *recorderAction) Fire() {
	a.c.fired(a.id)
	a.c.react()
}

// schedule adds one entry at a random delay, as an At callback, an
// Action, a sleeping process or a process that waits on the queue.
func (c *calendarCheck) schedule() {
	if c.budget == 0 {
		return
	}
	c.budget--
	t, id := c.k.now.Add(c.delay()), c.newID()
	c.expect(t, id)
	switch c.r.Intn(4) {
	case 0:
		c.k.At(t, func() {
			c.fired(id)
			c.react()
		})
	case 1:
		c.k.Schedule(t, &recorderAction{c: c, id: id})
	case 2:
		naps := c.r.Intn(3)
		c.k.SpawnAt(t, "sleeper", func(p *Proc) {
			c.fired(id)
			c.react()
			for i := 0; i < naps; i++ {
				at, wake := p.Now().Add(c.delay()), c.newID()
				c.expect(at, wake)
				p.SleepUntil(at)
				c.fired(wake)
				c.react()
			}
		})
	case 3:
		c.k.SpawnAt(t, "waiter", func(p *Proc) {
			c.fired(id)
			wake := c.newID()
			c.waiting = append(c.waiting, wake)
			c.q.Wait(p)
			c.fired(wake)
			c.react()
		})
	}
}

// react is what a dispatched entry does, in kernel context or in its
// process: schedule up to three more entries, often at now, and now and
// then wake the queue's oldest waiter.
func (c *calendarCheck) react() {
	for n := c.r.Intn(4); n > 0; n-- {
		c.schedule()
	}
	if len(c.waiting) > 0 && c.r.Intn(3) == 0 {
		c.expect(c.k.now, c.waiting[0])
		c.waiting = c.waiting[1:]
		c.q.Signal()
	}
}

// The calendar dispatches exactly as a sorted (time, seq) list would,
// whatever tier each entry is filed in: zero-delay entries from Actions
// and processes, near entries, far entries that fall due beside near and
// zero-delay ones, and process wakes. Run(until) windows stop at until
// with Pending() equal to the reference's count.
func TestCalendarMatchesSortedReference(t *testing.T) {
	var first error
	f := func(seed int64) bool {
		k := NewKernel()
		defer k.Close()
		c := &calendarCheck{k: k, r: rand.New(rand.NewSource(seed)), budget: 400}
		for w := 0; w < 30 && c.err == nil; w++ {
			for n := 1 + c.r.Intn(4); n > 0; n-- {
				c.schedule()
			}
			until := k.now.Add(c.delay())
			if err := k.Run(until); err != nil {
				c.fail("Run(%v): %v", until, err)
				break
			}
			if k.Now() != until {
				c.fail("Run(%v) left the clock at %v", until, k.Now())
			}
			if len(c.ref) > 0 && c.ref[0].t <= until {
				c.fail("Run(%v) stopped with %d due at %v", until, c.ref[0].id, c.ref[0].t)
			}
			if k.Pending() != len(c.ref) {
				c.fail("after Run(%v): Pending() = %d, reference holds %d", until, k.Pending(), len(c.ref))
			}
		}
		if err := k.RunAll(); err != nil {
			c.fail("RunAll: %v", err)
		}
		if len(c.ref) != 0 || k.Pending() != 0 {
			c.fail("drained with %d left on the reference, Pending() = %d", len(c.ref), k.Pending())
		}
		if c.err != nil && first == nil {
			first = fmt.Errorf("seed %d: %w", seed, c.err)
		}
		return c.err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err, first)
	}
}
