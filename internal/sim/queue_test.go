package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Property, in the event-queue ordering idiom: waiters that arrive at a
// Queue from many processes, at equal and distinct times, resume in
// arrival order under any mix of Signal and Broadcast, each at the
// instant it was released.
func TestQueueResumesInArrivalOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var q Queue
		type wait struct {
			proc, round int
			at          Time // resume time; zero on arrival
		}
		var arrived, resumed []wait
		var released []Time // one entry per waiter released, in order
		for i := 0; i < 40; i++ {
			i, rounds := i, 1+r.Intn(3)
			gaps := make([]Duration, rounds)
			for j := range gaps {
				gaps[j] = Duration(r.Intn(3)) // zero gaps make ties
			}
			k.SpawnAt(Time(r.Intn(10)), "waiter", func(p *Proc) {
				for j, gap := range gaps {
					p.Sleep(gap)
					arrived = append(arrived, wait{proc: i, round: j})
					q.Wait(p)
					resumed = append(resumed, wait{proc: i, round: j, at: p.Now()})
				}
			})
		}
		release := func() {
			if r.Intn(4) == 0 {
				for range q.Len() {
					released = append(released, k.Now())
				}
				q.Broadcast()
				return
			}
			n, pending := q.Len(), k.Pending()
			if q.Signal() != (n > 0) {
				t.Fatalf("seed %d: Signal with %d waiters reported otherwise", seed, n)
			}
			if n > 0 {
				released = append(released, k.Now())
			} else if k.Pending() != pending {
				t.Fatalf("seed %d: Signal on an empty queue scheduled an event", seed)
			}
		}
		for i := 0; i < 120; i++ {
			k.At(Time(r.Intn(20)), release)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		for q.Len() > 0 {
			for range q.Len() {
				released = append(released, k.Now())
			}
			q.Broadcast()
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
		}
		if len(resumed) != len(arrived) {
			t.Fatalf("seed %d: %d of %d waits resumed", seed, len(resumed), len(arrived))
		}
		for i, w := range resumed {
			if w.proc != arrived[i].proc || w.round != arrived[i].round || w.at != released[i] {
				t.Fatalf("seed %d: resume %d = %+v, want %+v at %v", seed, i, w, arrived[i], released[i])
			}
		}
		k.Close()
	}
}

// stepper is a continuation that logs each time it fires.
type stepper struct {
	k   *Kernel
	id  int
	log *[]stamp
}

func (s *stepper) Fire() { *s.log = append(*s.log, stamp{t: s.k.now, id: s.id}) }

// holder uses a Facility as a continuation: it Acquires, holds for its
// service time, and Releases, logging its completion.
type holder struct {
	k       *Kernel
	f       *Facility
	id      int
	hold    Duration
	held    bool
	granted Time // when the facility became the holder's
	done    *[]int
	at      *[]Time
}

func (h *holder) start() {
	if h.f.Acquire(h) {
		h.run()
	}
}

func (h *holder) run() {
	h.held, h.granted = true, h.k.now
	h.k.Schedule(h.k.now.Add(h.hold), h)
}

func (h *holder) Fire() {
	if !h.held {
		h.run() // the grant
		return
	}
	h.f.Release()
	*h.done = append(*h.done, h.id)
	*h.at = append(*h.at, h.k.now)
}

// Property: processes (Use) and continuations (Acquire/Release) that
// contend for one Facility are served strictly first come, first served,
// whatever the mix, and each grant lands at the instant the previous
// holder released it.
func TestFacilityMixedWaitersFCFS(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		f := NewFacility(k)
		var arrived, done []int
		var doneAt []Time
		holds := map[int]Duration{}
		arrivedAt := map[int]Time{}
		var conts []*holder
		for i := 0; i < 30; i++ {
			i, hold := i, Duration(1+r.Intn(5))
			holds[i] = hold
			arrive := func() { arrived = append(arrived, i); arrivedAt[i] = k.now }
			at := Time(r.Intn(40))
			if r.Intn(2) == 0 {
				k.SpawnAt(at, "user", func(p *Proc) {
					arrive()
					f.Use(p, hold)
					done = append(done, i)
					doneAt = append(doneAt, p.Now())
				})
				continue
			}
			h := &holder{k: k, f: f, id: i, hold: hold, done: &done, at: &doneAt}
			conts = append(conts, h)
			k.At(at, func() { arrive(); h.start() })
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if len(done) != len(arrived) {
			t.Fatalf("seed %d: %d of %d users served", seed, len(done), len(arrived))
		}
		var free Time // when the facility next comes free
		for n, i := range done {
			if i != arrived[n] {
				t.Fatalf("seed %d: service order %v, want arrival order %v", seed, done, arrived)
			}
			start := max(free, arrivedAt[i])
			free = start.Add(holds[i])
			if doneAt[n] != free {
				t.Fatalf("seed %d: user %d done at %v, want %v", seed, i, doneAt[n], free)
			}
		}
		for _, h := range conts {
			if want := doneAt[slices.Index(done, h.id)].Add(-h.hold); h.granted != want {
				t.Fatalf("seed %d: continuation %d granted at %v, want %v", seed, h.id, h.granted, want)
			}
		}
		if f.BusyTime() == 0 || f.busy || f.queue.Len() != 0 {
			t.Fatalf("seed %d: facility left busy=%v with %d waiters", seed, f.busy, f.queue.Len())
		}
		k.Close()
	}
}

// Processes that Wait and continuations Added to one Queue are released
// in arrival order by Signal and Broadcast alike, each scheduled at the
// instant it was released.
func TestQueueMixedWaitersArrivalOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var q Queue
	var log []stamp
	for i := range 6 {
		if i%3 == 1 {
			s := &stepper{k: k, id: i, log: &log}
			k.At(Time(i), func() { q.Add(k, s) })
			continue
		}
		k.SpawnAt(Time(i), "waiter", func(p *Proc) {
			q.Wait(p)
			log = append(log, stamp{t: p.Now(), id: i})
		})
	}
	k.At(10, func() { q.Signal(); q.Signal() }) // process 0, continuation 1
	k.At(20, q.Broadcast)                       // 2, 3, 4, 5
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []stamp{{t: 10, id: 0}, {t: 10, id: 1}, {t: 20, id: 2}, {t: 20, id: 3}, {t: 20, id: 4}, {t: 20, id: 5}}
	if !slices.Equal(log, want) {
		t.Fatalf("released %v, want %v", log, want)
	}
}

// Event.Then reports true once the event has fired, scheduling nothing;
// before that it queues the continuation, which the Fire schedules at
// the firing instant, after the waiters that came before it.
func TestEventThen(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var e Event
	var log []stamp
	if e.Then(k, &stepper{k: k, id: 0, log: &log}) {
		t.Error("Then on an unfired event reported true")
	}
	k.At(5, func() {
		if e.Then(k, &stepper{k: k, id: 1, log: &log}) {
			t.Error("Then on an unfired event reported true")
		}
	})
	k.At(30, e.Fire)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []stamp{{t: 30, id: 0}, {t: 30, id: 1}}; !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	if !e.Then(k, &stepper{k: k, id: 2, log: &log}) || k.Pending() != 0 || e.waiters.Len() != 0 {
		t.Fatalf("Then on a fired event: pending %d, waiters %d", k.Pending(), e.waiters.Len())
	}
}
