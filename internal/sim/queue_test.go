package sim

import (
	"math/rand"
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
