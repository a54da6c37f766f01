package prefetch

import (
	"slices"
	"testing"

	"spiffi/internal/sim"
)

// worker is a prefetch worker for tests: each Fire Gets jobs until none
// is eligible, logging each job's block and issue time into log, and
// holds each job for hold before its next Get.
type worker struct {
	k    *sim.Kernel
	q    Queue
	hold sim.Duration
	log  *issued
}

// issued is the blocks workers took, in order, and when.
type issued struct {
	blocks []int
	at     []sim.Time
}

func (w *worker) Fire() {
	for {
		j, ok := w.q.Get(w)
		if !ok {
			return // queued: a Put or a release timer fires w again
		}
		w.log.blocks = append(w.log.blocks, j.Block)
		w.log.at = append(w.log.at, w.k.Now())
		if w.hold > 0 {
			w.k.Schedule(w.k.Now().Add(w.hold), w)
			return
		}
	}
}

// startWorker schedules a worker on q to make its first Get at t.
func startWorker(k *sim.Kernel, q Queue, t sim.Time, hold sim.Duration, log *issued) {
	k.Schedule(t, &worker{k: k, q: q, hold: hold, log: log})
}

func TestFIFOOrder(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewFIFO(k)
	var got issued
	startWorker(k, q, 0, 0, &got)
	k.At(0, func() {
		q.Put(Job{Block: 1})
		q.Put(Job{Block: 2})
		q.Put(Job{Block: 3})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.blocks, []int{1, 2, 3}) {
		t.Fatalf("order = %v", got.blocks)
	}
}

// Jobs leave the FIFO in arrival order while the queue wraps around its
// ring, grows with jobs wrapped, and reuses slots taken earlier.
func TestFIFOOrderAcrossWrap(t *testing.T) {
	q := NewFIFO(nil)
	next, want := 0, 0
	put := func(n int) {
		for ; n > 0; n-- {
			q.Put(Job{Block: next})
			next++
		}
	}
	get := func(n int) {
		for ; n > 0; n-- {
			j, ok := q.Get(nil)
			if !ok || j.Block != want {
				t.Fatalf("Get = %d, %v; want %d", j.Block, ok, want)
			}
			want++
		}
	}
	// Cycles whose depth swings between 0 and past the ring's length,
	// so the head wraps and the ring grows while its jobs wrap.
	for _, c := range [][2]int{{10, 7}, {12, 13}, {20, 5}, {30, 40}, {3, 2}, {50, 26}, {9, 41}} {
		put(c[0])
		get(c[1])
	}
	if q.n != 0 {
		t.Fatalf("%d jobs left after the cycles", q.n)
	}
	for i, j := range q.ring {
		if j != (Job{}) {
			t.Fatalf("slot %d still holds taken job %+v", i, j)
		}
	}
}

// A warm FIFO's Put and Get reuse its ring and allocate nothing.
func TestFIFOAllocations(t *testing.T) {
	q := NewFIFO(nil)
	for i := 0; i < 40; i++ {
		q.Put(Job{})
	}
	for q.n > 0 {
		q.Get(nil)
	}
	block := 0
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 30; i++ {
			q.Put(Job{Block: block + i})
		}
		for i := 0; i < 30; i++ {
			if j, ok := q.Get(nil); !ok || j.Block != block+i {
				t.Fatalf("Get = %d, %v; want %d", j.Block, ok, block+i)
			}
		}
		block += 30
	}); n != 0 {
		t.Errorf("Put and Get: %v allocs, want 0", n)
	}
}

// A worker that finds the FIFO empty is queued, not polled: nothing is
// on the calendar until a Put, which fires the worker at that instant.
func TestFIFOPutFiresParkedWorker(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewFIFO(k)
	var got issued
	startWorker(k, q, 0, 0, &got)
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(got.blocks) != 0 || k.Pending() != 0 {
		t.Fatalf("an idle worker took %v with %d events pending", got.blocks, k.Pending())
	}
	k.At(sim.Time(2*sim.Second), func() { q.Put(Job{Block: 5}) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.blocks, []int{5}) || !slices.Equal(got.at, []sim.Time{sim.Time(2 * sim.Second)}) {
		t.Fatalf("took %v at %v, want [5] at [2s]", got.blocks, got.at)
	}
}

func TestDeadlineOrdersByUrgency(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewDeadline(k, 0)
	var got issued
	k.At(0, func() {
		q.Put(Job{Block: 1, Deadline: sim.Time(30 * sim.Second)})
		q.Put(Job{Block: 2, Deadline: sim.Time(10 * sim.Second)})
		q.Put(Job{Block: 3, Deadline: sim.Time(20 * sim.Second)})
	})
	startWorker(k, q, 1, 0, &got)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.blocks, []int{2, 3, 1}) {
		t.Fatalf("order = %v, want most urgent first", got.blocks)
	}
}

func TestDeadlineTiesFIFO(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewDeadline(k, 0)
	var got issued
	k.At(0, func() {
		q.Put(Job{Block: 7, Deadline: 100})
		q.Put(Job{Block: 8, Deadline: 100})
	})
	startWorker(k, q, 1, 0, &got)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.blocks, []int{7, 8}) {
		t.Fatalf("tie order = %v", got.blocks)
	}
}

// A worker queued behind a withheld job is fired by the release timer at
// exactly deadline - MaxAdvance.
func TestDelayedWithholdsUntilWindow(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	// Max advance 8s: a job due at t=20s may issue from t=12s.
	q := NewDeadline(k, 8*sim.Second)
	var got issued
	k.At(0, func() {
		q.Put(Job{Block: 1, Deadline: sim.Time(20 * sim.Second)})
	})
	startWorker(k, q, 0, 0, &got)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []sim.Time{sim.Time(12 * sim.Second)}; !slices.Equal(got.at, want) {
		t.Fatalf("issued at %v, want %v (deadline - max advance)", got.at, want)
	}
}

func TestDelayedIssuesImmediatelyInsideWindow(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewDeadline(k, 8*sim.Second)
	var got issued
	k.At(sim.Time(15*sim.Second), func() {
		q.Put(Job{Block: 1, Deadline: sim.Time(20 * sim.Second)}) // already within 8s
	})
	startWorker(k, q, 0, 0, &got)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []sim.Time{sim.Time(15 * sim.Second)}; !slices.Equal(got.at, want) {
		t.Fatalf("issued at %v, want %v", got.at, want)
	}
}

func TestDelayedUrgentArrivalPreemptsParkedTimer(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewDeadline(k, 4*sim.Second)
	var got issued
	startWorker(k, q, 0, 0, &got)
	k.At(0, func() {
		q.Put(Job{Block: 1, Deadline: sim.Time(100 * sim.Second)}) // releases at 96s
	})
	// At t=10s an urgent job arrives (releases at 16s): it must be served
	// first, long before the original timer.
	k.At(sim.Time(10*sim.Second), func() {
		q.Put(Job{Block: 2, Deadline: sim.Time(20 * sim.Second)})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.blocks, []int{2, 1}) {
		t.Fatalf("order = %v, urgent job must issue first", got.blocks)
	}
	if got.at[0] != sim.Time(16*sim.Second) {
		t.Fatalf("urgent issued at %v, want 16s", got.at[0])
	}
	if got.at[1] != sim.Time(96*sim.Second) {
		t.Fatalf("lazy issued at %v, want 96s", got.at[1])
	}
}

func TestMultipleWorkersDrainQueue(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	q := NewDeadline(k, 0)
	var got issued
	for w := 0; w < 3; w++ {
		startWorker(k, q, 0, 10, &got)
	}
	k.At(0, func() {
		for i := 0; i < 10; i++ {
			q.Put(Job{Block: i, Deadline: sim.Time(i)})
		}
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(got.blocks) != 10 {
		t.Fatalf("served = %d, want 10", len(got.blocks))
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestConfigNewQueue(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	if _, ok := (Config{Mode: ModeBasic}).NewQueue(k).(*FIFO); !ok {
		t.Fatal("basic mode should build FIFO")
	}
	q, ok := (Config{Mode: ModeRealTime}).NewQueue(k).(*Deadline)
	if !ok || q.MaxAdvance() != 0 {
		t.Fatal("real-time mode should build ungated deadline queue")
	}
	dq, ok := (Config{Mode: ModeDelayed, MaxAdvance: 8 * sim.Second}).NewQueue(k).(*Deadline)
	if !ok || dq.MaxAdvance() != 8*sim.Second {
		t.Fatal("delayed mode should carry max advance")
	}
}
