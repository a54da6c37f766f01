package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("now = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(20, func() { fired++ })
	k.At(30, func() { fired++ })
	if err := k.Run(20); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at or before until)", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("now = %v, want 20", k.Now())
	}
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after resume, want 3", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.At(10, func() {})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestProcessSleep(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var wakes []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Nanosecond)
			wakes = append(wakes, p.Now())
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes = %v, want %v", wakes, want)
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var started Time = -1
	k.SpawnAt(42, "late", func(p *Proc) { started = p.Now() })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if started != 42 {
		t.Fatalf("started at %v, want 42", started)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	err := k.RunAll()
	if err == nil {
		t.Fatal("expected error from process panic")
	}
}

// A panic in a kernel-context Action comes back from Run as an error
// carrying the panic value and its stack, as a process panic does, and
// the calendar stays usable.
func TestActionPanicReturnsError(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.At(5, func() { panic("boom") })
	fired := false
	k.At(7, func() { fired = true })
	err := k.RunAll()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kernel_test.go") {
		t.Fatalf("RunAll = %v, want an error with the panic value and its stack", err)
	}
	if k.Now() != 5 || fired {
		t.Fatalf("now = %v, fired = %v: Run must stop at the panicking event", k.Now(), fired)
	}
	if err := k.RunAll(); err != nil || !fired {
		t.Fatalf("RunAll after the panic = %v, fired = %v", err, fired)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.MaxEvents = 100
	var loop func()
	loop = func() { k.After(1, loop) }
	k.After(1, loop)
	if err := k.RunAll(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

// Regression: the guard used to be checked after dispatch, so the kernel
// ran one event past the stated limit. The check now happens before
// dispatch — exactly MaxEvents events run, never MaxEvents+1.
func TestMaxEventsExactAbortCount(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.MaxEvents = 5
	ran := 0
	for i := 1; i <= 10; i++ {
		k.After(Duration(i), func() { ran++ })
	}
	if err := k.RunAll(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
	if ran != 5 || k.Events() != 5 {
		t.Fatalf("dispatched %d events (counter %d), want exactly MaxEvents=5", ran, k.Events())
	}
}

// A calendar holding exactly MaxEvents events drains without error: the
// guard fires only when the limit would be exceeded.
func TestMaxEventsExactFitIsNoError(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.MaxEvents = 5
	for i := 1; i <= 5; i++ {
		k.After(Duration(i), func() {})
	}
	if err := k.RunAll(); err != nil {
		t.Fatalf("exact-fit calendar errored: %v", err)
	}
	if k.Events() != 5 {
		t.Fatalf("events = %d, want 5", k.Events())
	}
}

// Close stops every coroutine a kernel started: those parked under a
// live process and those idle after their process returned.
func TestCloseKillsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		k := NewKernel()
		var q Queue
		for i := 0; i < 10; i++ {
			k.Spawn("waiter", func(p *Proc) { q.Wait(p) }) // parks forever
			k.Spawn("done", func(p *Proc) { p.Sleep(1) })  // returns; coroutine idles
		}
		if err := k.Run(1000); err != nil {
			t.Fatal(err)
		}
		if len(k.idle) == 0 {
			t.Fatal("no idle coroutine after processes returned")
		}
		k.Close()
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// Processes that never overlap all run on the first one's coroutine.
func TestSequentialSpawnsShareOneCoroutine(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	const n = 50
	ran := 0
	for i := 0; i < n; i++ {
		k.SpawnAt(Time(10*i), "seq", func(p *Proc) {
			p.Sleep(5)
			ran++
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d processes", ran, n)
	}
	if len(k.coros) != 1 || len(k.idle) != 1 {
		t.Fatalf("coroutines = %d (idle %d), want 1 reused", len(k.coros), len(k.idle))
	}
}

// A panicking process fails Run and takes its coroutine with it; the
// kernel still runs processes spawned afterwards, on a fresh coroutine.
func TestPanicDiscardsCoroutine(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	err := k.RunAll()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunAll = %v, want the process panic", err)
	}
	if len(k.idle) != 0 {
		t.Fatal("a panicked process's coroutine went on the idle list")
	}
	ran := false
	k.Spawn("after", func(p *Proc) {
		p.Sleep(1)
		ran = true
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process spawned after a panic did not run")
	}
	if len(k.coros) != 2 || len(k.idle) != 1 {
		t.Fatalf("coroutines = %d (idle %d), want the panicked one replaced", len(k.coros), len(k.idle))
	}
}

// A wake that reaches a process after it returned fails Run, naming the
// process, and does not resume the process now running on the reused
// coroutine.
func TestStrayWakeFailsRun(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	early := k.Spawn("early", func(p *Proc) {})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	var q Queue
	resumed := false
	k.Spawn("later", func(p *Proc) {
		q.Wait(p)
		resumed = true
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(k.coros) != 1 {
		t.Fatalf("coroutines = %d, want \"later\" on early's coroutine", len(k.coros))
	}
	k.Schedule(k.Now(), early)
	err := k.RunAll()
	if err == nil || !strings.Contains(err.Error(), `"early"`) {
		t.Fatalf("RunAll = %v, want an error naming \"early\"", err)
	}
	if resumed {
		t.Fatal("stray wake resumed the process on the reused coroutine")
	}
	q.Signal()
	if err := k.RunAll(); err != nil || !resumed {
		t.Fatalf("RunAll = %v, resumed = %v after a proper Signal", err, resumed)
	}
}

func TestFacilityFIFOAndHoldTimes(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	f := NewFacility(k)
	var order []int
	var times []Time
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("user", func(p *Proc) {
			f.Use(p, 10*Nanosecond)
			order = append(order, i)
			times = append(times, p.Now())
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
		if want := Time(10 * (i + 1)); times[i] != want {
			t.Fatalf("completion %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestFacilityUtilization(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	f := NewFacility(k)
	k.Spawn("user", func(p *Proc) {
		f.Use(p, 30*Nanosecond) // busy [0,30)
		p.Sleep(30)             // idle [30,60)
		f.Use(p, 40*Nanosecond) // busy [60,100)
	})
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := f.BusyTime(); got != 70 {
		t.Fatalf("busy time = %v, want 70 of 100", got)
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox[int](k)
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, m.Get(p))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			m.Put(i)
			p.Sleep(1)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("mailbox len = %d, want 0", m.Len())
	}
}

func TestMailboxBuffersWhenNoReceiver(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox[string](k)
	m.Put("a")
	m.Put("b")
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	var got []string
	k.Spawn("recv", func(p *Proc) {
		got = append(got, m.Get(p), m.Get(p))
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxMultipleWaitersServedInOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	m := NewMailbox[int](k)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("recv", func(p *Proc) {
			v := m.Get(p)
			got = append(got, i*100+v)
		})
	}
	k.At(10, func() { m.Put(1); m.Put(2); m.Put(3) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 102, 203} // receiver 0 gets msg 1, etc.
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEventWaitBeforeAndAfterFire(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	e := new(Event)
	var wokeAt []Time
	woke := Func(func() { wokeAt = append(wokeAt, k.Now()) })
	k.At(0, func() {
		if e.Then(k, woke) {
			t.Error("unfired event reported fired")
		}
	})
	k.At(50, func() { e.Fire() })
	k.At(70, func() {
		if e.Then(k, woke) { // already fired: goes on at once
			woke()
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wokeAt[0] != 50 || wokeAt[1] != 70 {
		t.Fatalf("wokeAt = %v, want [50 70]", wokeAt)
	}
	if !e.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	e := new(Event)
	woke := 0
	e.Then(k, Func(func() { woke++ }))
	k.At(10, func() { e.Fire(); e.Fire() })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if woke != 1 {
		t.Fatalf("woke = %d, want 1", woke)
	}
}

// TestDeterminism runs the same randomized workload twice and requires
// identical completion traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel()
		defer k.Close()
		r := rand.New(rand.NewSource(seed))
		f := NewFacility(k)
		var trace []Time
		for i := 0; i < 50; i++ {
			start := Time(r.Intn(1000))
			hold := Duration(1 + r.Intn(20))
			k.SpawnAt(start, "w", func(p *Proc) {
				f.Use(p, hold)
				trace = append(trace, p.Now())
			})
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// stamp is one dispatch, or one expected dispatch: the time, the
// calendar sequence number it was scheduled with, and who recorded it.
type stamp struct {
	t   Time
	seq uint64
	id  int
}

// recorder is an Action that notes its own dispatch.
type recorder struct {
	k   *Kernel
	id  int
	got *[]stamp
}

func (r *recorder) Fire() { *r.got = append(*r.got, stamp{t: r.k.now, id: r.id}) }

// Property, in the event-queue ordering idiom: At callbacks, scheduled
// Actions, process starts, sleeps and Queue wakes, interleaved at random
// and often tied in time, all dispatch in strict (time, seq) order, each
// at its scheduled time.
func TestHeapDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		defer k.Close()
		var want, got []stamp
		// expect notes that the next calendar entry, scheduled for t,
		// will be recorded by id.
		expect := func(t Time, id int) { want = append(want, stamp{t, k.seq + 1, id}) }
		note := func(id int) { got = append(got, stamp{t: k.now, id: id}) }
		var q Queue
		var waiting []int // ids the queue's waiters record on waking, oldest first
		for i, v := range raw {
			id := 3 * i // ids id..id+2 belong to this entry
			tm, d := Time(v%32), Duration(v>>5%4)
			switch v >> 7 % 4 {
			case 0:
				expect(tm, id)
				k.At(tm, func() { note(id) })
			case 1:
				expect(tm, id)
				k.Schedule(tm, &recorder{k: k, id: id, got: &got})
			case 2:
				expect(tm, id)
				k.SpawnAt(tm, "sleeper", func(p *Proc) {
					note(id)
					expect(p.Now().Add(d), id+1)
					p.Sleep(d)
					note(id + 1)
				})
			case 3:
				expect(tm, id)
				k.SpawnAt(tm, "waiter", func(p *Proc) {
					note(id)
					waiting = append(waiting, id+1)
					q.Wait(p)
					note(id + 1)
				})
				expect(tm.Add(d), id+2)
				k.At(tm.Add(d), func() {
					note(id + 2)
					if len(waiting) > 0 {
						expect(k.now, waiting[0])
						waiting = waiting[1:]
					}
					q.Signal()
				})
			}
		}
		if err := k.RunAll(); err != nil {
			return false
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].t != want[b].t {
				return want[a].t < want[b].t
			}
			return want[a].seq < want[b].seq
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].t != want[i].t || got[i].id != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The process paths allocate only the Proc a Spawn creates: a start, a
// sleep and a Queue wake schedule the Proc itself, and warm coroutines,
// calendar and queue reuse their storage.
func TestProcessAllocations(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	noop := func(*Proc) {}
	if n := testing.AllocsPerRun(100, func() {
		k.Spawn("noop", noop)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Spawn: %v allocs, want 1 (the Proc)", n)
	}

	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	if n := testing.AllocsPerRun(100, func() {
		if err := k.Run(k.Now().Add(1)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Sleep: %v allocs, want 0", n)
	}

	w := NewKernel()
	defer w.Close()
	var q Queue
	woken := 0
	w.Spawn("waiter", func(p *Proc) {
		for {
			q.Wait(p)
			woken++
		}
	})
	if err := w.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		q.Signal()
		if err := w.RunAll(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Queue wake: %v allocs, want 0", n)
	}
	if woken != 101 {
		t.Fatalf("woken %d times, want 101", woken)
	}
}

// counter is a long-lived Action that counts its dispatches.
type counter int

func (c *counter) Fire() { *c++ }

// A warm kernel schedules and dispatches an entry in each calendar tier
// (the lane at now, the near heap and the far heap) without allocating.
func TestCalendarAllocations(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var c counter
	for _, tc := range []struct {
		name string
		d    Duration
		tier func() int
	}{
		{"lane", 0, func() int { return len(k.lane) - k.head }},
		{"near", Millisecond, func() int { return len(k.near) }},
		{"far", farAhead, func() int { return len(k.far) }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			k.Schedule(k.Now().Add(tc.d), &c)
			if tc.tier() != 1 {
				t.Fatalf("%s: entry not filed in its tier", tc.name)
			}
			if err := k.Run(k.Now().Add(tc.d)); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per schedule and dispatch, want 0", tc.name, n)
		}
	}
	if c != 3*101 || k.Pending() != 0 {
		t.Fatalf("dispatched %d of %d entries, %d pending", c, 3*101, k.Pending())
	}
}

// Pending counts the entries in every tier, and each Run(until) leaves
// those after until in place.
func TestPendingCountsEveryTier(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var c counter
	at := []Time{0, Time(Millisecond), Time(farAhead)} // lane, near, far
	for _, when := range at {
		k.Schedule(when, &c)
	}
	for i, until := range at {
		if got, want := k.Pending(), len(at)-i; got != want {
			t.Fatalf("before Run(%v): Pending() = %d, want %d", until, got, want)
		}
		if err := k.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	if k.Pending() != 0 || c != 3 {
		t.Fatalf("Pending() = %d after %d dispatches, want 0 after 3", k.Pending(), c)
	}
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var woke Time = -1
	k.SpawnAt(100, "w", func(p *Proc) {
		p.SleepUntil(50) // in the past: yields once, resumes at now
		woke = p.Now()
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if woke != 100 {
		t.Fatalf("woke at %v, want 100", woke)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("w", func(p *Proc) {
		p.Sleep(-1)
	})
	if err := k.RunAll(); err == nil {
		t.Fatal("negative sleep must surface as an error")
	}
}

func TestWakeOrderingDeterministic(t *testing.T) {
	// Multiple waiters woken at the same instant resume in wake order.
	k := NewKernel()
	defer k.Close()
	e := new(Event)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Then(k, Func(func() { order = append(order, i) }))
	}
	k.At(10, func() { e.Fire() })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v", order)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	depth := 0
	var spawn func(p *Proc)
	spawn = func(p *Proc) {
		depth++
		if depth < 5 {
			k.Spawn("child", spawn)
		}
		p.Sleep(1)
	}
	k.Spawn("root", spawn)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("depth = %d", depth)
	}
}

func TestEventsCounterAdvances(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	for i := 0; i < 10; i++ {
		k.At(Time(i), func() {})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if k.Events() != 10 {
		t.Fatalf("events = %d", k.Events())
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d", k.Pending())
	}
}

func TestRunOnClosedKernelErrors(t *testing.T) {
	k := NewKernel()
	k.Close()
	if err := k.Run(10); err == nil {
		t.Fatal("run on closed kernel must error")
	}
}
