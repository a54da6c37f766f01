package sim

import (
	"math/rand"
	"runtime"
	"sort"
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

func TestCloseKillsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		k := NewKernel()
		ev := NewEvent(k)
		for i := 0; i < 10; i++ {
			k.Spawn("waiter", func(p *Proc) { ev.Wait(p) }) // parks forever
		}
		if err := k.Run(1000); err != nil {
			t.Fatal(err)
		}
		k.Close()
	}
	// Give the runtime a moment to retire goroutines.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestFacilityFIFOAndHoldTimes(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	f := NewFacility(k, "cpu")
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
	f := NewFacility(k, "cpu")
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
	e := NewEvent(k)
	var wokeAt []Time
	k.Spawn("early", func(p *Proc) {
		e.Wait(p)
		wokeAt = append(wokeAt, p.Now())
	})
	k.At(50, func() { e.Fire() })
	k.SpawnAt(70, "late", func(p *Proc) {
		e.Wait(p) // already fired: returns immediately
		wokeAt = append(wokeAt, p.Now())
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
	e := NewEvent(k)
	woke := 0
	k.Spawn("w", func(p *Proc) { e.Wait(p); woke++ })
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
		f := NewFacility(k, "f")
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

// Property: for any batch of event times, dispatch order is the sorted
// order (stable by insertion for ties).
func TestHeapDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		defer k.Close()
		type tagged struct {
			t   Time
			idx int
		}
		var want []tagged
		var got []tagged
		for i, v := range raw {
			tm := Time(v)
			i := i
			want = append(want, tagged{tm, i})
			k.At(tm, func() { got = append(got, tagged{k.Now(), i}) })
		}
		if err := k.RunAll(); err != nil {
			return false
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].t < want[b].t })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
	// Multiple processes woken at the same instant resume in wake order.
	k := NewKernel()
	defer k.Close()
	e := NewEvent(k)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			e.Wait(p)
			order = append(order, i)
		})
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
