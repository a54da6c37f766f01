package admission

import (
	"testing"

	"spiffi/internal/disk"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

func paperAnalysis() Analysis {
	return Analysis{
		Disk:        disk.DefaultParams(),
		Cylinders:   4000,
		StripeBytes: 512 * 1024,
		BitRate:     4_000_000,
		TotalDisks:  16,
	}
}

func TestStreamPeriod(t *testing.T) {
	a := paperAnalysis()
	// 512 KB at 4 Mbit/s ~ 1.049 s.
	s := a.StreamPeriod().Seconds()
	if s < 1.04 || s > 1.06 {
		t.Fatalf("stream period = %v", s)
	}
}

func TestWorstCaseBelowExpectedBelowSimulated(t *testing.T) {
	a := paperAnalysis()
	worst := a.WorstCaseTerminals()
	expected := a.ExpectedCaseTerminals()
	if worst <= 0 || expected <= 0 {
		t.Fatalf("degenerate bounds: %d %d", worst, expected)
	}
	if worst >= expected {
		t.Fatalf("worst-case bound %d not below expected-case %d", worst, expected)
	}
	// The simulated system (paper and this repo) supports ~200+ terminals
	// on this hardware; the worst-case analytical design must be clearly
	// pessimistic — that is §4's whole argument.
	if worst >= 200 {
		t.Fatalf("worst-case bound %d not pessimistic", worst)
	}
	// And the expected-case bound lands in a plausible band.
	if expected < 100 || expected > 300 {
		t.Fatalf("expected-case bound %d outside plausible band", expected)
	}
}

func TestWorstCaseAccessComposition(t *testing.T) {
	a := paperAnalysis()
	want := a.Disk.SeekTime(4000) + a.Disk.RotationTime + a.Disk.TransferTime(512*1024)
	if got := a.WorstCaseAccess(); got != want {
		t.Fatalf("worst access = %v, want %v", got, want)
	}
	if a.ExpectedAccess() >= a.WorstCaseAccess() {
		t.Fatal("expected access must undercut worst case")
	}
}

// ask claims a slot for terminal id the way a terminal does and calls
// then with the outcome: at once when a slot is free, else when the
// queued wait ends.
func ask(c *Controller, id int, failover bool, then func(admitted bool)) {
	claim := c.Admit
	if failover {
		claim = c.AdmitFailover
	}
	if claim(id, then) {
		then(true)
	}
}

// stream claims a slot for terminal id at `at`, calls admitted with the
// outcome, and releases the slot `hold` after it was granted.
func stream(k *sim.Kernel, c *Controller, at sim.Time, id int, failover bool, hold sim.Duration, admitted func(bool)) {
	k.At(at, func() {
		ask(c, id, failover, func(ok bool) {
			if admitted != nil {
				admitted(ok)
			}
			if ok {
				k.After(hold, func() { c.Release(id) })
			}
		})
	})
}

func TestControllerCapsConcurrency(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 2)
	peak := 0
	for i := 0; i < 5; i++ {
		stream(k, c, 0, i, false, 10*sim.Millisecond, func(bool) {
			if c.Active() > peak {
				peak = c.Active()
			}
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Fatalf("admission exceeded limit: peak %d", peak)
	}
	if c.Admitted != 5 {
		t.Fatalf("admitted = %d", c.Admitted)
	}
	if c.Waited != 3 {
		t.Fatalf("waited = %d, want 3", c.Waited)
	}
	if c.Active() != 0 {
		t.Fatalf("slots leaked: %d", c.Active())
	}
}

func TestControllerFIFOHandoff(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		stream(k, c, sim.Time(i), i, false, 10*sim.Millisecond, func(bool) {
			order = append(order, i)
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}
}

// A queued stream whose patience expires is rejected: its wait ends with
// false after exactly the patience, the queue is cleaned up, and no slot
// is consumed.
func TestControllerPatienceReject(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 1)
	c.SetPatience(100 * sim.Millisecond)
	var first, second bool
	var wait sim.Duration
	stream(k, c, 0, 0, false, sim.Second, func(ok bool) { first = ok }) // outlives the waiter's patience
	k.At(sim.Time(sim.Millisecond), func() {
		enq := k.Now()
		ask(c, 1, false, func(ok bool) {
			second = ok
			wait = k.Now().Sub(enq)
		})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !first || second {
		t.Fatalf("admit outcomes: holder=%v waiter=%v, want true/false", first, second)
	}
	if wait != 100*sim.Millisecond {
		t.Fatalf("rejected after %v, want the 100ms patience", wait)
	}
	if c.Admitted != 1 || c.Waited != 1 || c.Rejected != 1 {
		t.Fatalf("counters admitted/waited/rejected = %d/%d/%d, want 1/1/1",
			c.Admitted, c.Waited, c.Rejected)
	}
	if c.Waiting() != 0 {
		t.Fatalf("rejected waiter left in queue: %d", c.Waiting())
	}
	if c.Active() != 0 {
		t.Fatalf("slots leaked: %d", c.Active())
	}
}

// Raising the limit at runtime admits queued waiters into the new
// headroom; lowering it never evicts admitted streams.
func TestControllerSetLimit(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 1)
	admitted := 0
	for i := 0; i < 3; i++ {
		i := i
		k.At(sim.Time(i), func() {
			ask(c, i, false, func(ok bool) {
				if ok {
					admitted++
				}
			})
		})
	}
	k.At(sim.Time(10), func() { c.SetLimit(3) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if admitted != 3 {
		t.Fatalf("admitted = %d, want all 3 after the raise", admitted)
	}
	if c.Active() != 3 || c.Waiting() != 0 {
		t.Fatalf("active=%d waiting=%d, want 3/0", c.Active(), c.Waiting())
	}
	c.SetLimit(1)
	if c.Active() != 3 {
		t.Fatalf("lowering the limit evicted streams: active=%d", c.Active())
	}
	if c.Limit() != 1 {
		t.Fatalf("limit = %d, want 1", c.Limit())
	}
}

// After an adaptive limit cut with waiters queued, Release must retire
// slots until the population reaches the new limit — not hand them to
// waiters, which would hold concurrency above the limit forever under
// sustained overload (waiters are nearly always present there).
func TestControllerReleaseDrainsToLoweredLimit(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 4)
	admitActive := make(map[int]int) // waiter terminal -> Active() at its admit
	for i := 0; i < 4; i++ {
		stream(k, c, 0, i, false, sim.Duration(i+1)*10*sim.Millisecond, nil)
	}
	for i := 4; i < 6; i++ {
		i := i
		stream(k, c, sim.Time(sim.Millisecond), i, false, 100*sim.Millisecond, func(ok bool) {
			if !ok {
				t.Errorf("waiter %d rejected without patience configured", i)
				return
			}
			admitActive[i] = c.Active()
		})
	}
	k.At(sim.Time(5*sim.Millisecond), func() { c.SetLimit(2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	// Releases at 10 and 20 ms drain active 4 -> 3 -> 2; only the
	// releases at 30 and 40 ms hand their slots to the two waiters.
	if len(admitActive) != 2 {
		t.Fatalf("admitted %d waiters, want 2", len(admitActive))
	}
	for id, active := range admitActive {
		if active > 2 {
			t.Fatalf("waiter %d admitted at active=%d, above the lowered limit 2", id, active)
		}
	}
	if c.Active() != 0 {
		t.Fatalf("slots leaked: %d", c.Active())
	}
	if c.Admitted != 6 || c.Rejected != 0 {
		t.Fatalf("admitted/rejected = %d/%d, want 6/0", c.Admitted, c.Rejected)
	}
}

func TestControllerTraceEvents(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rec := trace.NewRecorder(k, trace.Options{Enabled: true, Capacity: 64})
	c := NewController(k, 1)
	c.SetTrace(rec)
	for i := 0; i < 2; i++ {
		stream(k, c, sim.Time(i), i, false, 5*sim.Millisecond, nil)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	var kinds []trace.Kind
	for _, ev := range rec.Snapshot().Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{
		trace.KindAdmAdmit,   // stream 0 admitted immediately
		trace.KindAdmWait,    // stream 1 queued at the limit
		trace.KindAdmRelease, // stream 0 departs, handing its slot over
		trace.KindAdmAdmit,   // stream 1 admitted
		trace.KindAdmRelease, // stream 1 departs
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d admission events, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %s, want %s", i, kinds[i].Name(), want[i].Name())
		}
	}
}

// A failover re-admission queued behind normal waiters is handed the
// next freed slot first, and its outcomes land in the Failover counters.
func TestControllerFailoverPriority(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 1)
	var order []int
	stream(k, c, 0, 0, false, 100*sim.Millisecond, nil)
	for i := 1; i <= 2; i++ {
		i := i
		stream(k, c, sim.Time(i)*sim.Time(sim.Millisecond), i, false, 50*sim.Millisecond, func(bool) {
			order = append(order, i)
		})
	}
	stream(k, c, sim.Time(10*sim.Millisecond), 9, true, 50*sim.Millisecond, func(ok bool) {
		if !ok {
			t.Error("failover re-admission rejected")
		}
		order = append(order, 9)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{9, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", order, want)
		}
	}
	if c.FailoverAdmitted != 1 || c.FailoverRejected != 0 {
		t.Fatalf("failover counters = %d/%d, want 1/0", c.FailoverAdmitted, c.FailoverRejected)
	}
	if c.Active() != 0 {
		t.Fatalf("slots leaked: %d", c.Active())
	}
}

// A failover re-admission is still bounded by patience: when survivors
// have no capacity it is rejected like any other waiter.
func TestControllerFailoverPatienceReject(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, 1)
	c.SetPatience(100 * sim.Millisecond)
	got := true
	stream(k, c, 0, 0, false, sim.Second, nil)
	stream(k, c, sim.Time(sim.Millisecond), 1, true, 0, func(ok bool) { got = ok })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("failover admission succeeded with no capacity")
	}
	if c.FailoverRejected != 1 {
		t.Fatalf("FailoverRejected = %d, want 1", c.FailoverRejected)
	}
	if c.Waiting() != 0 {
		t.Fatalf("rejected waiter left in queue: %d", c.Waiting())
	}
}
