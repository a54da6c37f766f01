package disk

import (
	"math"
	"testing"

	"spiffi/internal/dsched"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

func TestSeekTimeFormula(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero distance must take zero time")
	}
	// settle 0.75ms + 0.283*sqrt(100) = 0.75 + 2.83 = 3.58 ms
	got := p.SeekTime(100).Seconds() * 1000
	if math.Abs(got-3.58) > 0.01 {
		t.Fatalf("seek(100) = %v ms, want 3.58", got)
	}
	if p.SeekTime(400) <= p.SeekTime(100) {
		t.Fatal("seek time must grow with distance")
	}
	// Sub-linear growth: 4x distance < 4x seek.
	r := float64(p.SeekTime(400)) / float64(p.SeekTime(100))
	if r >= 4 {
		t.Fatalf("seek growth ratio %v, want sub-linear", r)
	}
}

func TestTransferTime(t *testing.T) {
	p := DefaultParams()
	// 7.4 MB at 7.4 MB/s = 1 second.
	got := p.TransferTime(int64(p.TransferRate))
	if math.Abs(got.Seconds()-1.0) > 1e-6 {
		t.Fatalf("transfer = %v, want 1s", got)
	}
	// 512 KB ~ 69ms + positioning dominates the paper's service times.
	ms := p.TransferTime(512*1024).Seconds() * 1000
	if math.Abs(ms-67.6) > 1.0 {
		t.Fatalf("512KB transfer = %vms, want ~67.6", ms)
	}
}

func TestCylinderMapping(t *testing.T) {
	p := DefaultParams()
	if p.Cylinder(0) != 0 {
		t.Fatal("offset 0")
	}
	if p.Cylinder(1_249_999) != 0 {
		t.Fatal("end of cylinder 0")
	}
	if p.Cylinder(1_250_000) != 1 {
		t.Fatal("start of cylinder 1")
	}
}

func newTestDisk(k *sim.Kernel, sched dsched.Scheduler, done *[]*dsched.Request) *Disk {
	return New(k, 0, DefaultParams(), sched, rng.New(42).Derive("disk"), func(r *dsched.Request) {
		*done = append(*done, r)
	})
}

func TestDiskServicesSubmittedRequest(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	k.At(0, func() {
		d.Submit(&dsched.Request{Offset: 10 * 1_250_000, Size: 512 * 1024})
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("completed %d requests, want 1", len(done))
	}
	if d.Stats().Served != 1 {
		t.Fatal("stats.Served")
	}
	// Service time must include seek + some rotation + transfer.
	minT := DefaultParams().SeekTime(10) + DefaultParams().TransferTime(512*1024)
	maxT := minT + DefaultParams().RotationTime
	if d.Stats().BusyTime < minT || d.Stats().BusyTime > maxT {
		t.Fatalf("busy time %v outside [%v, %v]", d.Stats().BusyTime, minT, maxT)
	}
}

// An idle drive waits for work without polling: nothing is on the
// calendar until a Submit, which starts service at that very instant.
func TestDiskWakesFromIdle(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	var doneAt sim.Time
	d := New(k, 0, DefaultParams(), dsched.NewFCFS(), rng.New(42).Derive("disk"), func(r *dsched.Request) {
		done, doneAt = append(done, r), k.Now()
	})
	// Let the disk go idle first, then submit.
	if err := k.Run(sim.Time(sim.Second / 2)); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 0 {
		t.Fatalf("an idle drive left %d events on the calendar", k.Pending())
	}
	k.At(sim.Time(sim.Second), func() {
		d.Submit(&dsched.Request{Offset: 0, Size: 1024})
	})
	if err := k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatal("request after idle was not serviced")
	}
	if busy := d.Stats().BusyTime; busy <= 0 || doneAt != sim.Time(sim.Second).Add(busy) {
		t.Fatalf("completed at %v after %v of service, want service to start at the 1s submit", doneAt, busy)
	}
}

// A fail-stop while a request is on the platter abandons it: it still
// completes when its access would have ended, but Failed, even when the
// drive is repaired before then.
func TestFailStopDuringServiceAbandonsRequest(t *testing.T) {
	run := func(fail bool, repair sim.Duration) (*dsched.Request, sim.Time, Stats) {
		k := sim.NewKernel()
		defer k.Close()
		var r *dsched.Request
		var at sim.Time
		d := New(k, 0, DefaultParams(), dsched.NewFCFS(), rng.New(42).Derive("disk"), func(c *dsched.Request) {
			r, at = c, k.Now()
		})
		k.At(0, func() { d.Submit(&dsched.Request{Offset: 0, Size: 512 * 1024}) })
		if fail {
			k.At(sim.Time(sim.Millisecond), func() { d.Fail(repair) })
		}
		if err := k.Run(sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
		return r, at, d.Stats()
	}
	_, end, _ := run(false, 0)
	for _, repair := range []sim.Duration{0, sim.Millisecond} {
		r, at, s := run(true, repair)
		if r == nil || !r.Failed || at != end {
			t.Fatalf("repair %v: completion %+v at %v, want Failed at the access end %v", repair, r, at, end)
		}
		if s.Abandoned != 1 || s.Served != 0 || s.BusyTime != end.Sub(0) {
			t.Fatalf("repair %v: abandoned %d, served %d, busy %v, want 1, 0, %v",
				repair, s.Abandoned, s.Served, s.BusyTime, end.Sub(0))
		}
	}
}

func TestDiskServesInSchedulerOrder(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewElevator(), &done)
	cyl := DefaultParams().CylinderBytes
	k.At(0, func() {
		// Head at 0: elevator should go 5, 40, 80 regardless of order.
		d.Submit(&dsched.Request{Offset: 80 * cyl, Size: 1024})
		d.Submit(&dsched.Request{Offset: 5 * cyl, Size: 1024})
		d.Submit(&dsched.Request{Offset: 40 * cyl, Size: 1024})
	})
	if err := k.Run(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("completed %d", len(done))
	}
	if done[0].Cylinder != 5 || done[1].Cylinder != 40 || done[2].Cylinder != 80 {
		t.Fatalf("service order = %d,%d,%d want 5,40,80",
			done[0].Cylinder, done[1].Cylinder, done[2].Cylinder)
	}
}

func TestSequentialReadHitsCache(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	k.At(0, func() {
		d.Submit(&dsched.Request{Offset: 0, Size: 64 * 1024})
		d.Submit(&dsched.Request{Offset: 64 * 1024, Size: 64 * 1024}) // exact continuation
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().CacheHits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

func TestRandomReadMissesCache(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	k.At(0, func() {
		d.Submit(&dsched.Request{Offset: 0, Size: 64 * 1024})
		d.Submit(&dsched.Request{Offset: 500 * 1_250_000, Size: 64 * 1024})
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().CacheHits; got != 0 {
		t.Fatalf("cache hits = %d, want 0", got)
	}
}

func TestCacheEvictsLRUContext(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	// Touch 9 distinct streams (more than 8 contexts), then return to the
	// first: its context must have been evicted.
	k.At(0, func() {
		for s := 0; s < 9; s++ {
			d.Submit(&dsched.Request{Offset: int64(s) * 100_000_000, Size: 64 * 1024})
		}
		// Continuation of stream 0 — would hit had it not been evicted.
		d.Submit(&dsched.Request{Offset: 64 * 1024, Size: 64 * 1024})
	})
	if err := k.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().CacheHits; got != 0 {
		t.Fatalf("cache hits = %d, want 0 (context evicted)", got)
	}
}

func TestUtilizationAndReset(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	k.At(0, func() {
		d.Submit(&dsched.Request{Offset: 0, Size: 740 * 1024}) // ~100ms transfer
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	open := d.BusyTime()
	if u := open.Seconds(); u < 0.08 || u > 0.15 {
		t.Fatalf("utilization = %v, want ~0.1", u)
	}
	// A window opened now sees only its own (idle) second.
	if err := k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := d.BusyTime() - open; got != 0 {
		t.Fatalf("idle window busy time = %v, want 0", got)
	}
	if d.Stats().Served != 1 {
		t.Fatalf("served = %d, want the lifetime 1", d.Stats().Served)
	}
}

func TestDeterministicService(t *testing.T) {
	run := func() sim.Duration {
		k := sim.NewKernel()
		defer k.Close()
		var done []*dsched.Request
		d := newTestDisk(k, dsched.NewElevator(), &done)
		k.At(0, func() {
			for i := 0; i < 20; i++ {
				d.Submit(&dsched.Request{Offset: int64(i*37%19) * 1_250_000 * 10, Size: 256 * 1024})
			}
		})
		if err := k.Run(sim.Time(30 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return d.Stats().BusyTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
}

func TestFaultInjectionSlowsService(t *testing.T) {
	run := func(inject bool) sim.Duration {
		k := sim.NewKernel()
		defer k.Close()
		var done []*dsched.Request
		d := newTestDisk(k, dsched.NewFCFS(), &done)
		if inject {
			d.InjectFault(10, sim.Duration(10*sim.Second))
		}
		k.At(0, func() {
			d.Submit(&dsched.Request{Offset: 0, Size: 512 * 1024})
		})
		if err := k.Run(sim.Time(20 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return d.Stats().BusyTime
	}
	normal, degraded := run(false), run(true)
	ratio := float64(degraded) / float64(normal)
	if ratio < 9.9 || ratio > 10.1 {
		t.Fatalf("fault slowdown ratio = %v, want 10", ratio)
	}
}

func TestFaultExpires(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var done []*dsched.Request
	d := newTestDisk(k, dsched.NewFCFS(), &done)
	d.InjectFault(10, sim.Duration(sim.Second))
	// Submit after the fault window has elapsed.
	k.At(sim.Time(2*sim.Second), func() {
		d.Submit(&dsched.Request{Offset: 0, Size: 512 * 1024})
	})
	if err := k.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	// Normal 512KB access takes well under 200 ms.
	if d.Stats().BusyTime > sim.Duration(200*sim.Millisecond) {
		t.Fatalf("fault did not expire: busy=%v", d.Stats().BusyTime)
	}
}
