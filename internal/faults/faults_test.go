package faults

import (
	"reflect"
	"sort"
	"testing"

	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

const hour = sim.Time(3600 * sim.Second)

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{DiskSlowRate: 2,
		DiskFailRate: 1, DiskRepairTime: 30 * sim.Second, NodeCrashRate: 0.5}
	a := NewPlan(cfg, 4, 4, hour, rng.New(7))
	b := NewPlan(cfg, 4, 4, hour, rng.New(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different plans")
	}
	if len(a) == 0 {
		t.Fatal("hour-long plan at these rates is empty")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool {
		if a[i].At != a[j].At {
			return a[i].At < a[j].At
		}
		if a[i].Kind != a[j].Kind {
			return a[i].Kind < a[j].Kind
		}
		return a[i].Index < a[j].Index
	}) {
		t.Fatal("plan not sorted by (time, kind, index)")
	}
	for _, ev := range a {
		if ev.At < 0 || ev.At >= hour {
			t.Fatalf("event outside horizon: %+v", ev)
		}
	}
}

// Each (component, fault class) pair draws from its own derived stream,
// so enabling one class must not move another class's events — the
// property that keeps fault sweeps comparable point to point.
func TestStreamsIndependent(t *testing.T) {
	failOnly := Config{DiskFailRate: 1, DiskRepairTime: 30 * sim.Second}
	both := failOnly
	both.NodeCrashRate = 2
	both.DiskSlowRate = 3

	extract := func(plan []Event, kind Kind) []Event {
		var out []Event
		for _, ev := range plan {
			if ev.Kind == kind {
				out = append(out, ev)
			}
		}
		return out
	}
	a := NewPlan(failOnly, 4, 4, hour, rng.New(1))
	b := extract(NewPlan(both, 4, 4, hour, rng.New(1)), KindDiskFail)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enabling other fault classes moved the disk-fail events")
	}
}

func TestArrivalRate(t *testing.T) {
	// 16 disks at 2 events/disk-hour over 1 hour: expect ~32 events;
	// the Poisson spread makes [16, 48] a ~4-sigma interval.
	cfg := Config{DiskFailRate: 2, DiskRepairTime: sim.Second}
	n := len(NewPlan(cfg, 4, 4, hour, rng.New(3)))
	if n < 16 || n > 48 {
		t.Fatalf("events = %d, want ~32", n)
	}
}

func TestEnabled(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Fatal("zero config enabled")
	}
	if plan := NewPlan(zero, 4, 4, hour, rng.New(1)); len(plan) != 0 {
		t.Fatalf("zero config planned %d events", len(plan))
	}
	if NewNetModel(zero, rng.New(1)) != nil {
		t.Fatal("zero config built a net model")
	}
	c := Config{DiskSlowRate: 1}
	if !c.Enabled() {
		t.Fatal("slowdown config not enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{DiskFailRate: -1},
		{NetLossProb: 1},
		{NetLossProb: -0.1},
		{NodeCrashRate: 1, NodeRestartTime: -sim.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d (%+v): expected error", i, c)
		}
	}
}
