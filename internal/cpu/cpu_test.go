package cpu

import (
	"math"
	"testing"

	"spiffi/internal/sim"
)

func TestInstructionTiming(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := New(k, 0, 40, DefaultCosts())
	var doneAt sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		c.Execute(p, c.costs.StartIO) // 20000 instrs at 40 MIPS = 500 µs
		doneAt = p.Now()
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(500 * sim.Microsecond); doneAt != want {
		t.Fatalf("start-I/O finished at %v, want %v", doneAt, want)
	}
}

func TestSendReceiveCosts(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := New(k, 0, 40, DefaultCosts())
	var doneAt sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		c.Execute(p, c.costs.Send) // 6800/40e6 = 170 µs
		c.Receive(p)               // 2200/40e6 = 55 µs
		doneAt = p.Now()
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(225 * sim.Microsecond); doneAt != want {
		t.Fatalf("send+receive = %v, want %v", doneAt, want)
	}
}

func TestFCFSContention(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := New(k, 0, 40, DefaultCosts())
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			c.Execute(p, c.costs.StartIO)
			ends = append(ends, p.Now())
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []sim.Time{
		sim.Time(500 * sim.Microsecond),
		sim.Time(1000 * sim.Microsecond),
		sim.Time(1500 * sim.Microsecond),
	} {
		if ends[i] != want {
			t.Fatalf("completion %d at %v, want %v (FCFS serialization)", i, ends[i], want)
		}
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := New(k, 0, 40, DefaultCosts())
	k.Spawn("w", func(p *sim.Proc) {
		c.Execute(p, 20_000_000) // 0.5s of work
	})
	if err := k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := c.BusyTime().Seconds(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestZeroInstructionsFree(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := New(k, 0, 40, DefaultCosts())
	var doneAt sim.Time = -1
	k.Spawn("w", func(p *sim.Proc) {
		c.Execute(p, 0)
		doneAt = p.Now()
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 0 {
		t.Fatalf("zero-instruction execute took time: %v", doneAt)
	}
}
