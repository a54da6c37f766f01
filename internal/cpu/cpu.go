// Package cpu models the video-server node processors: a FCFS-scheduled
// CPU at a fixed MIPS rating (Table 1: 40 MIPS, FCFS scheduling) that is
// charged fixed instruction counts for the operations the paper costs —
// starting an I/O (20000 instructions), sending a message (6800) and
// receiving one (2200), values measured on the Intel Paragon.
package cpu

import "spiffi/internal/sim"

// PaperMIPS is the Table 1 processor rating.
const PaperMIPS = 40

// Costs holds instruction counts for the charged operations.
type Costs struct {
	StartIO int64 // instructions to initiate a disk I/O
	Send    int64 // instructions to send a message
	Receive int64 // instructions to receive a message
}

// DefaultCosts returns the Table 1 instruction counts.
func DefaultCosts() Costs {
	return Costs{StartIO: 20000, Send: 6800, Receive: 2200}
}

// CPU is one node processor.
type CPU struct {
	fac   *sim.Facility
	mips  float64
	costs Costs
}

// New creates a CPU with the given MIPS rating (paper: 40).
func New(k *sim.Kernel, id int, mips float64, costs Costs) *CPU {
	if mips <= 0 {
		panic("cpu: non-positive MIPS")
	}
	return &CPU{
		fac:   sim.NewFacility(k),
		mips:  mips,
		costs: costs,
	}
}

// Time converts an instruction count into execution time.
func (c *CPU) Time(instrs int64) sim.Duration {
	return sim.DurationOfSeconds(float64(instrs) / (c.mips * 1e6))
}

// Execute charges `instrs` instructions, queueing FCFS behind other work.
func (c *CPU) Execute(p *sim.Proc, instrs int64) {
	if instrs <= 0 {
		return
	}
	c.fac.Use(p, c.Time(instrs))
}

// Acquire is Execute for a continuation a: it takes the CPU FCFS with
// every other burst (sim.Facility.Acquire), holds it for Time(instrs)
// and then calls Release.
func (c *CPU) Acquire(a sim.Action) bool { return c.fac.Acquire(a) }

// Release ends the holder's burst and hands the CPU to the oldest waiter.
func (c *CPU) Release() { c.fac.Release() }

// StartIO charges the I/O initiation cost.
func (c *CPU) StartIO(p *sim.Proc) { c.Execute(p, c.costs.StartIO) }

// Receive charges the message receive cost.
func (c *CPU) Receive(p *sim.Proc) { c.Execute(p, c.costs.Receive) }

// BusyTime reports the CPU's lifetime busy time, including the
// instruction burst in progress.
func (c *CPU) BusyTime() sim.Duration { return c.fac.BusyTime() }
