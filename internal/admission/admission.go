// Package admission implements the analytical capacity bounds that §4 of
// the SPIFFI paper contrasts its simulation methodology against, plus a
// runtime admission controller.
//
// The paper argues that systems designed from worst-case analytical
// studies ("maximum disk seeks and latencies") are provably glitch-free
// but badly under-utilize the hardware, while simulation finds the true
// sustainable load. WorstCaseTerminals computes exactly that pessimistic
// bound; ExpectedCaseTerminals the analogous mean-value bound; the
// experiment "admission" compares both against the simulated maximum.
package admission

import (
	"spiffi/internal/disk"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Analysis captures the parameters an analytical designer would use.
type Analysis struct {
	Disk        disk.Params
	Cylinders   int   // seek span used for worst/average seek distance
	StripeBytes int64 // per-access transfer size
	BitRate     int64 // stream rate, bits/second
	TotalDisks  int
}

// StreamPeriod returns how long one stripe block sustains a stream.
func (a Analysis) StreamPeriod() sim.Duration {
	return sim.DurationOfSeconds(float64(a.StripeBytes) * 8 / float64(a.BitRate))
}

// WorstCaseAccess returns the worst-case single-access service time:
// a full-span seek, a full rotation, and the transfer.
func (a Analysis) WorstCaseAccess() sim.Duration {
	return a.Disk.SeekTime(a.Cylinders) + a.Disk.RotationTime + a.Disk.TransferTime(a.StripeBytes)
}

// ExpectedAccess returns the mean-value access time: the classical
// one-third-span average seek and half a rotation.
func (a Analysis) ExpectedAccess() sim.Duration {
	return a.Disk.SeekTime(a.Cylinders/3) + a.Disk.RotationTime/2 + a.Disk.TransferTime(a.StripeBytes)
}

// terminalsAt returns how many streams one disk sustains if every access
// costs `access`, scaled to the whole server.
func (a Analysis) terminalsAt(access sim.Duration) int {
	if access <= 0 {
		return 0
	}
	perDisk := int(float64(a.StreamPeriod()) / float64(access))
	return perDisk * a.TotalDisks
}

// WorstCaseTerminals is the §4 "provably glitch-free" capacity: admit
// only as many streams as survive if every access pays worst-case
// positioning.
func (a Analysis) WorstCaseTerminals() int { return a.terminalsAt(a.WorstCaseAccess()) }

// ExpectedCaseTerminals is the mean-value analytical capacity — still
// ignoring scheduling gains (elevator batching) and buffer-pool sharing.
func (a Analysis) ExpectedCaseTerminals() int { return a.terminalsAt(a.ExpectedAccess()) }

// waiter is one stream queued for a slot. admitted and rejected resolve
// the race between a slot handoff and the patience timer: whichever
// comes first marks the waiter and schedules it, the other is a no-op.
// The waiter is the Action that ends the wait.
type waiter struct {
	c        *Controller
	terminal int
	failover bool
	enq      sim.Time
	done     func(admitted bool)
	admitted bool
	rejected bool
}

// Controller is a runtime admission controller: it caps concurrently
// active streams at a limit ("the risk of glitches can be made
// arbitrarily low by limiting the maximum number of terminals", §4).
// Streams queue in Admit until a slot frees or their patience expires,
// in which case they are rejected (NACKed). The limit can be moved at
// runtime (SetLimit) by the overload controller's capacity estimator.
type Controller struct {
	k        *sim.Kernel
	limit    int
	active   int
	waiters  []*waiter
	prio     []*waiter    // failover re-admissions, always popped first
	patience sim.Duration // 0 = wait forever
	rec      *trace.Recorder

	// Admitted, Waited and Rejected count outcomes; Waited counts
	// Admit calls that had to queue (a proxy for user-visible start
	// latency), WaitSum their total queueing time. The Failover pair
	// breaks out the priority-path (AdmitFailover) outcomes, which are
	// also included in the totals.
	Admitted         int64
	Waited           int64
	Rejected         int64
	WaitSum          sim.Duration
	FailoverAdmitted int64
	FailoverRejected int64
}

// NewController creates a controller admitting at most `limit` streams.
func NewController(k *sim.Kernel, limit int) *Controller {
	if limit < 1 {
		panic("admission: non-positive limit")
	}
	return &Controller{k: k, limit: limit}
}

// SetTrace attaches a trace recorder (nil is fine: emits become no-ops).
func (c *Controller) SetTrace(rec *trace.Recorder) { c.rec = rec }

// SetPatience bounds how long a queued stream waits before it is
// rejected (0 = wait forever).
func (c *Controller) SetPatience(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	c.patience = d
}

// Admit claims a stream slot and reports whether one was free. If the
// controller is at its limit the stream queues instead, and done runs
// in kernel context at the instant the wait ends: with true once a
// released slot (or a limit raise) is handed to it, or false if its
// patience expired first (the NACK-on-reject path — the caller backs
// off and may retry). terminal identifies the stream in traces.
func (c *Controller) Admit(terminal int, done func(admitted bool)) bool {
	return c.admit(terminal, false, done)
}

// AdmitFailover claims a stream slot for a session migrating off a
// crashed node. It behaves like Admit — same patience, same NACK path —
// but queues ahead of every normal arrival: survivors' spare capacity
// goes to keeping running sessions alive before starting new ones.
func (c *Controller) AdmitFailover(terminal int, done func(admitted bool)) bool {
	return c.admit(terminal, true, done)
}

func (c *Controller) admit(terminal int, failover bool, done func(bool)) bool {
	if c.active < c.limit {
		c.active++
		c.countAdmit(terminal, failover)
		return true
	}
	c.Waited++
	c.rec.AdmWait(terminal, c.active, c.limit)
	w := &waiter{c: c, terminal: terminal, failover: failover, enq: c.k.Now(), done: done}
	if failover {
		c.prio = append(c.prio, w)
	} else {
		c.waiters = append(c.waiters, w)
	}
	if c.patience > 0 {
		c.k.After(c.patience, func() { c.expire(w) })
	}
	return false
}

// countAdmit records a stream taking a slot.
func (c *Controller) countAdmit(terminal int, failover bool) {
	c.Admitted++
	if failover {
		c.FailoverAdmitted++
	}
	c.rec.AdmAdmit(terminal, c.active, c.limit)
}

// Fire ends w's wait, at the instant a slot handoff or the patience
// timer scheduled it, and passes the outcome to its done.
func (w *waiter) Fire() {
	c := w.c
	wait := c.k.Now().Sub(w.enq)
	c.WaitSum += wait
	if w.rejected {
		c.Rejected++
		if w.failover {
			c.FailoverRejected++
		}
		c.rec.AdmReject(w.terminal, c.active, c.limit, wait)
		w.done(false)
		return
	}
	// The releaser (or a limit raise) transferred a slot to us.
	c.countAdmit(w.terminal, w.failover)
	w.done(true)
}

// popWaiter dequeues the next stream to hand a slot to: the oldest
// failover re-admission if any, else the oldest normal waiter.
func (c *Controller) popWaiter() *waiter {
	q := &c.prio
	if len(*q) == 0 {
		q = &c.waiters
	}
	if len(*q) == 0 {
		return nil
	}
	w := (*q)[0]
	copy(*q, (*q)[1:])
	*q = (*q)[:len(*q)-1]
	return w
}

// expire rejects a waiter whose patience ran out, unless a slot
// handoff already resolved it.
func (c *Controller) expire(w *waiter) {
	if w.admitted || w.rejected {
		return
	}
	for _, q := range []*[]*waiter{&c.prio, &c.waiters} {
		for i, e := range *q {
			if e == w {
				*q = append((*q)[:i], (*q)[i+1:]...)
				break
			}
		}
	}
	w.rejected = true
	c.k.Schedule(c.k.Now(), w)
}

// Release returns a stream slot. While the admitted population is
// within the limit the slot is handed to the oldest waiter; after an
// adaptive limit cut (SetLimit) left active above the limit, the slot
// is retired instead — waiters stay queued until the population has
// actually drained down to the new limit, otherwise a lowered limit
// would never be enforced while the queue is non-empty. Failover
// re-admissions bypass that drain rule: a migrant held this very slot a
// moment ago, so handing it back never grows the population the cut is
// draining, and keeping running sessions alive outranks enforcing the
// cut one release sooner. terminal identifies the departing stream in
// trace events.
func (c *Controller) Release(terminal int) {
	if len(c.prio) > 0 || c.active <= c.limit {
		if w := c.popWaiter(); w != nil {
			w.admitted = true
			c.rec.AdmRelease(terminal, c.active, c.limit)
			c.k.Schedule(c.k.Now(), w)
			return
		}
	}
	c.active--
	c.rec.AdmRelease(terminal, c.active, c.limit)
}

// SetLimit moves the admission limit at runtime. Raising it admits
// queued waiters into the new headroom; lowering it never evicts
// admitted streams — the population drains down through Release.
func (c *Controller) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	c.limit = n
	for c.active < c.limit {
		w := c.popWaiter()
		if w == nil {
			break
		}
		w.admitted = true
		c.active++
		c.k.Schedule(c.k.Now(), w)
	}
}

// Limit reports the current admission limit.
func (c *Controller) Limit() int { return c.limit }

// Active reports the number of admitted streams.
func (c *Controller) Active() int { return c.active }

// Waiting reports the number of queued streams (both queues).
func (c *Controller) Waiting() int { return len(c.waiters) + len(c.prio) }
