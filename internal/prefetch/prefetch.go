// Package prefetch implements the three SPIFFI prefetching strategies of
// §5.2.3. Prefetch requests for each disk wait in a queue drained by a
// fixed set of prefetch workers, continuations that Get a job or wait
// to be fired when one may be eligible (the number of workers sets the
// prefetching "aggressiveness"):
//
//   - Basic: a FIFO queue; requests reach the disk with no deadline and
//     ride in the lowest real-time priority class (or are
//     indistinguishable from demand reads under non-real-time
//     scheduling).
//   - Real-time prefetching: the queue orders requests by the deadline
//     the anticipated true request is estimated to carry, and that
//     deadline accompanies the disk request so the real-time disk
//     scheduler can prioritize urgent prefetches above lazy demand reads.
//   - Delayed prefetching: additionally, a request may not be issued
//     until it is within MaxAdvance of its estimated deadline (Figure 7),
//     bounding how long prefetched data occupies server memory.
package prefetch

import (
	"spiffi/internal/sim"
)

// Job is one prefetch request: fetch block of video, wanted by deadline.
type Job struct {
	Video    int
	Block    int
	Deadline sim.Time // estimated deadline of the anticipated true request
	seq      uint64
}

// Queue is the per-disk prefetch request queue.
type Queue interface {
	// Put enqueues a job (never blocks).
	Put(j Job)
	// Get dequeues and returns a job that is eligible for issue now and
	// true. Otherwise it queues worker a, which is fired when a job may
	// have become eligible and then calls Get again, and returns false.
	Get(a sim.Action) (Job, bool)
}

// FIFO is the basic prefetching queue: jobs issue in arrival order as
// soon as a worker is free. A woken worker does not reserve the job that
// woke it, so with more than one worker a job may go to a worker that
// asked after it; Normalize gives a FIFO one worker per disk.
type FIFO struct {
	k       *sim.Kernel
	jobs    []Job
	waiters sim.Queue // idle workers
}

// NewFIFO creates the basic queue.
func NewFIFO(k *sim.Kernel) *FIFO { return &FIFO{k: k} }

// Put implements Queue.
func (f *FIFO) Put(j Job) {
	f.jobs = append(f.jobs, j)
	f.waiters.Signal()
}

// Get implements Queue.
func (f *FIFO) Get(a sim.Action) (Job, bool) {
	if len(f.jobs) == 0 {
		f.waiters.Add(f.k, a)
		return Job{}, false
	}
	j := f.jobs[0]
	f.jobs = f.jobs[:copy(f.jobs, f.jobs[1:])]
	return j, true
}

// Deadline is the real-time prefetching queue: a priority queue on
// estimated deadline. With MaxAdvance > 0 it is the delayed prefetching
// queue: the head job is withheld until now >= deadline - MaxAdvance.
type Deadline struct {
	k *sim.Kernel
	// MaxAdvance is the maximum advance prefetch time; zero means issue
	// immediately (pure real-time prefetching).
	maxAdvance sim.Duration

	heap    []Job
	seq     uint64
	waiters sim.Queue // idle workers
	timer   bool      // a release timer is pending
	timerAt sim.Time  // when the pending timer fires
}

// NewDeadline creates a real-time (maxAdvance == 0) or delayed
// (maxAdvance > 0) prefetch queue.
func NewDeadline(k *sim.Kernel, maxAdvance sim.Duration) *Deadline {
	if maxAdvance < 0 {
		panic("prefetch: negative max advance prefetch time")
	}
	return &Deadline{k: k, maxAdvance: maxAdvance}
}

// MaxAdvance returns the configured maximum advance prefetch time.
func (d *Deadline) MaxAdvance() sim.Duration { return d.maxAdvance }

// Put implements Queue.
func (d *Deadline) Put(j Job) {
	d.seq++
	j.seq = d.seq
	d.push(j)
	d.kick()
}

// Len reports queued jobs.
func (d *Deadline) Len() int { return len(d.heap) }

// releaseTime is when job j may be issued.
func (d *Deadline) releaseTime(j Job) sim.Time {
	if d.maxAdvance == 0 {
		return 0 // immediately
	}
	return j.Deadline.Add(-d.maxAdvance)
}

// Get implements Queue. When the head job is not yet eligible, it arms a
// release timer for the head's release time before queueing a.
func (d *Deadline) Get(a sim.Action) (Job, bool) {
	if len(d.heap) > 0 {
		rel := d.releaseTime(d.heap[0])
		if rel <= d.k.Now() {
			return d.pop(), true
		}
		// A new, earlier job may arrive meanwhile; kick() fires a then.
		d.armTimer(rel)
	}
	d.waiters.Add(d.k, a)
	return Job{}, false
}

// kick wakes one idle worker if a job is currently eligible, or arms a
// release timer otherwise.
func (d *Deadline) kick() {
	if d.waiters.Len() == 0 || len(d.heap) == 0 {
		return
	}
	rel := d.releaseTime(d.heap[0])
	if rel <= d.k.Now() {
		d.waiters.Signal()
		return
	}
	d.armTimer(rel)
}

// armTimer schedules a kick at time t. A pending timer is kept only if it
// fires no later than t; an urgent new job arms an earlier timer (the
// superseded one fires harmlessly and re-checks).
func (d *Deadline) armTimer(t sim.Time) {
	if d.timer && d.timerAt <= t {
		return
	}
	d.timer = true
	d.timerAt = t
	d.k.At(t, func() {
		if d.timerAt == t {
			d.timer = false
		}
		d.kick()
	})
}

// --- min-heap on (Deadline, seq) ---

func (d *Deadline) push(j Job) {
	d.heap = append(d.heap, j)
	i := len(d.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !jobLess(d.heap[i], d.heap[parent]) {
			break
		}
		d.heap[i], d.heap[parent] = d.heap[parent], d.heap[i]
		i = parent
	}
}

func (d *Deadline) pop() Job {
	top := d.heap[0]
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && jobLess(d.heap[l], d.heap[smallest]) {
			smallest = l
		}
		if r < n && jobLess(d.heap[r], d.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		d.heap[i], d.heap[smallest] = d.heap[smallest], d.heap[i]
		i = smallest
	}
	return top
}

func jobLess(a, b Job) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

// Mode selects the prefetching strategy.
type Mode string

// The strategies of §5.2.3 plus "off".
const (
	ModeOff      Mode = "off"
	ModeBasic    Mode = "basic"
	ModeRealTime Mode = "real-time"
	ModeDelayed  Mode = "delayed"
)

// Config declares a node's prefetch machinery.
type Config struct {
	Mode Mode
	// WorkersPerDisk sets prefetch aggressiveness (§5.2.3). Zero selects
	// a per-scheduler default at simulation assembly.
	WorkersPerDisk int
	// MaxAdvance is the maximum advance prefetch time for ModeDelayed
	// (paper explores 8s and 4s).
	MaxAdvance sim.Duration
}

// NewQueue builds the queue for one disk.
func (c Config) NewQueue(k *sim.Kernel) Queue {
	switch c.Mode {
	case ModeBasic:
		return NewFIFO(k)
	case ModeRealTime:
		return NewDeadline(k, 0)
	case ModeDelayed:
		return NewDeadline(k, c.MaxAdvance)
	default:
		panic("prefetch: NewQueue with mode " + string(c.Mode))
	}
}
