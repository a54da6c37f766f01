// Package disk models the magnetic disks of the SPIFFI video server.
// The model and every parameter come from Table 1 of the paper, which is
// based on the Seagate ST15150N SCSI-2 drive: an analytic seek curve
// (settle + factor·√distance milliseconds), uniformly distributed
// rotational latency, a fixed media transfer rate, constant-size
// cylinders (the paper's own simplification), and a segmented read-ahead
// cache of 8 contexts × 128 KB that lets exact sequential continuation
// reads skip the mechanical positioning delay.
package disk

import (
	"math"

	"spiffi/internal/dsched"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Params describes the simulated drive.
type Params struct {
	SeekFactorMs      float64      // seek = settle + factor*sqrt(cylinders) ms (paper: 0.283)
	SettleTime        sim.Duration // head settle time (paper: 0.75 ms)
	RotationTime      sim.Duration // full revolution (paper: 8.333 ms)
	TransferRate      float64      // media rate, bytes/second (paper: 7.4 MB/s)
	CylinderBytes     int64        // constant cylinder capacity (paper: 1.25 MB)
	CacheContexts     int          // read-ahead segments (paper: 8)
	CacheContextBytes int64        // read-ahead per segment (paper: 128 KB)
}

// DefaultParams returns the paper's Table 1 disk parameters.
func DefaultParams() Params {
	return Params{
		SeekFactorMs:      0.283,
		SettleTime:        750 * sim.Microsecond,
		RotationTime:      8333 * sim.Microsecond,
		TransferRate:      7.4 * 1024 * 1024,
		CylinderBytes:     1_250_000,
		CacheContexts:     8,
		CacheContextBytes: 128 * 1024,
	}
}

// SeekTime returns the time to move the head across `distance` cylinders.
// A zero distance needs no mechanical motion.
func (p Params) SeekTime(distance int) sim.Duration {
	if distance <= 0 {
		return 0
	}
	ms := p.SeekFactorMs * math.Sqrt(float64(distance))
	return p.SettleTime + sim.DurationOfSeconds(ms/1000)
}

// TransferTime returns the media transfer time for size bytes.
func (p Params) TransferTime(size int64) sim.Duration {
	return sim.DurationOfSeconds(float64(size) / p.TransferRate)
}

// Cylinder returns the cylinder containing a byte offset.
func (p Params) Cylinder(offset int64) int {
	return int(offset / p.CylinderBytes)
}

// cacheContext tracks one sequential read-ahead stream: the drive expects
// the next read at nextOffset and holds up to `ahead` buffered bytes.
type cacheContext struct {
	nextOffset int64
	ahead      int64
	lastUse    sim.Time
	used       bool
}

// Stats aggregates the lifetime counters of one disk.
type Stats struct {
	Served       int64
	PrefetchOps  int64
	BusyTime     sim.Duration // completed service periods only; see Disk.BusyTime
	TransferTime sim.Duration
	CacheHits    int64

	// Degraded-mode counters (fault injection).
	FailStops int64        // fail-stop events applied to this disk
	Abandoned int64        // queued requests drained and failed at fail-stop
	Rejects   int64        // requests rejected because the disk was failed
	DownTime  sim.Duration // time spent failed (completed outages only)

	// RebuildOps counts completed mirror-reconstruction transfers
	// (internal/overload rate-limited rebuild).
	RebuildOps int64
}

// Disk is one simulated drive with its own scheduler. It is the
// sim.Action of its own service loop (Fire).
type Disk struct {
	id     int
	k      *sim.Kernel
	params Params
	sched  dsched.Scheduler
	src    *rng.Source

	onComplete func(*dsched.Request)
	rec        *trace.Recorder // nil unless tracing is enabled

	// geo, when non-nil, replaces the constant-cylinder address and
	// transfer model with zoned-bit-recording geometry (zoned.go).
	geo *Geometry

	headCyl  int
	contexts []cacheContext

	cur       *dsched.Request // the request in service; nil while idle
	busyStart sim.Time
	stats     Stats

	idle sim.Queue // the drive itself, while it waits for work
	seq  uint64

	// Fault injection: while now < slowUntil every access is stretched
	// by slowFactor (a degraded drive — recalibration storms, vibration,
	// media retries). Used by failure-injection tests to verify the
	// system glitches under degradation and recovers afterwards.
	slowFactor float64
	slowUntil  sim.Time

	// Fail-stop state: while failed, queued requests have been drained
	// with an error, new submissions are rejected with an error, and the
	// drive sits dark until repairAt (sim.TimeInfinity = never repaired).
	failed    bool
	repairAt  sim.Time
	failStart sim.Time

	// observer, when set, sees every demand dispatch's deadline slack
	// and queue depth (the overload controller's capacity signal).
	observer func(slack sim.Duration, qlen int)
	// repairHook, when set, fires after every completed repair with the
	// outage duration (the mirror rebuilder's trigger).
	repairHook func(downtime sim.Duration)
}

// New creates a disk and schedules its first service step on k now.
// onComplete is invoked in simulation context when a request finishes;
// it must not block (fire an event or schedule an Action to hand off).
func New(k *sim.Kernel, id int, params Params, sched dsched.Scheduler, src *rng.Source, onComplete func(*dsched.Request)) *Disk {
	d := &Disk{
		id:         id,
		k:          k,
		params:     params,
		sched:      sched,
		src:        src,
		onComplete: onComplete,
		contexts:   make([]cacheContext, params.CacheContexts),
	}
	k.Schedule(k.Now(), d)
	return d
}

// NewZoned creates a disk with zoned-bit-recording geometry instead of
// constant cylinders.
func NewZoned(k *sim.Kernel, id int, zp ZonedParams, sched dsched.Scheduler, src *rng.Source, onComplete func(*dsched.Request)) *Disk {
	d := New(k, id, zp.Params, sched, src, onComplete)
	d.geo = zp.NewGeometry()
	return d
}

// cylinderOf resolves a byte offset under the active geometry.
func (d *Disk) cylinderOf(offset int64) int {
	if d.geo != nil {
		return d.geo.Cylinder(offset)
	}
	return d.params.Cylinder(offset)
}

// transferTime resolves the media time for a transfer at an offset.
func (d *Disk) transferTime(offset, size int64) sim.Duration {
	if d.geo != nil {
		return sim.DurationOfSeconds(float64(size) / d.geo.TransferRate(offset))
	}
	return d.params.TransferTime(size)
}

// SetTrace attaches a trace recorder (nil is fine: emits become no-ops).
func (d *Disk) SetTrace(rec *trace.Recorder) { d.rec = rec }

// SetObserver wires a dispatch observer: it is called at every demand
// (non-prefetch, finite-deadline) dispatch with the request's
// remaining deadline slack and the queue depth behind it. Must not
// block or schedule.
func (d *Disk) SetObserver(fn func(slack sim.Duration, qlen int)) { d.observer = fn }

// SetRepairHook wires a callback invoked after every completed repair
// with the outage duration just ended.
func (d *Disk) SetRepairHook(fn func(downtime sim.Duration)) { d.repairHook = fn }

// Submit enqueues a request. The request's Cylinder is derived from its
// Offset here so issuers never have to know disk geometry. Submitting to a
// failed disk completes the request immediately with Failed set.
func (d *Disk) Submit(r *dsched.Request) {
	d.seq++
	r.Seq = d.seq
	r.Arrival = d.k.Now()
	r.Cylinder = d.cylinderOf(r.Offset)
	if d.failed {
		r.Failed = true
		d.stats.Rejects++
		d.rec.DiskEnqueue(d.id, r.Terminal, r.Deadline, r.Prefetch, d.sched.Len())
		d.rec.DiskComplete(d.id, r.Terminal, 0, r.Prefetch, true)
		d.onComplete(r)
		return
	}
	d.sched.Add(r)
	d.rec.DiskEnqueue(d.id, r.Terminal, r.Deadline, r.Prefetch, d.sched.Len())
	d.idle.Signal()
}

// Fire is the drive's service step, run when the drive starts, when a
// Submit wakes it idle, and when the access in service ends: complete
// the request in service, if any, then pick the next per the scheduling
// policy and position, rotate and transfer it, or wait idle for a Submit.
func (d *Disk) Fire() {
	if r := d.cur; r != nil {
		d.cur = nil
		d.stats.BusyTime += d.k.Now().Sub(d.busyStart)
		if r.Failed {
			// The drive fail-stopped while this request was on the platter
			// (Fail marked it): it completes with an error, not data.
			d.stats.Abandoned++
		} else {
			d.stats.Served++
			if r.Rebuild {
				d.stats.RebuildOps++
			} else if r.Prefetch {
				d.stats.PrefetchOps++
			}
		}
		d.rec.DiskComplete(d.id, r.Terminal, d.k.Now().Sub(d.busyStart), r.Prefetch, r.Failed)
		d.onComplete(r)
	}
	r := d.sched.Next(d.k.Now(), d.headCyl)
	if r == nil {
		d.idle.Add(d.k, d)
		return
	}
	d.cur = r
	d.busyStart = d.k.Now()
	d.rec.DiskDispatch(d.id, r.Terminal, d.k.Now().Sub(r.Arrival), r.Prefetch, d.sched.Len())
	if d.observer != nil && !r.Prefetch && r.Deadline < sim.TimeInfinity {
		d.observer(r.Deadline.Sub(d.k.Now()), d.sched.Len())
	}

	service := d.access(r)
	if d.slowFactor > 1 && d.k.Now() < d.slowUntil {
		service = sim.Duration(float64(service) * d.slowFactor)
	}
	d.k.Schedule(d.k.Now().Add(service), d)
}

// access computes the service time of one request and updates the head
// position and read-ahead cache.
func (d *Disk) access(r *dsched.Request) sim.Duration {
	var seek, rot sim.Duration
	if d.cacheHit(r.Offset) {
		// Sequential continuation: the head is already positioned and
		// read-ahead is streaming; only the transfer is charged.
		d.stats.CacheHits++
	} else {
		seek = d.params.SeekTime(absInt(r.Cylinder - d.headCyl))
		rot = sim.Duration(d.src.Float64() * float64(d.params.RotationTime))
	}
	xfer := d.transferTime(r.Offset, r.Size)
	d.stats.TransferTime += xfer

	end := r.Offset + r.Size
	d.headCyl = d.cylinderOf(end - 1)
	d.noteReadAhead(end)
	return seek + rot + xfer
}

// cacheHit reports whether offset continues a tracked sequential stream:
// the read starts inside the window the drive has (or is) reading ahead.
func (d *Disk) cacheHit(offset int64) bool {
	for i := range d.contexts {
		c := &d.contexts[i]
		if c.used && offset >= c.nextOffset && offset <= c.nextOffset+c.ahead {
			c.lastUse = d.k.Now()
			return true
		}
	}
	return false
}

// noteReadAhead records that the drive will read ahead following a
// transfer that ended at `end`, recycling the least recently used context.
func (d *Disk) noteReadAhead(end int64) {
	if len(d.contexts) == 0 {
		return
	}
	// Reuse a context already tracking this stream if one exists.
	victim := 0
	for i := range d.contexts {
		c := &d.contexts[i]
		if c.used && end >= c.nextOffset && end <= c.nextOffset+c.ahead {
			victim = i
			break
		}
		if !c.used {
			victim = i
			break
		}
		if d.contexts[victim].used && c.lastUse < d.contexts[victim].lastUse {
			victim = i
		}
	}
	d.contexts[victim] = cacheContext{
		nextOffset: end,
		ahead:      d.params.CacheContextBytes,
		lastUse:    d.k.Now(),
		used:       true,
	}
}

// InjectFault degrades the drive: accesses starting before the deadline
// take factor times as long. A factor of 1 (or an elapsed deadline)
// restores normal service.
func (d *Disk) InjectFault(factor float64, duration sim.Duration) {
	if factor < 1 {
		panic("disk: fault factor below 1")
	}
	d.slowFactor = factor
	d.slowUntil = d.k.Now().Add(duration)
}

// Fail fail-stops the drive: every queued request is drained and completed
// with Failed set, the in-service request (if any) fails when its transfer
// would have ended, and new submissions are rejected until the repair
// completes. A repair duration <= 0 means the drive never recovers.
// Failing an already-failed drive extends the outage (repairs never move
// earlier, and a permanent failure stays permanent).
func (d *Disk) Fail(repair sim.Duration) {
	now := d.k.Now()
	d.stats.FailStops++
	if d.cur != nil {
		d.cur.Failed = true
	}
	if !d.failed {
		d.failed = true
		d.failStart = now
		d.repairAt = 0
	}
	if repair <= 0 {
		d.repairAt = sim.TimeInfinity
	} else if at := now.Add(repair); at > d.repairAt {
		d.repairAt = at
	}
	if d.repairAt < sim.TimeInfinity {
		at := d.repairAt
		d.k.At(at, func() { d.maybeRepair(at) })
	}
	for _, r := range d.sched.Drain() {
		r.Failed = true
		d.stats.Abandoned++
		d.rec.DiskComplete(d.id, r.Terminal, 0, r.Prefetch, true)
		d.onComplete(r)
	}
}

// maybeRepair restores service if this timer still corresponds to the
// latest scheduled repair (a later overlapping failure supersedes it).
func (d *Disk) maybeRepair(at sim.Time) {
	if !d.failed || d.repairAt != at {
		return
	}
	d.failed = false
	d.stats.DownTime += d.k.Now().Sub(d.failStart)
	if d.repairHook != nil {
		d.repairHook(d.k.Now().Sub(d.failStart))
	}
}

// Failed reports whether the drive is currently fail-stopped.
func (d *Disk) Failed() bool { return d.failed }

// Stats returns a copy of the lifetime counters.
func (d *Disk) Stats() Stats { return d.stats }

// BusyTime reports the drive's lifetime busy time, including the
// access in progress.
func (d *Disk) BusyTime() sim.Duration {
	if d.cur != nil {
		return d.stats.BusyTime + d.k.Now().Sub(d.busyStart)
	}
	return d.stats.BusyTime
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
