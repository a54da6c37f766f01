package sim

// Facility is a single server with a FIFO queue, the CSIM notion used here
// to model CPUs. A process or a continuation holds the facility for a
// service duration; contenders of both kinds queue in arrival order.
// BusyTime is a lifetime total; a measurement window's utilization is the
// difference of two readings.
type Facility struct {
	k     *Kernel
	busy  bool
	queue Queue

	busyStart Time // valid when busy
	busyTime  Duration
}

// NewFacility creates an idle facility.
func NewFacility(k *Kernel) *Facility { return &Facility{k: k} }

// Acquire takes the facility for a and reports true if it was free.
// Otherwise a joins the FIFO queue, reports false, and is scheduled at
// the instant a Release hands it the facility. The holder, a process or
// a continuation, calls Release when its service is over.
func (f *Facility) Acquire(a Action) bool {
	if f.busy {
		f.queue.Add(f.k, a)
		return false
	}
	f.busy = true
	f.busyStart = f.k.now
	return true
}

// Release ends the holder's service. Ownership passes directly to the
// head waiter, so the facility stays busy across the handover and later
// arrivals can never barge.
func (f *Facility) Release() {
	if !f.queue.Signal() {
		f.busy = false
		f.busyTime += f.k.now.Sub(f.busyStart)
	}
}

// Use acquires the facility for p, holds it for d, and releases it.
func (f *Facility) Use(p *Proc, d Duration) {
	if !f.Acquire(p) {
		p.park()
	}
	p.Sleep(d)
	f.Release()
}

// BusyTime reports the time the facility has been held since it was
// created, including the service period in progress.
func (f *Facility) BusyTime() Duration {
	if f.busy {
		return f.busyTime + f.k.now.Sub(f.busyStart)
	}
	return f.busyTime
}
