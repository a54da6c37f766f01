package sim

// Facility is a single server with a FIFO queue, the CSIM notion used here
// to model CPUs. A process holds the facility for a service duration;
// contenders queue in arrival order. BusyTime is a lifetime total; a
// measurement window's utilization is the difference of two readings.
type Facility struct {
	k     *Kernel
	busy  bool
	queue Queue

	busyStart Time // valid when busy
	busyTime  Duration
}

// NewFacility creates an idle facility.
func NewFacility(k *Kernel) *Facility { return &Facility{k: k} }

// Use acquires the facility FIFO, holds it for d, and releases it.
// Ownership passes directly from a releasing user to the head waiter, so
// the facility stays busy across the handover and later arrivals can
// never barge.
func (f *Facility) Use(p *Proc, d Duration) {
	if f.busy {
		f.queue.Wait(p)
	} else {
		f.busy = true
		f.busyStart = f.k.now
	}
	p.Sleep(d)
	if !f.queue.Signal() {
		f.busy = false
		f.busyTime += f.k.now.Sub(f.busyStart)
	}
}

// BusyTime reports the time the facility has been held since it was
// created, including the service period in progress.
func (f *Facility) BusyTime() Duration {
	if f.busy {
		return f.busyTime + f.k.now.Sub(f.busyStart)
	}
	return f.busyTime
}
