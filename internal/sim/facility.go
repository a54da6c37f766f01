package sim

// Facility is a single server with a FIFO queue, the CSIM notion used here
// to model CPUs. A process holds the facility for a service duration;
// contenders queue in arrival order. BusyTime is a lifetime total; a
// measurement window's utilization is the difference of two readings.
type Facility struct {
	k    *Kernel
	name string

	busy  bool
	queue []*Proc

	busyStart Time // valid when busy
	busyTime  Duration
}

// NewFacility creates an idle facility.
func NewFacility(k *Kernel, name string) *Facility {
	return &Facility{k: k, name: name}
}

// Use acquires the facility FIFO, holds it for d, and releases it.
func (f *Facility) Use(p *Proc, d Duration) {
	f.Acquire(p)
	p.Sleep(d)
	f.Release()
}

// Acquire takes ownership of the facility, queueing FIFO behind current
// users. Ownership is handed directly to the head waiter on release, so
// later arrivals can never barge.
func (f *Facility) Acquire(p *Proc) {
	if f.busy {
		f.queue = append(f.queue, p)
		p.Block()
		// Ownership was transferred to us by Release; busy stays true.
		return
	}
	f.busy = true
	f.busyStart = f.k.now
}

// Release gives up ownership. If waiters are queued the facility stays
// busy and the head waiter becomes the owner.
func (f *Facility) Release() {
	if len(f.queue) > 0 {
		w := f.queue[0]
		copy(f.queue, f.queue[1:])
		f.queue = f.queue[:len(f.queue)-1]
		f.k.Wake(w)
		return
	}
	f.busy = false
	f.busyTime += f.k.now.Sub(f.busyStart)
}

// BusyTime reports the time the facility has been held since it was
// created, including the service period in progress.
func (f *Facility) BusyTime() Duration {
	if f.busy {
		return f.busyTime + f.k.now.Sub(f.busyStart)
	}
	return f.busyTime
}

// Name returns the facility's diagnostic name.
func (f *Facility) Name() string { return f.name }
