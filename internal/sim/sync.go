package sim

// Queue is a FIFO of parked processes: a process Waits on it until
// another party Signals it. It is the one way code outside this package
// parks and wakes processes, so each wake reaches exactly the process
// that waited for it. The zero value is an empty queue.
type Queue struct {
	procs []*Proc
}

// Wait parks p at the back of the queue until a Signal or Broadcast
// reaches it.
func (q *Queue) Wait(p *Proc) {
	q.procs = append(q.procs, p)
	p.park()
}

// Signal schedules the oldest waiter to resume at the current simulated
// time and reports whether there was one. It may be called from kernel
// context or from a process.
func (q *Queue) Signal() bool {
	if len(q.procs) == 0 {
		return false
	}
	p := q.procs[0]
	copy(q.procs, q.procs[1:])
	q.procs[len(q.procs)-1] = nil
	q.procs = q.procs[:len(q.procs)-1]
	p.wake()
	return true
}

// Broadcast schedules every waiter to resume, in arrival order. The queue
// keeps its backing array, so a reused queue's later Waits allocate
// nothing.
func (q *Queue) Broadcast() {
	for _, p := range q.procs {
		p.wake()
	}
	clear(q.procs)
	q.procs = q.procs[:0]
}

// Len reports the number of waiting processes.
func (q *Queue) Len() int { return len(q.procs) }

// Mailbox is an unbounded FIFO message queue. Senders never block;
// receivers block until a message is available. Messages are delivered
// to waiting receivers in the order the receivers arrived.
type Mailbox[T any] struct {
	items   []T
	head    int
	waiters Queue
	handed  []T // messages put to signalled receivers, in signal order
}

// NewMailbox creates an empty mailbox. The kernel is not stored: a
// mailbox wakes receivers through their own processes.
func NewMailbox[T any](*Kernel) *Mailbox[T] { return new(Mailbox[T]) }

// Put enqueues v, handing it to the oldest waiting receiver if any. It
// may be called from kernel context or from a process and never blocks.
func (m *Mailbox[T]) Put(v T) {
	if m.waiters.Signal() {
		m.handed = append(m.handed, v)
		return
	}
	m.items = append(m.items, v)
}

// Get dequeues the oldest message, blocking the calling process until one
// is available. Signalled receivers resume in signal order, so each takes
// the message put when it was signalled.
func (m *Mailbox[T]) Get(p *Proc) T {
	var zero T
	if m.head < len(m.items) {
		v := m.items[m.head]
		m.items[m.head] = zero
		m.head++
		if m.head == len(m.items) {
			m.items = m.items[:0]
			m.head = 0
		}
		return v
	}
	m.waiters.Wait(p)
	v := m.handed[0]
	n := copy(m.handed, m.handed[1:])
	m.handed[n] = zero
	m.handed = m.handed[:n]
	return v
}

// Len reports the number of queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// Event is a one-shot completion: processes Wait until someone Fires it.
// Waits after the fire return immediately. It models request/reply
// rendezvous (e.g. a terminal waiting for a block to arrive). The zero
// value is an unfired event.
type Event struct {
	fired   bool
	waiters Queue
}

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event complete and wakes all waiters in arrival order.
// Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	e.waiters.Broadcast()
}

// Reset makes a fired event unfired again, so its owner can reuse it for
// its next completion. The event must have no waiters: Fire released them.
func (e *Event) Reset() { e.fired = false }

// Wait blocks the calling process until the event fires.
func (e *Event) Wait(p *Proc) {
	if !e.fired {
		e.waiters.Wait(p)
	}
}
