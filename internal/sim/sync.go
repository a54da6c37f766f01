package sim

// Queue is a FIFO of waiters: a continuation is Added to it, or a parked
// process Waits on it, until another party Signals it. Each wake reaches
// exactly the waiter that queued for it. The zero value is an empty
// queue.
type Queue struct {
	k       *Kernel
	waiters []Action
}

// Add queues a at the back of the queue: a Signal or Broadcast that
// reaches it schedules a on k at the current simulated time.
func (q *Queue) Add(k *Kernel, a Action) {
	q.k = k
	q.waiters = append(q.waiters, a)
}

// Wait parks p at the back of the queue until a Signal or Broadcast
// reaches it.
func (q *Queue) Wait(p *Proc) {
	q.Add(p.k, p)
	p.park()
}

// Signal schedules the oldest waiter at the current simulated time and
// reports whether there was one. It may be called from kernel context or
// from a process.
func (q *Queue) Signal() bool {
	if len(q.waiters) == 0 {
		return false
	}
	a := q.waiters[0]
	n := copy(q.waiters, q.waiters[1:])
	q.waiters[n] = nil
	q.waiters = q.waiters[:n]
	q.k.Schedule(q.k.now, a)
	return true
}

// Broadcast schedules every waiter, in arrival order. The queue keeps its
// backing array, so a reused queue's later Waits allocate nothing.
func (q *Queue) Broadcast() {
	for _, a := range q.waiters {
		q.k.Schedule(q.k.now, a)
	}
	clear(q.waiters)
	q.waiters = q.waiters[:0]
}

// Len reports the number of waiters.
func (q *Queue) Len() int { return len(q.waiters) }

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

// Event is a one-shot completion: continuations wait through Then until
// someone Fires it; Then after the fire reports true at once. It models
// request/reply rendezvous (e.g. a server job waiting for its disk read).
// The zero value is an unfired event.
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

// Then reports true if the event has fired. Otherwise it queues a, to be
// scheduled on k when the event fires, and reports false.
func (e *Event) Then(k *Kernel, a Action) bool {
	if !e.fired {
		e.waiters.Add(k, a)
	}
	return e.fired
}
