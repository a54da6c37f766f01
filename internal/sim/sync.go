package sim

// Mailbox is an unbounded FIFO message queue. Senders never block;
// receivers block until a message is available. Messages are delivered
// to waiting receivers in the order the receivers arrived.
type Mailbox[T any] struct {
	k       *Kernel
	items   []T
	head    int
	waiters []*mboxWaiter[T]
}

type mboxWaiter[T any] struct {
	p   *Proc
	val T
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k}
}

// Put enqueues v, waking the oldest waiting receiver if any. It may be
// called from kernel context or from a process and never blocks.
func (m *Mailbox[T]) Put(v T) {
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		copy(m.waiters, m.waiters[1:])
		m.waiters = m.waiters[:len(m.waiters)-1]
		w.val = v
		m.k.Wake(w.p)
		return
	}
	m.items = append(m.items, v)
}

// Get dequeues the oldest message, blocking the calling process until one
// is available.
func (m *Mailbox[T]) Get(p *Proc) T {
	if m.head < len(m.items) {
		v := m.items[m.head]
		var zero T
		m.items[m.head] = zero
		m.head++
		if m.head == len(m.items) {
			m.items = m.items[:0]
			m.head = 0
		}
		return v
	}
	w := &mboxWaiter[T]{p: p}
	m.waiters = append(m.waiters, w)
	p.Block()
	return w.val
}

// Len reports the number of queued (undelivered) messages.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// Event is a one-shot completion: processes Wait until someone Fires it.
// Waits after the fire return immediately. It models request/reply
// rendezvous (e.g. a terminal waiting for a block to arrive).
type Event struct {
	k       *Kernel
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event complete and wakes all waiters in arrival order.
// Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, p := range e.waiters {
		e.k.Wake(p)
	}
	e.waiters = nil
}

// Wait blocks the calling process until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.Block()
}
