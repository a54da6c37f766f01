package dsched

import "spiffi/internal/sim"

// Elevator is the classic SCAN algorithm (§5.2.2): the head sweeps across
// cylinders servicing requests in passing, reversing at the last pending
// request in the travel direction. It nearly minimizes seeks while
// remaining fair.
type Elevator struct {
	queue
	dir int
}

// NewElevator returns an empty elevator queue sweeping upward first.
func NewElevator() *Elevator { return &Elevator{dir: 1} }

// Next implements Scheduler.
func (e *Elevator) Next(_ sim.Time, headCyl int) *Request {
	if len(e.reqs) == 0 {
		return nil
	}
	i, dir := pickElevator(e.reqs, headCyl, e.dir)
	e.dir = dir
	return e.take(i)
}

// FCFS services requests strictly in arrival order. It is the baseline
// discipline of the Haritsa/Karthikeyan comparison referenced in §3 and
// is useful for calibration tests.
type FCFS struct {
	queue
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// Next implements Scheduler.
func (f *FCFS) Next(_ sim.Time, _ int) *Request {
	if len(f.reqs) == 0 {
		return nil
	}
	return f.take(0)
}

// RoundRobin services terminals in strict cyclic order, taking the oldest
// pending request of each terminal in turn. The paper notes this is the
// GSS limit where every terminal forms its own group, and shows it always
// loses to seek-optimizing algorithms (Figure 10).
type RoundRobin struct {
	queue
	cursor int // terminal id after which the scan resumes
}

// NewRoundRobin returns an empty round-robin queue.
func NewRoundRobin() *RoundRobin { return &RoundRobin{cursor: -1} }

// Next implements Scheduler.
func (rr *RoundRobin) Next(_ sim.Time, _ int) *Request {
	if len(rr.reqs) == 0 {
		return nil
	}
	// Wrap one past the largest terminal id in play (queue or cursor), so
	// every id orders cyclically after the cursor whatever the id range —
	// a fixed constant would silently mis-order ids at or beyond it.
	wrap := rr.cursor
	for _, r := range rr.reqs {
		if r.Terminal > wrap {
			wrap = r.Terminal
		}
	}
	wrap++
	// Choose the terminal with the smallest cyclic distance from the
	// cursor, then that terminal's oldest request. bestIdx is guarded
	// explicitly: no key value doubles as an "unset" sentinel.
	bestIdx := -1
	bestKey := 0
	for i, r := range rr.reqs {
		key := r.Terminal - rr.cursor - 1
		if key < 0 {
			key += wrap
		}
		if bestIdx == -1 || key < bestKey || (key == bestKey && r.Seq < rr.reqs[bestIdx].Seq) {
			bestKey = key
			bestIdx = i
		}
	}
	r := rr.take(bestIdx)
	rr.cursor = r.Terminal
	return r
}
