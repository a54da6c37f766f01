// Package dsched implements the disk scheduling algorithms compared in
// the SPIFFI paper (§5.2.2): elevator, FCFS, round-robin, the group
// sweeping scheme (GSS) of Yu et al., and the paper's real-time
// deadline-driven priority algorithm.
//
// A Scheduler holds pending requests for one disk; the disk's service
// loop calls Next after every completed access, so algorithms that
// recompute priorities "after each disk access" (the real-time algorithm)
// do so naturally.
package dsched

import (
	"sort"

	"spiffi/internal/sim"
)

// Request is one pending disk access.
type Request struct {
	Offset   int64    // byte offset on the disk
	Size     int64    // transfer length in bytes
	Cylinder int      // target cylinder (first cylinder of the transfer)
	Deadline sim.Time // absolute completion deadline (real-time scheduling)
	Terminal int      // issuing terminal (round-robin and GSS fairness key)
	Prefetch bool     // background prefetch rather than a demand read
	Arrival  sim.Time // when the request entered the queue
	Seq      uint64   // global arrival sequence, the deterministic tiebreak

	// Failed marks a request completed with an error rather than data:
	// the disk fail-stopped while it was queued or in service, or it was
	// submitted to an already-failed disk.
	Failed bool

	// Rebuild marks a background mirror-reconstruction transfer
	// (internal/overload). Rebuild requests ride the non-real-time
	// queue class like prefetches but are counted separately.
	Rebuild bool

	// Data carries the issuer's completion context opaquely.
	Data any
}

// Scheduler is a queue discipline for one disk.
type Scheduler interface {
	// Add inserts a pending request.
	Add(r *Request)
	// Next removes and returns the request to service now, given the
	// current time and disk head position, or nil if none pending.
	Next(now sim.Time, headCyl int) *Request
	// Len reports the number of pending requests.
	Len() int
	// Drain removes and returns every pending request in arrival (Seq)
	// order, emptying the queue. A fail-stopped disk drains its queue and
	// completes the abandoned requests with Failed set so issuers learn
	// their fate instead of waiting forever.
	Drain() []*Request
}

// queue is the plain pending-request list that every discipline except
// GSS embeds for its Add, Len and Drain; a discipline adds only Next.
type queue struct {
	reqs []*Request
}

// Add implements Scheduler.
func (q *queue) Add(r *Request) { q.reqs = append(q.reqs, r) }

// Len implements Scheduler.
func (q *queue) Len() int { return len(q.reqs) }

// Drain implements Scheduler.
func (q *queue) Drain() []*Request { return drainSorted(&q.reqs) }

// take removes and returns the pending request at index i.
func (q *queue) take(i int) *Request {
	r := q.reqs[i]
	q.reqs = removeAt(q.reqs, i)
	return r
}

// drainSorted empties the given backing slices into one arrival-ordered
// result. It is the shared Drain implementation: every discipline stores
// plain request slices, and arrival order is the only ordering that still
// means anything once the disk is gone.
func drainSorted(lists ...*[]*Request) []*Request {
	var out []*Request
	for _, l := range lists {
		out = append(out, *l...)
		*l = (*l)[:0]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// pickElevator chooses the SCAN-order request from reqs: the nearest
// request at or beyond the head in the travel direction; if none lie that
// way the direction reverses. It returns the chosen index and the
// possibly flipped direction. reqs must be non-empty. Ties on cylinder
// break by lower Seq (arrival order), keeping runs deterministic.
func pickElevator(reqs []*Request, headCyl int, dir int) (best int, newDir int) {
	pick := func(d int) int {
		idx := -1
		for i, r := range reqs {
			if d > 0 && r.Cylinder < headCyl {
				continue
			}
			if d < 0 && r.Cylinder > headCyl {
				continue
			}
			if idx == -1 {
				idx = i
				continue
			}
			b := reqs[idx]
			di := absInt(r.Cylinder - headCyl)
			db := absInt(b.Cylinder - headCyl)
			if di < db || (di == db && r.Seq < b.Seq) {
				idx = i
			}
		}
		return idx
	}
	if dir == 0 {
		dir = 1
	}
	if idx := pick(dir); idx >= 0 {
		return idx, dir
	}
	return pick(-dir), -dir
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// removeAt deletes index i from the slice preserving order of the rest.
// Order preservation matters: FIFO tie-breaks rely on stable ordering.
func removeAt(reqs []*Request, i int) []*Request {
	copy(reqs[i:], reqs[i+1:])
	reqs[len(reqs)-1] = nil
	return reqs[:len(reqs)-1]
}
