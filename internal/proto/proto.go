// Package proto defines the messages exchanged between video terminals
// and video-server nodes. SPIFFI's decentralized design (§5.2) means a
// terminal computes the owning node and disk itself and sends the request
// straight there; there is no intermediary and no global page-mapping
// service, so the protocol is just a request and a data reply.
package proto

import "spiffi/internal/sim"

// RequestHeaderBytes is the wire size of a block request message.
const RequestHeaderBytes = 64

// ReplyHeaderBytes is the wire overhead of a data reply, added to the
// block payload.
const ReplyHeaderBytes = 64

// NackBytes is the wire size of a negative acknowledgement: a header-only
// reply carrying a failure status instead of block data.
const NackBytes = 64

// Status reports how the server disposed of a block request. The zero
// value is success, so fault-free code never touches it.
type Status int

// Reply statuses.
const (
	// StatusOK: the reply carries the block data.
	StatusOK Status = iota
	// StatusNackDiskFailed: the disk holding the block is fail-stopped;
	// the terminal should retry against a replica or record a glitch.
	StatusNackDiskFailed
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNackDiskFailed:
		return "nack-disk-failed"
	default:
		return "status-?"
	}
}

// BlockRequest asks a node for one stripe block of one video.
//
// Lifetime. A request is recycled through a FreeList, and exactly one
// owner holds it at any time:
//   - the free list;
//   - the terminal, from Get until it sends the request (while the send
//     latency runs, as its pending send);
//   - the wire or the node, until the reply or NACK reaches the
//     terminal's arrival handler;
//   - the terminal's retry state, while a NACKed request waits to be
//     resent.
//
// The terminal puts a request back only once a reply's outcome has been
// applied: data, a stale reply, or a NACK that gave up or was
// superseded. Any retry state still pointing at the request lets go of
// it first. A timed-out request is never put back, because it may still
// be on the wire; a request the network or a down node drops never comes
// back and is left to the garbage collector. A merged forward is a
// request too: the follower puts it back once the forward is applied.
type BlockRequest struct {
	Video    int
	Block    int
	Size     int64    // expected payload size (one stripe block)
	Deadline sim.Time // completion deadline to avoid a glitch (§5.2.2)
	Terminal int

	// Copy selects which stored copy of the block to read: 0 is the
	// primary placement, 1 the replica (when the layout mirrors videos).
	// Retries rotate the copy to fail over around a dead disk.
	Copy int

	// Attempt numbers the terminal's delivery attempts for this block,
	// starting at 0. Replies from superseded attempts (a retry was already
	// issued after a timeout) are recognized and dropped by the terminal.
	Attempt int

	// Status distinguishes a data reply (StatusOK) from a NACK sent when
	// the block's disk is fail-stopped.
	Status Status

	// Deliver is invoked in simulation context when the data reply
	// reaches the requesting terminal.
	Deliver func(*BlockRequest)

	// Issued records when the terminal sent the request (response-time
	// statistics).
	Issued sim.Time

	// hop is what the request does when it next fires: set by Via.
	hop func(*BlockRequest)
}

// Via makes the request its own next hop: the returned Action fires hop
// with the request. Each hop (the wire to the node, the wire back, the
// terminal's receive delay) schedules the request itself, with a hop
// bound once per node or terminal, so a request's trip allocates nothing
// beyond the request. A request is on the calendar at most once at a
// time, which is what lets it carry its hop.
func (r *BlockRequest) Via(hop func(*BlockRequest)) sim.Action {
	r.hop = hop
	return r
}

// Fire calls the hop set by the last Via.
func (r *BlockRequest) Fire() { r.hop(r) }

// FreeList recycles block requests, so a warm simulation sends blocks
// without allocating. One list serves a whole simulation: every request
// it hands out comes back to it, whichever terminal sent it. The zero
// value is an empty list.
type FreeList struct {
	free []*BlockRequest
}

// Get returns a zeroed request, reusing one from the list when it holds
// any.
func (l *FreeList) Get() *BlockRequest {
	n := len(l.free)
	if n == 0 {
		return new(BlockRequest)
	}
	r := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	if !r.Poisoned() {
		panic("proto: block request written after it was put back")
	}
	*r = BlockRequest{}
	return r
}

// Put poisons r and returns it to the list. Poisoning makes a use after
// Put visible: the request names no video, block or terminal, firing it
// panics, and Get panics if anything wrote to it meanwhile. Putting a
// request back twice panics.
func (l *FreeList) Put(r *BlockRequest) {
	if r.Poisoned() {
		panic("proto: block request put back twice")
	}
	*r = BlockRequest{
		Video: -1, Block: -1, Size: -1, Deadline: -1, Terminal: -1,
		Copy: -1, Attempt: -1, Status: -1, Issued: -1,
		Deliver: usedAfterPut, hop: usedAfterPut,
	}
	l.free = append(l.free, r)
}

// Len reports how many requests the list holds.
func (l *FreeList) Len() int { return len(l.free) }

// Poisoned reports whether r reads as Put left it.
func (r *BlockRequest) Poisoned() bool {
	return r.Video == -1 && r.Block == -1 && r.Size == -1 && r.Deadline == -1 &&
		r.Terminal == -1 && r.Copy == -1 && r.Attempt == -1 && r.Status == -1 &&
		r.Issued == -1
}

// usedAfterPut is a poisoned request's Deliver and hop.
func usedAfterPut(*BlockRequest) {
	panic("proto: block request used after it was put back")
}
