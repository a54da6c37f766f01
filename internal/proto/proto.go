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
