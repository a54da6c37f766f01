package core

import (
	"spiffi/internal/terminal"
)

// mergeLeadMargin is how many blocks ahead of the leader's play position
// the coordinator forwards, giving followers a small buffer cushion
// against forwarding jitter. It is part of the join feasibility check:
// a follower's steady-state occupancy is join-gap + margin blocks.
const mergeLeadMargin = 2

// mergeCoordinator generalizes piggybacking (piggyback.go) into true
// stream merging (CACHING.md): a viewer whose video's prefix is resident
// in the node caches starts playing the cached blocks and merges onto
// the in-flight disk stream of a leader already playing that video, so
// one sequence of disk reads feeds N terminals.
//
// The join horizon paces at the leader's *play* position: a newcomer
// may join at gap q = fwd, where fwd trails the leader's contiguous
// frontier by K - mergeLeadMargin blocks (K = TerminalMemBytes /
// blockSize) — the span of blocks still guaranteed resident in the
// leader's playout buffer. The join test is the patching-window
// feasibility of the VoD literature: q + mergeLeadMargin + 2 blocks
// must fit in terminal memory, the gap must not exceed the cacheable
// prefix, and blocks [0, q) must all be cache-resident.
//
// Forwarding itself is paced per follower, not at the leader's play
// position: each follower receives blocks from its join point up to
// the leader's frontier as fast as its own buffer has room, tracked
// with an in-flight byte count so delivery latency cannot overshoot.
// A follower therefore carries the same ~K-block read-ahead cushion a
// self-fetching terminal does — pacing every follower at the leader's
// play point would leave joiners at small q only a couple of buffered
// blocks, and any transient dip in the leader's frontier (a busy disk
// queue) would glitch them long before it threatened the leader.
//
// Determinism: streams are keyed by video and terminals by pointer, but
// no map is ever iterated — followers live in an append-ordered slice,
// and every decision reads scalar state. The coordinator draws no
// randomness and arms no timers.
type mergeCoordinator struct {
	s        *Simulation
	maxJoin  int   // deepest allowed join gap (Cache.PrefixBlocks)
	pace     int   // frontier lead required to forward: max(1, K - mergeLeadMargin)
	memBytes int64 // follower playout-buffer size

	streams map[int]*mergeStream // in-flight lead streams by video
	lead    map[*terminal.Terminal]*mergeStream
	ride    map[*terminal.Terminal]*mergeStream

	blockSize int64

	// Merges counts successful joins; MergedBlocks counts forwarded
	// block deliveries (lifetime, like the cache counters).
	Merges       int64
	MergedBlocks int64
}

type mergeStream struct {
	video     int
	leader    *terminal.Terminal
	frontier  int // leader's contiguous blocks received
	fwd       int // join horizon: oldest block still in the leader's buffer
	followers []*mergeFollower
}

type mergeFollower struct {
	t        *terminal.Terminal
	from     int   // first forwarded block; earlier blocks came from cache
	next     int   // next block to forward to this follower
	inflight int64 // forwarded bytes not yet admitted into its buffer
}

// newMergeCoordinator builds the coordinator for s, whose placement,
// caches and config it reads.
func newMergeCoordinator(s *Simulation) *mergeCoordinator {
	memBytes, blockSize := s.cfg.TerminalMemBytes, s.place.BlockSize()
	pace := int(memBytes/blockSize) - mergeLeadMargin
	if pace < 1 {
		pace = 1
	}
	return &mergeCoordinator{
		s:         s,
		maxJoin:   s.cfg.Cache.PrefixBlocks,
		pace:      pace,
		memBytes:  memBytes,
		blockSize: blockSize,
		streams:   make(map[int]*mergeStream),
		lead:      make(map[*terminal.Terminal]*mergeStream),
		ride:      make(map[*terminal.Terminal]*mergeStream),
	}
}

// Lead registers t as a merge leader for video: it is streaming the
// whole movie from block 0. The first leader per video wins; later
// full-movie starters of the same video simply stream unmerged (they
// could not be offered a join — their start is what Offer handles).
func (mc *mergeCoordinator) Lead(t *terminal.Terminal, video int) {
	if mc.streams[video] != nil || mc.lead[t] != nil {
		return
	}
	st := &mergeStream{video: video, leader: t}
	mc.streams[video] = st
	mc.lead[t] = st
}

// Offer asks to merge t onto an in-flight stream of video. On success
// the follower plays [0, from) out of the node caches and receives
// every block from `from` on via forwardMerged.
func (mc *mergeCoordinator) Offer(t *terminal.Terminal, video int) (from int, ok bool) {
	st := mc.streams[video]
	if st == nil || mc.ride[t] != nil || mc.lead[t] != nil {
		return 0, false
	}
	q := st.fwd
	if q > mc.maxJoin || q >= mc.s.place.NumBlocks(video) {
		return 0, false // too far behind to catch up from the prefix
	}
	if int64(q+mergeLeadMargin+2)*mc.blockSize > mc.memBytes {
		return 0, false // the catch-up gap cannot fit in the playout buffer
	}
	if !mc.s.cachedPrefix(video, q) {
		return 0, false // some prefix block would still need a disk read
	}
	st.followers = append(st.followers, &mergeFollower{t: t, from: q, next: q})
	mc.ride[t] = st
	mc.Merges++
	mc.s.rec.MergeJoin(t.ID(), st.leader.ID(), video, q)
	return q, true
}

// Advance reports a terminal's contiguous frontier passing block. From
// the leader it moves the stream frontier (and the join horizon) and
// lets every follower pull newly-read blocks; from a follower it
// retires in-flight bytes, freeing buffer room for further forwards.
func (mc *mergeCoordinator) Advance(t *terminal.Terminal, video, block int) {
	if st := mc.lead[t]; st != nil && st.video == video {
		if block+1 > st.frontier {
			st.frontier = block + 1
		}
		for st.fwd+mc.pace <= st.frontier {
			st.fwd++
		}
		for _, f := range st.followers {
			mc.drainFollower(st, f)
		}
		return
	}
	if st := mc.ride[t]; st != nil && st.video == video {
		for _, f := range st.followers {
			if f.t == t {
				if block >= f.from {
					f.inflight -= mc.s.place.SizeOfBlock(video, block)
				}
				mc.drainFollower(st, f)
				return
			}
		}
	}
}

// Pull forwards more blocks to a riding follower whose buffer has
// room again (its fetcher calls this as display frees space), and
// reports whether anything moved. Without it the pump would stall at
// end of stream: once the leader has read the whole video its frontier
// never advances again, so leader-side drains stop firing while the
// follower still has the tail to receive.
func (mc *mergeCoordinator) Pull(t *terminal.Terminal) bool {
	st := mc.ride[t]
	if st == nil {
		return false
	}
	for _, f := range st.followers {
		if f.t == t {
			before := mc.MergedBlocks
			mc.drainFollower(st, f)
			return mc.MergedBlocks != before
		}
	}
	return false
}

// drainFollower forwards blocks to one follower up to the leader's
// frontier, as far as the follower's playout buffer has room. Buffered
// bytes, the follower's own outstanding prefix fetches, and forwarded
// bytes still in flight all count against the buffer, so delivery
// latency never overshoots it.
func (mc *mergeCoordinator) drainFollower(st *mergeStream, f *mergeFollower) {
	for f.next < st.frontier {
		sz := mc.s.place.SizeOfBlock(st.video, f.next)
		if f.t.BufferedBytes()+f.t.Outstanding()+f.inflight+sz > mc.memBytes {
			return
		}
		mc.s.forwardMerged(f.t, st.video, f.next, sz)
		f.inflight += sz
		f.next++
		mc.MergedBlocks++
	}
}

// Leave removes t from any stream it leads or rides. A departing leader
// dissolves the stream: its followers are unmerged and resume fetching
// for themselves (the tail they self-fetch was just read by the leader,
// so it is typically still pool-resident).
func (mc *mergeCoordinator) Leave(t *terminal.Terminal) {
	if st := mc.lead[t]; st != nil {
		delete(mc.lead, t)
		delete(mc.streams, st.video)
		for _, f := range st.followers {
			delete(mc.ride, f.t)
			f.t.Unmerge()
		}
		st.followers = nil
		return
	}
	if st := mc.ride[t]; st != nil {
		delete(mc.ride, t)
		for i := range st.followers {
			if st.followers[i].t == t {
				st.followers = append(st.followers[:i], st.followers[i+1:]...)
				break
			}
		}
	}
}
