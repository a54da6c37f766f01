package bufferpool

import (
	"fmt"

	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Outcome reports how an Acquire was satisfied.
type Outcome int

// Acquire outcomes.
const (
	// Hit: the page is resident and valid.
	Hit Outcome = iota
	// InFlight: the page is resident but its fetch is still outstanding;
	// wait on Page.Ready before using the data.
	InFlight
	// MustFetch: a frame was allocated and the caller owns the fetch; it
	// must issue the disk read and call FetchComplete.
	MustFetch
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case InFlight:
		return "in-flight"
	default:
		return "must-fetch"
	}
}

// Stats aggregates the buffer pool's lifetime counters.
type Stats struct {
	DemandRefs   int64 // demand (terminal) buffer references
	DemandHits   int64 // satisfied without a new disk read (valid page)
	InFlightHits int64 // satisfied by an already-outstanding fetch
	Misses       int64 // demand references that had to fetch
	SharedRefs   int64 // demand refs to a page previously referenced by another terminal (Fig 16)
	PrefetchSkip int64 // prefetches dropped because the page was resident
	Evictions    int64
	AllocWaits   int64 // times an acquire queued waiting for a frame
	FetchFails   int64 // fetches aborted because the disk fail-stopped
}

// SharedFraction returns SharedRefs/DemandRefs (Figure 16's metric).
func (s Stats) SharedFraction() float64 {
	if s.DemandRefs == 0 {
		return 0
	}
	return float64(s.SharedRefs) / float64(s.DemandRefs)
}

// HitFraction returns the demand hit rate including in-flight hits.
func (s Stats) HitFraction() float64 {
	if s.DemandRefs == 0 {
		return 0
	}
	return float64(s.DemandHits+s.InFlightHits) / float64(s.DemandRefs)
}

// Pool is one node's buffer pool.
type Pool struct {
	k        *sim.Kernel
	capacity int
	free     int
	table    map[PageID]*Page
	policy   Policy
	waiters  sim.Queue // continuations waiting for a frame
	stats    Stats

	// spare holds evicted pages for insertNew to reuse, so a miss in a
	// full pool allocates nothing. Only eviction adds to it: an evicted
	// page is unpinned, so no caller still holds it, while a defunct
	// page may still be held by its pinners.
	spare []*Page
	// slab holds pages never used yet, allocated pageSlab at a time as
	// the pool first fills, so filling it costs one allocation per slab
	// rather than one per frame.
	slab []Page

	rec  *trace.Recorder // nil unless tracing is enabled
	node int             // owning node id, stamped into trace events
}

// New creates a pool of `capacity` stripe-block frames.
func New(k *sim.Kernel, capacity int, policy Policy) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufferpool: capacity %d", capacity))
	}
	return &Pool{
		k:        k,
		capacity: capacity,
		free:     capacity,
		table:    make(map[PageID]*Page, capacity),
		policy:   policy,
	}
}

// SetTrace attaches a trace recorder (nil is fine: emits become
// no-ops) and records the owning node's id for event attribution.
func (b *Pool) SetTrace(rec *trace.Recorder, node int) {
	b.rec = rec
	b.node = node
}

// Capacity returns the frame count.
func (b *Pool) Capacity() int { return b.capacity }

// Resident returns the number of pages in the table.
func (b *Pool) Resident() int { return len(b.table) }

// Contains reports whether the block is resident (valid or in flight).
// Delayed prefetching uses it to skip redundant prefetches cheaply.
func (b *Pool) Contains(id PageID) bool {
	_, ok := b.table[id]
	return ok
}

// Acquire is the single entry point for both demand requests
// (prefetch=false, terminal = requesting terminal) and prefetches
// (prefetch=true). The returned page is pinned; the caller must Unpin it
// when done (for MustFetch, typically after FetchComplete and any reply).
//
// While every frame is pinned or in flight, which is exactly the paper's
// low-memory stall regime, Acquire returns a nil page and queues a on the
// frame waiters in FIFO order; a fires when a frame may have come free
// and calls Acquire again.
func (b *Pool) Acquire(a sim.Action, id PageID, terminal int, prefetch bool) (*Page, Outcome) {
	pg, out := b.acquire(id, terminal, prefetch)
	if pg == nil {
		b.stats.AllocWaits++
		b.waiters.Add(b.k, a)
	}
	return pg, out
}

// acquire pins the page for id, evicting a victim if it must, or returns
// a nil page when every frame is pinned or in flight.
func (b *Pool) acquire(id PageID, terminal int, prefetch bool) (*Page, Outcome) {
	for {
		if pg, ok := b.table[id]; ok {
			return b.acquireResident(pg, terminal, prefetch)
		}
		if b.free > 0 {
			b.free--
			return b.insertNew(id, terminal, prefetch), MustFetch
		}
		v := b.policy.Victim()
		if v == nil {
			return nil, MustFetch
		}
		b.evict(v)
	}
}

func (b *Pool) acquireResident(pg *Page, terminal int, prefetch bool) (*Page, Outcome) {
	if prefetch {
		// The prefetcher found the block already resident: nothing to do.
		b.stats.PrefetchSkip++
		pg.pin++
		if pg.state == stateValid {
			return pg, Hit
		}
		return pg, InFlight
	}
	b.stats.DemandRefs++
	if pg.referencedByOther(terminal) {
		b.stats.SharedRefs++
	}
	if pg.prefetched {
		// The demand reference a prefetched page was held for has
		// arrived — under love-prefetch, the protected chain paid off.
		b.rec.PoolProtect(b.node, terminal, pg.ID.Video, pg.ID.Block)
	}
	pg.noteReference(terminal)
	b.policy.OnReference(pg)
	pg.pin++
	if pg.state == stateValid {
		b.stats.DemandHits++
		b.rec.PoolHit(b.node, terminal, pg.ID.Video, pg.ID.Block, false)
		return pg, Hit
	}
	b.stats.InFlightHits++
	b.rec.PoolHit(b.node, terminal, pg.ID.Video, pg.ID.Block, true)
	return pg, InFlight
}

// pageSlab is how many pages insertNew allocates at once while the pool
// fills.
const pageSlab = 64

func (b *Pool) insertNew(id PageID, terminal int, prefetch bool) *Page {
	var pg *Page
	if n := len(b.spare); n > 0 {
		pg = b.spare[n-1]
		b.spare = b.spare[:n-1]
	} else {
		if len(b.slab) == 0 {
			// No more pages than the free frames (this one included)
			// could take before evictions supply spares.
			b.slab = make([]Page, min(pageSlab, b.free+1))
		}
		pg = &b.slab[0]
		b.slab = b.slab[1:]
	}
	// An evicted page's Ready has fired and released its waiters; reset,
	// it keeps their backing array for the next fetch's waiters.
	ready := pg.Ready
	ready.Reset()
	*pg = Page{ID: id, state: stateFetching, pin: 1, firstRef: -1, Ready: ready}
	if prefetch {
		b.rec.PoolPrefetch(b.node, terminal, id.Video, id.Block)
	} else {
		b.stats.DemandRefs++
		b.stats.Misses++
		pg.noteReference(terminal)
		b.rec.PoolMiss(b.node, terminal, id.Video, id.Block)
	}
	b.table[id] = pg
	b.policy.OnInsert(pg, prefetch)
	return pg
}

func (b *Pool) evict(pg *Page) {
	if !pg.evictable() {
		panic("bufferpool: evicting unevictable page")
	}
	b.rec.PoolEvict(b.node, pg.ID.Video, pg.ID.Block, pg.prefetched)
	b.policy.OnEvict(pg)
	delete(b.table, pg.ID)
	b.free++
	b.stats.Evictions++
	b.spare = append(b.spare, pg)
}

// FetchComplete marks the page's data as arrived and wakes whatever
// waits on Page.Ready. The caller still holds its pin.
func (b *Pool) FetchComplete(pg *Page) {
	if pg.state != stateFetching || pg.defunct {
		panic("bufferpool: FetchComplete on non-fetching page")
	}
	pg.state = stateValid
	pg.Ready.Fire()
}

// FetchFailed aborts an outstanding fetch whose disk read died (the drive
// fail-stopped). The page is removed from the table and the policy so a
// later acquire of the same block allocates a fresh frame; its frame
// returns to the free list; Ready fires so in-flight waiters wake — they
// must check Page.Valid() and treat false as a failed read. The caller and
// any waiters still Unpin as usual (no-ops on the defunct page).
func (b *Pool) FetchFailed(pg *Page) {
	if pg.state != stateFetching || pg.defunct {
		panic("bufferpool: FetchFailed on non-fetching page")
	}
	pg.defunct = true
	b.policy.OnEvict(pg)
	delete(b.table, pg.ID)
	b.free++
	b.stats.FetchFails++
	b.waiters.Signal()
	pg.Ready.Fire()
}

// Unpin releases one pin. When a page becomes evictable, one frame
// waiter is woken to retry its allocation.
func (b *Pool) Unpin(pg *Page) {
	if pg.defunct {
		return // frame already reclaimed by FetchFailed
	}
	if pg.pin <= 0 {
		panic("bufferpool: unpin of unpinned page")
	}
	pg.pin--
	if pg.evictable() {
		b.waiters.Signal()
	}
}

// Stats returns a copy of the counters.
func (b *Pool) Stats() Stats { return b.stats }
