// Package bufferpool implements the SPIFFI video-server buffer pool
// (§5.2.1): a fixed set of stripe-block frames, a page table keyed by
// (video, block), and pluggable page replacement — the basic global LRU
// algorithm and the paper's "love prefetch" two-chain algorithm that
// favors prefetched-but-unreferenced pages over already-referenced ones.
// Continuations that need a frame when none is evictable wait until one
// is unpinned (the paper's "server began to run out of free pages"
// regime).
package bufferpool

import (
	"spiffi/internal/sim"
)

// PageID identifies a stripe block.
type PageID struct {
	Video int
	Block int
}

// pageState tracks a page's fetch lifecycle.
type pageState uint8

const (
	stateFetching pageState = iota // frame owned, disk read outstanding
	stateValid                     // data present
)

// Page is one resident stripe block.
type Page struct {
	ID PageID

	state pageState
	pin   int

	// Ready fires when the outstanding fetch completes; waiters of an
	// in-flight page block on it. It is part of the page, so inserting a
	// page is one allocation.
	Ready sim.Event

	// prefetched reports the page currently sits on the prefetched-pages
	// chain (it was brought in by a prefetch and has not yet been
	// referenced by any terminal).
	prefetched bool

	// defunct marks a page whose fetch failed (disk fail-stop): it has
	// been removed from the table and the policy, its frame returned to
	// the free list. Waiters woken by Ready must check Valid() — false
	// means the read died. Remaining Unpins on a defunct page are no-ops.
	defunct bool

	// firstRef and shared record the terminals that have
	// demand-referenced this page while resident, for the paper's Figure
	// 16 sharing statistic. firstRef is the first such terminal (-1 for
	// none) and shared is set once a second, different one refers to it.
	// That is all referencedByOther needs to know of the set.
	firstRef int32
	shared   bool

	// Intrusive chain links managed by the replacement policy.
	prev, next *Page
	chain      *chain
}

// Valid reports whether the page's data has arrived.
func (pg *Page) Valid() bool { return pg.state == stateValid }

// Prefetched reports whether the page sits on the prefetched chain.
func (pg *Page) Prefetched() bool { return pg.prefetched }

// referencedByOther reports whether any terminal other than t has
// demand-referenced the page while resident.
func (pg *Page) referencedByOther(t int) bool {
	return pg.shared || pg.firstRef >= 0 && int(pg.firstRef) != t
}

// noteReference records a demand reference by terminal t.
func (pg *Page) noteReference(t int) {
	if pg.firstRef < 0 {
		pg.firstRef = int32(t)
	} else if int(pg.firstRef) != t {
		pg.shared = true
	}
}

// evictable reports whether the replacement policy may take this frame.
func (pg *Page) evictable() bool { return pg.pin == 0 && pg.state == stateValid }

// chain is an intrusive doubly-linked LRU list of pages: head is the
// least recently used end, tail the most recently used.
type chain struct {
	head, tail *Page
	size       int
}

func (c *chain) pushTail(pg *Page) {
	pg.chain = c
	pg.prev = c.tail
	pg.next = nil
	if c.tail != nil {
		c.tail.next = pg
	} else {
		c.head = pg
	}
	c.tail = pg
	c.size++
}

func (c *chain) remove(pg *Page) {
	if pg.chain != c {
		panic("bufferpool: removing page from wrong chain")
	}
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		c.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		c.tail = pg.prev
	}
	pg.prev, pg.next, pg.chain = nil, nil, nil
	c.size--
}

// firstEvictable scans from the LRU end for an evictable page.
func (c *chain) firstEvictable() *Page {
	for pg := c.head; pg != nil; pg = pg.next {
		if pg.evictable() {
			return pg
		}
	}
	return nil
}

// Len returns the number of pages on the chain.
func (c *chain) Len() int { return c.size }
