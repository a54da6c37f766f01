package bufferpool

import (
	"slices"
	"testing"
	"testing/quick"

	"spiffi/internal/sim"
)

// runInProc executes fn inside a simulation process and drives the kernel
// to completion.
func runInProc(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("test", fn)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// acquire is Acquire for a test process: while no frame can be had, the
// process waits until the pool fires the continuation Acquire queued.
func acquire(p *sim.Proc, b *Pool, id PageID, terminal int, prefetch bool) (*Page, Outcome) {
	for {
		var freed sim.Queue
		if pg, out := b.Acquire(sim.Func(func() { freed.Signal() }), id, terminal, prefetch); pg != nil {
			return pg, out
		}
		freed.Wait(p)
	}
}

// awaitReady parks test process p until pg's fetch completes.
func awaitReady(p *sim.Proc, k *sim.Kernel, pg *Page) {
	var ready sim.Queue
	if !pg.Ready.Then(k, sim.Func(func() { ready.Signal() })) {
		ready.Wait(p)
	}
}

func TestAcquireMissFetchHit(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 4, NewGlobalLRU())
	k.Spawn("t", func(p *sim.Proc) {
		id := PageID{Video: 1, Block: 7}
		pg, out := acquire(p, b, id, 0, false)
		if out != MustFetch {
			t.Errorf("first acquire = %v, want MustFetch", out)
		}
		if pg.Valid() {
			t.Error("page valid before fetch")
		}
		b.FetchComplete(pg)
		b.Unpin(pg)

		pg2, out2 := acquire(p, b, id, 0, false)
		if out2 != Hit {
			t.Errorf("second acquire = %v, want Hit", out2)
		}
		if pg2 != pg {
			t.Error("hit returned a different page")
		}
		b.Unpin(pg2)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Misses != 1 || s.DemandHits != 1 || s.DemandRefs != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInFlightSecondRequesterWaits(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 4, NewGlobalLRU())
	id := PageID{Video: 0, Block: 0}
	var order []string
	k.Spawn("fetcher", func(p *sim.Proc) {
		pg, out := acquire(p, b, id, 0, false)
		if out != MustFetch {
			t.Errorf("out = %v", out)
		}
		p.Sleep(100) // simulated disk read
		b.FetchComplete(pg)
		order = append(order, "fetched")
		b.Unpin(pg)
	})
	k.SpawnAt(10, "waiter", func(p *sim.Proc) {
		pg, out := acquire(p, b, id, 1, false)
		if out != InFlight {
			t.Errorf("out = %v, want InFlight", out)
		}
		awaitReady(p, k, pg)
		if !pg.Valid() {
			t.Error("page not valid after Ready")
		}
		order = append(order, "consumed")
		b.Unpin(pg)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fetched" || order[1] != "consumed" {
		t.Fatalf("order = %v", order)
	}
	if s := b.Stats(); s.InFlightHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// fill inserts n valid unpinned pages for video 9.
func fill(p *sim.Proc, b *Pool, n int) []*Page {
	pages := make([]*Page, n)
	for i := 0; i < n; i++ {
		pg, out := acquire(p, b, PageID{Video: 9, Block: i}, 0, false)
		if out != MustFetch {
			panic("fill expected MustFetch")
		}
		b.FetchComplete(pg)
		b.Unpin(pg)
		pages[i] = pg
	}
	return pages
}

func TestGlobalLRUEvictsOldest(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 3, NewGlobalLRU())
	k.Spawn("t", func(p *sim.Proc) {
		fill(p, b, 3)
		// Touch block 0 so block 1 is now LRU.
		pg, _ := acquire(p, b, PageID{Video: 9, Block: 0}, 0, false)
		b.Unpin(pg)
		// Insert a new page: block 1 must be evicted.
		npg, out := acquire(p, b, PageID{Video: 9, Block: 99}, 0, false)
		if out != MustFetch {
			t.Errorf("out = %v", out)
		}
		b.FetchComplete(npg)
		b.Unpin(npg)
		if b.Contains(PageID{Video: 9, Block: 1}) {
			t.Error("LRU page (block 1) survived eviction")
		}
		if !b.Contains(PageID{Video: 9, Block: 0}) {
			t.Error("recently used page (block 0) was evicted")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 2, NewGlobalLRU())
	k.Spawn("t", func(p *sim.Proc) {
		// Pin one page, leave the other unpinned.
		pinned, _ := acquire(p, b, PageID{Block: 1}, 0, false)
		b.FetchComplete(pinned)
		loose, _ := acquire(p, b, PageID{Block: 2}, 0, false)
		b.FetchComplete(loose)
		b.Unpin(loose)
		// Next allocation must evict the unpinned page, not the pinned.
		pg, _ := acquire(p, b, PageID{Block: 3}, 0, false)
		b.FetchComplete(pg)
		b.Unpin(pg)
		if !b.Contains(PageID{Block: 1}) {
			t.Error("pinned page evicted")
		}
		if b.Contains(PageID{Block: 2}) {
			t.Error("unpinned page survived")
		}
		b.Unpin(pinned)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLovePrefetchProtectsPrefetchedPages(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	love := NewLovePrefetch()
	b := New(k, 4, love)
	k.Spawn("t", func(p *sim.Proc) {
		// Two prefetched pages (older) and two referenced pages (newer).
		for i := 0; i < 2; i++ {
			pg, _ := acquire(p, b, PageID{Video: 1, Block: i}, -1, true)
			b.FetchComplete(pg)
			b.Unpin(pg)
		}
		for i := 0; i < 2; i++ {
			pg, _ := acquire(p, b, PageID{Video: 2, Block: i}, 0, false)
			b.FetchComplete(pg)
			b.Unpin(pg)
		}
		if love.PrefetchedLen() != 2 || love.ReferencedLen() != 2 {
			t.Errorf("chains = %d/%d, want 2/2", love.PrefetchedLen(), love.ReferencedLen())
		}
		// New allocation: a referenced page must be sacrificed even though
		// prefetched pages are older (global LRU would take those).
		pg, _ := acquire(p, b, PageID{Video: 3, Block: 0}, 0, false)
		b.FetchComplete(pg)
		b.Unpin(pg)
		if !b.Contains(PageID{Video: 1, Block: 0}) || !b.Contains(PageID{Video: 1, Block: 1}) {
			t.Error("prefetched page evicted while referenced pages were available")
		}
		if b.Contains(PageID{Video: 2, Block: 0}) {
			t.Error("oldest referenced page should have been the victim")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLovePrefetchReferenceMovesChains(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	love := NewLovePrefetch()
	b := New(k, 4, love)
	k.Spawn("t", func(p *sim.Proc) {
		pg, _ := acquire(p, b, PageID{Block: 5}, -1, true) // prefetch in
		b.FetchComplete(pg)
		b.Unpin(pg)
		if !pg.Prefetched() {
			t.Error("page should start on prefetched chain")
		}
		pg2, out := acquire(p, b, PageID{Block: 5}, 3, false) // demand ref
		if out != Hit || pg2 != pg {
			t.Errorf("out=%v", out)
		}
		b.Unpin(pg2)
		if pg.Prefetched() {
			t.Error("referenced page must move to referenced chain")
		}
		if love.PrefetchedLen() != 0 || love.ReferencedLen() != 1 {
			t.Errorf("chains = %d/%d", love.PrefetchedLen(), love.ReferencedLen())
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLovePrefetchFallsBackToPrefetchedChain(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 2, NewLovePrefetch())
	k.Spawn("t", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			pg, _ := acquire(p, b, PageID{Block: i}, -1, true)
			b.FetchComplete(pg)
			b.Unpin(pg)
		}
		// No referenced pages exist; must evict from prefetched chain.
		pg, out := acquire(p, b, PageID{Block: 9}, 0, false)
		if out != MustFetch {
			t.Errorf("out = %v", out)
		}
		b.FetchComplete(pg)
		b.Unpin(pg)
		if b.Contains(PageID{Block: 0}) {
			t.Error("oldest prefetched page should be the fallback victim")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireBlocksUntilUnpin(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 1, NewGlobalLRU())
	var got sim.Time = -1
	var hold *Page
	k.Spawn("holder", func(p *sim.Proc) {
		pg, _ := acquire(p, b, PageID{Block: 1}, 0, false)
		b.FetchComplete(pg)
		hold = pg
		// Keep the only frame pinned until t=500.
		p.Sleep(500)
		b.Unpin(hold)
	})
	k.SpawnAt(10, "blocked", func(p *sim.Proc) {
		pg, out := acquire(p, b, PageID{Block: 2}, 1, false)
		got = p.Now()
		if out != MustFetch {
			t.Errorf("out = %v", out)
		}
		b.FetchComplete(pg)
		b.Unpin(pg)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("blocked acquire completed at %v, want 500", got)
	}
	if b.Stats().AllocWaits != 1 {
		t.Fatalf("AllocWaits = %d", b.Stats().AllocWaits)
	}
}

func TestSharingStatsFigure16(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 8, NewGlobalLRU())
	k.Spawn("t", func(p *sim.Proc) {
		id := PageID{Video: 4, Block: 2}
		pg, _ := acquire(p, b, id, 0, false) // terminal 0 references
		b.FetchComplete(pg)
		b.Unpin(pg)
		pg, _ = acquire(p, b, id, 0, false) // same terminal again: not shared
		b.Unpin(pg)
		pg, _ = acquire(p, b, id, 1, false) // another terminal: shared
		b.Unpin(pg)
		pg, _ = acquire(p, b, id, 2, false) // a third: shared
		b.Unpin(pg)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.SharedRefs != 2 {
		t.Fatalf("SharedRefs = %d, want 2", s.SharedRefs)
	}
	if s.DemandRefs != 4 {
		t.Fatalf("DemandRefs = %d", s.DemandRefs)
	}
	if got := s.SharedFraction(); got != 0.5 {
		t.Fatalf("SharedFraction = %v", got)
	}
}

func TestPrefetchSkipsResidentPage(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 4, NewLovePrefetch())
	k.Spawn("t", func(p *sim.Proc) {
		id := PageID{Block: 3}
		pg, _ := acquire(p, b, id, 0, false)
		b.FetchComplete(pg)
		b.Unpin(pg)
		_, out := acquire(p, b, id, -1, true)
		if out != Hit {
			t.Errorf("prefetch of resident page = %v, want Hit", out)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().PrefetchSkip != 1 {
		t.Fatalf("PrefetchSkip = %d", b.Stats().PrefetchSkip)
	}
	// Prefetch probes must not count as demand references.
	if b.Stats().DemandRefs != 1 {
		t.Fatalf("DemandRefs = %d, want 1", b.Stats().DemandRefs)
	}
}

// Property: frames are conserved — resident pages + free frames always
// equals capacity, across random workloads.
func TestFrameConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.NewKernel()
		defer k.Close()
		b := New(k, 4, NewLovePrefetch())
		ok := true
		k.Spawn("t", func(p *sim.Proc) {
			var pinned []*Page
			for _, op := range ops {
				id := PageID{Block: int(op % 16)}
				if op%3 == 0 && len(pinned) > 0 {
					b.Unpin(pinned[0])
					pinned = pinned[1:]
					continue
				}
				if len(pinned) >= 3 {
					// Never pin all frames: Acquire would deadlock this
					// single-process property test.
					b.Unpin(pinned[0])
					pinned = pinned[1:]
				}
				pg, out := acquire(p, b, id, int(op%5), op%7 == 0)
				if out == MustFetch {
					b.FetchComplete(pg)
				}
				pinned = append(pinned, pg)
				if b.Resident()+b.free != b.Capacity() {
					ok = false
					return
				}
			}
			for _, pg := range pinned {
				b.Unpin(pg)
			}
		})
		if err := k.RunAll(); err != nil {
			return false
		}
		return ok && b.Resident()+b.free == b.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyKindFactory(t *testing.T) {
	if _, ok := PolicyGlobalLRU.New().(*GlobalLRU); !ok {
		t.Fatal("global lru factory")
	}
	if _, ok := PolicyLovePrefetch.New().(*LovePrefetch); !ok {
		t.Fatal("love prefetch factory")
	}
}

// frameTaker is a continuation that takes a frame with Acquire, fetches,
// and unpins hold later, logging when it got the frame.
type frameTaker struct {
	b    *Pool
	k    *sim.Kernel
	name string
	id   PageID
	pg   *Page
	hold sim.Duration
	log  *[]string
	at   *[]sim.Time
}

func (f *frameTaker) Fire() {
	if f.pg != nil { // the hold is over
		f.b.Unpin(f.pg)
		return
	}
	pg, out := f.b.Acquire(f, f.id, 0, false)
	if pg == nil {
		return // queued: a freed frame fires f again
	}
	if out != MustFetch {
		panic("frameTaker: want MustFetch")
	}
	f.pg = pg
	*f.log, *f.at = append(*f.log, f.name), append(*f.at, f.k.Now())
	f.b.FetchComplete(pg)
	f.k.Schedule(f.k.Now().Add(f.hold), f)
}

// Continuations queued by Acquire on a full pool wait for a frame in
// FIFO order: each freed frame goes to the oldest waiter, at the instant
// it is unpinned.
func TestAcquireQueuesContinuationsFIFO(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	b := New(k, 1, NewGlobalLRU())
	var log []string
	var at []sim.Time
	for i, name := range []string{"first", "second", "third", "fourth"} {
		// first holds the only frame over [0, 10); the others queue at
		// 1, 2 and 3 and each hold it for 10 in turn.
		k.Schedule(sim.Time(i), &frameTaker{b: b, k: k, name: name, id: PageID{Block: i},
			hold: 10, log: &log, at: &at})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	wantLog := []string{"first", "second", "third", "fourth"}
	wantAt := []sim.Time{0, 10, 20, 30}
	if !slices.Equal(log, wantLog) || !slices.Equal(at, wantAt) {
		t.Fatalf("frames went to %v at %v, want %v at %v", log, at, wantLog, wantAt)
	}
	if s := b.Stats(); s.AllocWaits != 3 || s.Evictions != 3 {
		t.Fatalf("alloc waits %d, evictions %d, want 3 and 3", s.AllocWaits, s.Evictions)
	}
}

// Property: SharedRefs counts exactly the demand references to a page
// that some other terminal demand-referenced while it was resident.
// Random demand and prefetch references by four terminals over 12 blocks
// in a 4-frame pool (so pages are evicted, fail and are reused) are
// checked against a model that keeps each resident page's referrers as a
// set.
func TestSharedRefsMatchReferrerSets(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyGlobalLRU, PolicyLovePrefetch} {
		f := func(ops []uint16) bool {
			k := sim.NewKernel()
			defer k.Close()
			b := New(k, 4, kind.New())
			refs := make(map[PageID]map[int]bool) // resident page -> its referrers
			var shared int64
			var fetching []*Page // pinned, their reads outstanding
			for _, op := range ops {
				if len(fetching) >= 3 || op%5 == 0 && len(fetching) > 0 {
					// Finish the oldest read (one in 7 fails) so at least
					// one frame can always be had.
					pg := fetching[0]
					fetching = fetching[1:]
					if op%7 == 0 {
						b.FetchFailed(pg)
					} else {
						b.FetchComplete(pg)
					}
					b.Unpin(pg)
				}
				prune(b, refs) // a failed read's page left the table
				id := PageID{Video: int(op>>8) % 2, Block: int(op % 6)}
				term, prefetch := int(op>>4)%4, op%3 == 0
				if !prefetch {
					if set := refs[id]; b.Contains(id) && set != nil {
						for r := range set {
							if r != term {
								shared++
								break
							}
						}
					}
				}
				pg, out := b.Acquire(nil, id, term, prefetch)
				if pg == nil {
					return false // a frame was always free
				}
				prune(b, refs) // the acquire evicted a page
				if refs[id] == nil {
					refs[id] = make(map[int]bool)
				}
				if !prefetch {
					refs[id][term] = true
				}
				if out == MustFetch {
					fetching = append(fetching, pg)
				} else {
					b.Unpin(pg)
				}
				if b.Stats().SharedRefs != shared {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// prune drops the model's entries for pages no longer resident.
func prune(b *Pool, refs map[PageID]map[int]bool) {
	for id := range refs {
		if !b.Contains(id) {
			delete(refs, id)
		}
	}
}
