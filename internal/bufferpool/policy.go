package bufferpool

// Policy is a page replacement algorithm: it orders resident pages and
// nominates eviction victims. The pool calls it with interleaving-safe
// single-threaded simulation semantics.
type Policy interface {
	// OnInsert places a newly allocated page, which entered the pool via
	// a prefetch (prefetched=true) or a demand miss.
	OnInsert(pg *Page, prefetched bool)
	// OnReference records a demand reference to a resident page.
	OnReference(pg *Page)
	// Victim nominates the page to evict, or nil if none is evictable.
	// The page is not removed; the pool calls OnEvict when it commits.
	Victim() *Page
	// OnEvict removes the page from the policy's structures.
	OnEvict(pg *Page)
}

// GlobalLRU is the basic SPIFFI policy (§5.2.1): a single LRU chain that
// does not distinguish prefetched from referenced pages. The victim is
// the first available page from the LRU end.
type GlobalLRU struct {
	lru chain
}

// NewGlobalLRU returns an empty global LRU policy.
func NewGlobalLRU() *GlobalLRU { return &GlobalLRU{} }

// OnInsert implements Policy.
func (g *GlobalLRU) OnInsert(pg *Page, prefetched bool) {
	pg.prefetched = prefetched
	g.lru.pushTail(pg)
}

// OnReference implements Policy.
func (g *GlobalLRU) OnReference(pg *Page) {
	pg.prefetched = false
	g.lru.remove(pg)
	g.lru.pushTail(pg)
}

// Victim implements Policy.
func (g *GlobalLRU) Victim() *Page { return g.lru.firstEvictable() }

// OnEvict implements Policy.
func (g *GlobalLRU) OnEvict(pg *Page) { g.lru.remove(pg) }

// LovePrefetch is the paper's two-chain policy (§5.2.1, Figure 4):
// prefetched pages live on their own LRU chain and move to the
// referenced-pages chain on first reference. Victims come from the
// referenced chain first — video data is consumed once and almost never
// re-referenced, so protecting unconsumed prefetched pages (and
// sacrificing already-consumed referenced pages) minimizes wasted
// prefetch I/O and memory.
type LovePrefetch struct {
	prefetched chain
	referenced chain
}

// NewLovePrefetch returns an empty love-prefetch policy.
func NewLovePrefetch() *LovePrefetch { return &LovePrefetch{} }

// OnInsert implements Policy.
func (l *LovePrefetch) OnInsert(pg *Page, prefetched bool) {
	pg.prefetched = prefetched
	if prefetched {
		l.prefetched.pushTail(pg)
	} else {
		l.referenced.pushTail(pg)
	}
}

// OnReference implements Policy.
func (l *LovePrefetch) OnReference(pg *Page) {
	pg.chain.remove(pg)
	pg.prefetched = false
	l.referenced.pushTail(pg)
}

// Victim implements Policy.
func (l *LovePrefetch) Victim() *Page {
	if pg := l.referenced.firstEvictable(); pg != nil {
		return pg
	}
	return l.prefetched.firstEvictable()
}

// OnEvict implements Policy.
func (l *LovePrefetch) OnEvict(pg *Page) { pg.chain.remove(pg) }

// PrefetchedLen and ReferencedLen expose chain sizes for tests and
// instrumentation.
func (l *LovePrefetch) PrefetchedLen() int { return l.prefetched.Len() }

// ReferencedLen returns the referenced-chain length.
func (l *LovePrefetch) ReferencedLen() int { return l.referenced.Len() }

// PolicyKind selects a replacement policy in configurations.
type PolicyKind string

// The two policies the paper compares.
const (
	PolicyGlobalLRU    PolicyKind = "global-lru"
	PolicyLovePrefetch PolicyKind = "love-prefetch"
)

// New builds a policy instance.
func (k PolicyKind) New() Policy {
	switch k {
	case PolicyGlobalLRU:
		return NewGlobalLRU()
	case PolicyLovePrefetch:
		return NewLovePrefetch()
	default:
		panic("bufferpool: unknown policy kind " + string(k))
	}
}
