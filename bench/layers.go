package main

import (
	"flag"
	"testing"
	"time"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/cpu"
	"spiffi/internal/disk"
	"spiffi/internal/dsched"
	"spiffi/internal/layout"
	"spiffi/internal/network"
	"spiffi/internal/prefetch"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/server"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Layer micro-benchmarks: each times one operation of one layer through
// the package's exported API, with the layers below it real (a server
// request still crosses the CPU facility, the pool and the disk). They
// run through testing.Benchmark from main and through go test -bench
// from layers_test.go. The terminal's internals are not exported, so the
// terminal layer is measured only by CPU share and model counters.

// micro is one layer micro-benchmark. It reports <name>.ns, and
// <name>.allocs when allocs is set.
type micro struct {
	name   string
	allocs bool
	fn     func(b *testing.B)
}

var micros = []micro{
	{"sim.event", true, benchEvent},
	{"sim.handoff", true, benchHandoff},
	{"sim.spawn", true, benchSpawn},
	{"sim.mailbox", false, benchMailbox},
	{"network.send", true, benchNetworkSend},
	{"server.deliver_hit", true, func(b *testing.B) { benchServerDeliver(b, true) }},
	{"server.deliver_miss", true, func(b *testing.B) { benchServerDeliver(b, false) }},
	{"cpu.execute", false, benchCPUExecute},
	{"bufferpool.acquire_hit", true, benchAcquireHit},
	{"bufferpool.acquire_evict.lru", true, func(b *testing.B) { benchAcquireEvict(b, bufferpool.PolicyGlobalLRU) }},
	{"bufferpool.acquire_evict.love", true, func(b *testing.B) { benchAcquireEvict(b, bufferpool.PolicyLovePrefetch) }},
	{"dsched.add_next.elevator", false, func(b *testing.B) { benchAddNext(b, dsched.Config{Kind: dsched.KindElevator}) }},
	{"dsched.add_next.gss", false, func(b *testing.B) { benchAddNext(b, dsched.Config{Kind: dsched.KindGSS, Groups: 1}) }},
	{"dsched.add_next.realtime", false, func(b *testing.B) {
		benchAddNext(b, dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second})
	}},
	{"prefetch.deadline", false, benchPrefetchDeadline},
	{"disk.submit", true, benchDiskSubmit},
	{"cache.lookup.lru", false, func(b *testing.B) { benchCacheLookup(b, cache.PolicyLRU) }},
	{"cache.lookup.zipf_rank", false, func(b *testing.B) { benchCacheLookup(b, cache.PolicyZipfRank) }},
	{"cache.insert_evict.lru", false, func(b *testing.B) { benchCacheInsertEvict(b, cache.PolicyLRU) }},
	{"cache.insert_evict.zipf_rank", false, func(b *testing.B) { benchCacheInsertEvict(b, cache.PolicyZipfRank) }},
	{"trace.emit", true, benchTraceEmit},
	{"trace.emit_off", false, benchTraceEmitOff},
}

// queueDepth is the number of requests kept pending in the scheduler and
// prefetch-queue benchmarks: a deep queue, as under a saturated disk.
const queueDepth = 32

const stripe = 512 * 1024

// runMicros runs every micro-benchmark for about budget in total and
// returns the per-operation results of those that passed, and the names
// of any that failed.
func runMicros(budget time.Duration) (map[string]float64, []string) {
	testing.Init()
	// testing.Benchmark grows b.N until one pass takes benchtime, so a
	// benchmark takes about twice its benchtime in all.
	per := budget / time.Duration(2*len(micros))
	if err := flag.Set("test.benchtime", per.String()); err != nil {
		panic(err) // the flag exists once testing.Init has run
	}
	out := map[string]float64{}
	var failed []string
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		if r.N == 0 {
			failed = append(failed, m.name)
			continue
		}
		out[m.name+".ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		if m.allocs {
			out[m.name+".allocs"] = float64(r.MemAllocs) / float64(r.N)
		}
	}
	return out, failed
}

func drain(b *testing.B, k *sim.Kernel) {
	if err := k.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// benchEvent times scheduling and dispatching one calendar event.
func benchEvent(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	n := 0
	var fn func()
	fn = func() {
		if n++; n < b.N {
			k.After(1, fn)
		}
	}
	k.After(1, fn)
	b.ResetTimer()
	drain(b, k)
}

// benchHandoff times one Proc.Sleep round trip: the process yields to
// the kernel and is resumed by a timed wake.
func benchHandoff(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	drain(b, k)
}

// benchSpawn times spawning a process and running it to completion.
func benchSpawn(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	fn := func(*sim.Proc) {}
	for i := 0; i < b.N; i++ {
		k.Spawn("bench", fn)
		drain(b, k)
	}
}

// benchMailbox times one Put and one Get that does not block.
func benchMailbox(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	mb := sim.NewMailbox[int](k)
	for i := 0; i < b.N; i++ {
		mb.Put(i)
		if mb.Get(nil) != i {
			b.Fatal("mailbox out of order")
		}
	}
}

// benchNetworkSend times sending one data reply and delivering it.
func benchNetworkSend(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	n := network.New(k, network.DefaultParams())
	delivered := 0
	deliver := func() { delivered++ }
	for i := 0; i < b.N; i++ {
		n.Send(stripe+proto.ReplyHeaderBytes, deliver)
		if i%queueDepth == queueDepth-1 {
			drain(b, k)
		}
	}
	drain(b, k)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// benchServerDeliver times one block request through a one-disk node,
// from arrival to the reply's delivery: CPU receive, pool acquire, the
// disk read on a miss, CPU send and the wire. Prefetching is off so each
// operation is exactly one request.
func benchServerDeliver(b *testing.B, hit bool) {
	const blocks = 64
	k := sim.NewKernel()
	defer k.Close()
	net := network.New(k, network.DefaultParams())
	place := layout.NewStriped([]int64{blocks * stripe}, stripe, 1, 1)
	node := server.New(k, 0, server.Config{
		PoolPages:   8,
		Replacement: bufferpool.PolicyGlobalLRU,
		Sched:       dsched.Config{Kind: dsched.KindElevator},
		Prefetch:    prefetch.Config{Mode: prefetch.ModeOff},
		MIPS:        40,
		CPUCosts:    cpu.DefaultCosts(),
		DiskParams:  disk.DefaultParams(),
	}, net, place, []*rng.Source{rng.New(1)}, sim.Second)
	replies := 0
	req := &proto.BlockRequest{Size: stripe, Deliver: func(*proto.BlockRequest) { replies++ }}
	request := func(i int) {
		if !hit {
			req.Block = i % blocks // cycles through 64 blocks in an 8-page pool
		}
		req.Deadline = k.Now().Add(sim.Second)
		node.DeliverRequest(req)
		drain(b, k)
	}
	request(0) // brings block 0 in for the hit case
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i + 1)
	}
	b.StopTimer()
	st := node.Pool().Stats()
	if replies != b.N+1 || (hit && st.DemandHits != int64(b.N)) || (!hit && st.Misses != int64(b.N+1)) {
		b.Fatalf("replies=%d hits=%d misses=%d for %d requests", replies, st.DemandHits, st.Misses, b.N+1)
	}
}

// benchCPUExecute times charging one message receive on an idle CPU.
func benchCPUExecute(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	c := cpu.New(k, 0, 40, cpu.DefaultCosts())
	k.Spawn("cpu", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Receive(p)
		}
	})
	b.ResetTimer()
	drain(b, k)
}

// fillPool makes every frame of a pool hold a valid, unpinned page.
func fillPool(pool *bufferpool.Pool) {
	for i := 0; i < pool.Capacity(); i++ {
		pg, _ := pool.Acquire(nil, bufferpool.PageID{Block: i}, 0, i%2 == 1)
		pool.FetchComplete(pg)
		pool.Unpin(pg)
	}
}

// benchAcquireHit times a demand reference to a resident page.
func benchAcquireHit(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	pool := bufferpool.New(k, 64, bufferpool.NewGlobalLRU())
	fillPool(pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The pool never blocks here: the page is resident.
		pg, out := pool.Acquire(nil, bufferpool.PageID{Block: i % 64}, i%8, false)
		if out != bufferpool.Hit {
			b.Fatalf("outcome %v, want hit", out)
		}
		pool.Unpin(pg)
	}
}

// benchAcquireEvict times bringing a new page into a full pool: victim
// selection, eviction, insertion and fetch completion. Every other page
// is a prefetch, so love prefetch keeps both of its chains populated.
func benchAcquireEvict(b *testing.B, kind bufferpool.PolicyKind) {
	k := sim.NewKernel()
	defer k.Close()
	pool := bufferpool.New(k, 64, kind.New())
	fillPool(pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, out := pool.Acquire(nil, bufferpool.PageID{Block: 64 + i}, 0, i%2 == 1)
		if out != bufferpool.MustFetch {
			b.Fatalf("outcome %v, want must-fetch", out)
		}
		pool.FetchComplete(pg)
		pool.Unpin(pg)
	}
}

// benchAddNext times one Add and one Next on a scheduler holding
// queueDepth requests, the way a busy disk cycles its queue.
func benchAddNext(b *testing.B, cfg dsched.Config) {
	s := cfg.New()
	var now sim.Time
	var seq uint64
	set := func(r *dsched.Request, i int) {
		seq++
		*r = dsched.Request{
			Cylinder: (i * 7919) % 3000,
			Deadline: now.Add(sim.Duration(i%97) * 100 * sim.Millisecond),
			Terminal: i % 256,
			Seq:      seq,
		}
	}
	for i := 0; i < queueDepth; i++ {
		r := &dsched.Request{}
		set(r, i)
		s.Add(r)
	}
	head := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * sim.Millisecond)
		r := s.Next(now, head)
		head = r.Cylinder
		set(r, queueDepth+i)
		s.Add(r)
	}
}

// benchPrefetchDeadline times one Put and one Get on a real-time
// prefetch queue holding queueDepth jobs.
func benchPrefetchDeadline(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	q := prefetch.NewDeadline(k, 0)
	job := func(i int) prefetch.Job {
		return prefetch.Job{Video: i % 64, Block: i, Deadline: sim.Time((i * 7919) % 100000)}
	}
	for i := 0; i < queueDepth; i++ {
		q.Put(job(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(job(queueDepth + i))
		q.Get(nil) // never blocks: the queue is non-empty and issues at once
	}
}

// benchDiskSubmit times submitting one read and serving it: scheduling,
// the seek/rotation/transfer model and the service process's handoff.
func benchDiskSubmit(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	served := 0
	d := disk.New(k, 0, disk.DefaultParams(), dsched.NewElevator(), rng.New(1),
		func(*dsched.Request) { served++ })
	reqs := make([]dsched.Request, queueDepth)
	b.ResetTimer()
	for i := 0; i < b.N; i += queueDepth {
		for j := 0; j < queueDepth && i+j < b.N; j++ {
			reqs[j] = dsched.Request{Offset: int64((i+j)*7919%4000) * 1_250_000, Size: stripe}
			d.Submit(&reqs[j])
		}
		drain(b, k)
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d", served, b.N)
	}
}

// newFullCache returns a cache holding 16 prefix blocks of each of four
// videos, with no room left.
func newFullCache(policy cache.PolicyKind) *cache.Cache {
	cfg := cache.Config{BudgetBytes: 64 * stripe, Policy: policy, PrefixBlocks: 16}.Normalize()
	c := cache.New(cfg, cfg.BudgetBytes, 64)
	for i := 0; i < 64; i++ {
		c.Insert(i/16, i%16, stripe)
	}
	return c
}

// benchCacheLookup times a prefix lookup, half of them hits.
func benchCacheLookup(b *testing.B, policy cache.PolicyKind) {
	c := newFullCache(policy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(i%8, i%16)
	}
}

// benchCacheInsertEvict times admitting a block into a full cache, which
// evicts one victim under the policy.
func benchCacheInsertEvict(b *testing.B, policy cache.PolicyKind) {
	c := newFullCache(policy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Videos 4..63 in turn: never resident when inserted, since
		// zipf-rank (all counts equal) keeps the lowest video ids and
		// LRU holds only the last 64 of these 960 blocks.
		c.Insert(4+(i/16)%60, i%16, stripe)
	}
	b.StopTimer()
	if c.Stats().Evictions < int64(b.N) {
		b.Fatalf("%d evictions for %d inserts", c.Stats().Evictions, b.N)
	}
}

// benchTraceEmit times one event into an enabled recorder.
func benchTraceEmit(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	rec := trace.NewRecorder(k, trace.Options{Enabled: true, Capacity: 1 << 12})
	for i := 0; i < b.N; i++ {
		rec.PoolHit(0, i, 1, 2, false)
	}
}

// offRecorder is nil, the recorder every layer holds with tracing off. A
// package variable keeps the compiler from proving it nil at the call.
var offRecorder *trace.Recorder

// benchTraceEmitOff times an emit with tracing disabled.
func benchTraceEmitOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		offRecorder.PoolHit(0, i, 1, 2, false)
	}
}
