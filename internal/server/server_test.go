package server

import (
	"fmt"
	"slices"
	"testing"

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
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// rig builds one node serving a small striped layout.
type rig struct {
	k     *sim.Kernel
	node  *Node
	place *layout.Placement
	net   *network.Network

	answers map[int]*answer // by terminal, for requests sent with ask
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	// One node, two disks; one "video" of 64 blocks of 256 KB.
	place := layout.NewStriped([]int64{64 * 256 * 1024}, 256*1024, 1, 2)
	net := network.New(k, network.DefaultParams())
	srcs := []*rng.Source{rng.New(1), rng.New(2)}
	node := New(k, 0, cfg, net, place, srcs, sim.Duration(524*sim.Millisecond))
	return &rig{k: k, node: node, place: place, net: net, answers: map[int]*answer{}}
}

func baseCfg() Config {
	return Config{
		PoolPages:   32,
		Replacement: bufferpool.PolicyLovePrefetch,
		Sched:       dsched.Config{Kind: dsched.KindElevator},
		Prefetch:    prefetch.Config{Mode: prefetch.ModeBasic, WorkersPerDisk: 1},
		MIPS:        40,
		CPUCosts:    cpu.DefaultCosts(),
		DiskParams:  disk.DefaultParams(),
	}
}

// request sends a demand request and returns a done-flag pointer.
func (r *rig) request(video, block, term int, deadline sim.Time) *bool {
	done := new(bool)
	req := &proto.BlockRequest{
		Video:    video,
		Block:    block,
		Size:     r.place.SizeOfBlock(video, block),
		Deadline: deadline,
		Terminal: term,
		Deliver:  func(*proto.BlockRequest) { *done = true },
		Issued:   r.k.Now(),
	}
	r.node.DeliverRequest(req)
	return done
}

func TestDemandRequestServed(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	var done *bool
	r.k.At(0, func() { done = r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !*done {
		t.Fatal("request never answered")
	}
	if r.node.Stats().Requests != 1 {
		t.Fatalf("requests = %d", r.node.Stats().Requests)
	}
	if r.node.Pool().Stats().Misses != 1 {
		t.Fatalf("pool misses = %d, want 1", r.node.Pool().Stats().Misses)
	}
}

func TestSecondRequestHitsPool(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	var done *bool
	r.k.At(sim.Time(sim.Second), func() { done = r.request(0, 0, 2, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(3 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !*done {
		t.Fatal("second request unanswered")
	}
	ps := r.node.Pool().Stats()
	if ps.DemandHits < 1 {
		t.Fatalf("no pool hit on re-request: %+v", ps)
	}
	if ps.SharedRefs != 1 {
		t.Fatalf("sharedRefs = %d, want 1 (different terminal)", ps.SharedRefs)
	}
	// Only one disk read happened for the block itself.
	demandReads := int64(0)
	for _, d := range r.node.Disks() {
		demandReads += d.Stats().Served - d.Stats().PrefetchOps
	}
	if demandReads != 1 {
		t.Fatalf("demand disk reads = %d, want 1", demandReads)
	}
}

func TestPrefetchTriggeredForNextBlockOnSameDisk(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	// Block 0 lives on disk 0; the next block on disk 0 is block 2
	// (1 node x 2 disks).
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(3 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if r.node.Stats().Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", r.node.Stats().Prefetches)
	}
	if !r.node.Pool().Contains(bufferpool.PageID{Video: 0, Block: 2}) {
		t.Fatal("next block on same disk was not prefetched")
	}
	if r.node.Pool().Contains(bufferpool.PageID{Video: 0, Block: 1}) {
		t.Fatal("block 1 (other disk) must not have been prefetched")
	}
}

func TestPrefetchedBlockHitsWithoutDiskRead(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	var done *bool
	// Later, request block 2 — it should be a pure pool hit.
	r.k.At(sim.Time(2*sim.Second), func() { done = r.request(0, 2, 1, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(4 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !*done {
		t.Fatal("unanswered")
	}
	ps := r.node.Pool().Stats()
	if ps.DemandHits != 1 {
		t.Fatalf("demand hits = %d, want 1 (prefetched block)", ps.DemandHits)
	}
}

// A demand for a block whose prefetch is still queued behind demand
// reads on a busy disk tightens the prefetch's deadline to its own
// (§5.2.3), so the real-time scheduler dispatches the prefetch ahead of
// the lazier reads it was queued behind.
func TestDeadlineTighteningOnInflightPrefetch(t *testing.T) {
	r, rec := tracedRig(t, func(c *Config) {
		c.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
		c.Prefetch = prefetch.Config{Mode: prefetch.ModeRealTime, WorkersPerDisk: 1}
	})
	defer r.k.Close()
	// Disk 0 reads block 0 at once, and blocks 4, 6 and 8 (6 s deadlines:
	// the middle priority class) queue behind it. Block 0's reference
	// prefetches block 2 with a deadline estimated from block 0's lazy
	// 60 s one (the lowest class). Block 0's reply asks for block 2 with
	// a 1 s deadline (the highest class) while the disk still reads one
	// of the other three and the prefetch waits in its queue.
	var urgent *bool
	var asked sim.Time
	r.k.At(0, func() {
		r.node.DeliverRequest(&proto.BlockRequest{
			Block:    0,
			Size:     r.place.SizeOfBlock(0, 0),
			Deadline: sim.Time(60 * sim.Second),
			Terminal: 1,
			Deliver: func(*proto.BlockRequest) {
				asked = r.k.Now()
				urgent = r.request(0, 2, 5, asked.Add(sim.Second))
			},
		})
		for i, b := range []int{4, 6, 8} {
			r.request(0, b, 2+i, sim.Time(6*sim.Second))
		}
	})
	if err := r.k.Run(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if urgent == nil || !*urgent {
		t.Fatal("the urgent demand was never answered")
	}
	if s := r.node.Stats(); s.DeadlineUps != 1 || s.Prefetches != 2 {
		t.Fatalf("deadline tightenings %d, prefetch reads %d, want 1 and 2 (blocks 2 and 10)",
			s.DeadlineUps, s.Prefetches)
	}
	if ps := r.node.Pool().Stats(); ps.InFlightHits != 1 {
		t.Fatalf("in-flight hits = %d, want 1: the urgent demand waits on the prefetch", ps.InFlightHits)
	}
	var order []int32
	var prefetchAt sim.Time
	for _, ev := range rec.Snapshot().Events {
		if ev.Kind == trace.KindDiskDispatch && ev.A == 0 {
			if ev.Terminal == -1 && prefetchAt == 0 {
				prefetchAt = ev.T
			}
			order = append(order, ev.Terminal)
		}
	}
	if prefetchAt <= asked {
		t.Fatalf("the prefetch was dispatched at %v, not after the urgent demand at %v", prefetchAt, asked)
	}
	// Block 0, the read in service when block 2 was asked for, then the
	// tightened prefetch, then the other two lazy reads, and last the
	// prefetch of block 10 that block 8's reference queued.
	if want := []int32{1, 2, -1, 3, 4, -1}; !slices.Equal(order, want) {
		t.Fatalf("disk 0 dispatched terminals %v, want %v", order, want)
	}
}

func TestMisroutedRequestPanics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	// Two nodes' layout, but we build only node 0 and send it a block
	// belonging to node 1.
	place := layout.NewStriped([]int64{64 * 256 * 1024}, 256*1024, 2, 1)
	net := network.New(k, network.DefaultParams())
	node := New(k, 0, baseCfg(), net, place, []*rng.Source{rng.New(1)}, sim.Second)
	k.At(0, func() {
		node.DeliverRequest(&proto.BlockRequest{
			Video: 0, Block: 1, Size: 256 * 1024,
			Deliver: func(*proto.BlockRequest) {},
		})
	})
	if err := k.Run(sim.Time(sim.Second)); err == nil {
		t.Fatal("misrouted request must fail loudly")
	}
}

func TestCPUChargedForRequestHandling(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if r.node.CPU().BusyTime() <= 0 {
		t.Fatal("CPU shows zero busy time after handling a request")
	}
}

func TestAllocWaitsWhenPoolExhausted(t *testing.T) {
	cfg := baseCfg()
	cfg.PoolPages = 2 // pathological: fewer frames than concurrent work
	cfg.Prefetch.Mode = prefetch.ModeOff
	r := newRig(t, cfg)
	defer r.k.Close()
	r.k.At(0, func() {
		for b := 0; b < 6; b++ {
			r.request(0, b, b, sim.Time(10*sim.Second))
		}
	})
	if err := r.k.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	ps := r.node.Pool().Stats()
	if ps.AllocWaits == 0 {
		t.Fatal("six concurrent requests on a 2-page pool never waited for frames")
	}
	// All requests must nevertheless complete (waiters are woken).
	if r.node.Stats().Requests != 6 {
		t.Fatalf("requests handled = %d, want 6", r.node.Stats().Requests)
	}
}

func TestPrefetchWorkerSkipsResidentJob(t *testing.T) {
	r := newRig(t, baseCfg())
	defer r.k.Close()
	// Demand block 0 twice in quick succession from different terminals:
	// the second demand's prefetch trigger for block 2 finds it already
	// resident (or in flight) and must not issue a second disk read.
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(10*sim.Second)) })
	r.k.At(sim.Time(2*sim.Second), func() { r.request(0, 0, 2, sim.Time(10*sim.Second)) })
	if err := r.k.Run(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got := r.node.Stats().Prefetches; got != 1 {
		t.Fatalf("prefetch disk reads = %d, want 1 (deduplicated)", got)
	}
}

func TestSequentialStreamMostlyPoolHits(t *testing.T) {
	// Drive a whole sequential stream through one node's two disks; with
	// prefetching on, most demand requests after the first per disk
	// should hit the pool.
	r := newRig(t, baseCfg())
	defer r.k.Close()
	k := r.k
	k.Spawn("stream", func(p *sim.Proc) {
		for b := 0; b < 32; b++ {
			done := new(sim.Event)
			req := &proto.BlockRequest{
				Video: 0, Block: b,
				Size:     r.place.SizeOfBlock(0, b),
				Deadline: k.Now().Add(4 * sim.Second),
				Terminal: 1,
				Deliver:  func(*proto.BlockRequest) { done.Fire() },
				Issued:   k.Now(),
			}
			r.node.DeliverRequest(req)
			done.Wait(p)
			p.Sleep(250 * sim.Millisecond) // ~steady stream pacing
		}
	})
	if err := k.Run(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	ps := r.node.Pool().Stats()
	if ps.DemandRefs != 32 {
		t.Fatalf("demand refs = %d", ps.DemandRefs)
	}
	if ps.HitFraction() < 0.8 {
		t.Fatalf("hit fraction = %.2f, want >= 0.8 with working prefetch", ps.HitFraction())
	}
}

// poolRig is a node with prefetching off and an 8-page pool, so every
// request is exactly one demand reference: a hit on a resident block, or
// a miss that evicts and reads when the blocks cycle through 64.
func poolRig(t *testing.T) *rig {
	cfg := baseCfg()
	cfg.PoolPages = 8
	cfg.Replacement = bufferpool.PolicyGlobalLRU
	cfg.Prefetch.Mode = prefetch.ModeOff
	return newRig(t, cfg)
}

// A warm node serves a request with no allocation on a hit and at most
// three on a miss: the request runs on an idle job, the reply rides the
// wire as the request itself, and a miss reuses an evicted page and the
// job's disk context.
func TestDeliverRequestAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		hit  bool
		max  float64
	}{{"hit", true, 0}, {"miss", false, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			r := poolRig(t)
			defer r.k.Close()
			replies := 0
			req := &proto.BlockRequest{
				Size:    r.place.SizeOfBlock(0, 0),
				Deliver: func(*proto.BlockRequest) { replies++ },
			}
			i := 0
			serve := func() {
				if !tc.hit {
					i++
					req.Block = i % 64
				}
				req.Deadline = r.k.Now().Add(sim.Second)
				r.node.DeliverRequest(req)
				if err := r.k.RunAll(); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < 64; j++ {
				serve() // warm: job, pool, calendar and queues
			}
			if n := testing.AllocsPerRun(200, serve); n > tc.max {
				t.Errorf("%v allocs per request, want <= %v", n, tc.max)
			}
			if replies != 64+201 {
				t.Fatalf("%d replies, want %d", replies, 64+201)
			}
			ps := r.node.Pool().Stats()
			if tc.hit && ps.Misses != 1 || !tc.hit && ps.DemandHits != 0 {
				t.Fatalf("pool stats %+v, want every request a %s", ps, tc.name)
			}
		})
	}
}

// A burst of simultaneous requests grows the node's idle jobs to the
// burst's size; a later burst no larger than it takes every job it
// needs from the idle list, allocating none.
func TestJobsReusedAcrossBursts(t *testing.T) {
	r := poolRig(t)
	defer r.k.Close()
	burst := func(at sim.Time, first, n int, check func()) []*bool {
		var done []*bool
		r.k.At(at, func() {
			for b := first; b < first+n; b++ {
				done = append(done, r.request(0, b, b, at.Add(sim.Second)))
			}
			check()
		})
		if err := r.k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	const first, second = 6, 4
	done := burst(0, 0, first, func() {})
	if got := len(r.node.jobs); got != first {
		t.Fatalf("%d idle jobs after a burst of %d misses, want %d", got, first, first)
	}
	idle := make(map[*job]bool)
	for _, j := range r.node.jobs {
		idle[j] = true
	}
	done = append(done, burst(sim.Time(sim.Second), 20, second, func() {
		if got := len(r.node.jobs); got != first-second {
			t.Errorf("%d idle jobs while serving a burst of %d, want %d", got, second, first-second)
		}
	})...)
	if got := len(r.node.jobs); got != first {
		t.Fatalf("%d idle jobs after a second, smaller burst, want the first burst's %d", got, first)
	}
	for _, j := range r.node.jobs {
		if !idle[j] {
			t.Fatal("the second burst allocated a job")
		}
	}
	for i, d := range done {
		if !*d {
			t.Fatalf("request %d unanswered", i)
		}
	}
}

// answer is what the requesting terminal sees of one request's reply.
type answer struct {
	at     sim.Time
	status proto.Status
	done   bool
	then   func() // when set, runs as the reply arrives
}

// ask sends a demand request for block b of video 0 from terminal term
// and returns its answer, filled in when the reply arrives; the rig's
// answers map holds it too.
func (r *rig) ask(b, term int) *answer {
	a := new(answer)
	r.answers[term] = a
	r.node.DeliverRequest(&proto.BlockRequest{
		Block:    b,
		Size:     r.place.SizeOfBlock(0, b),
		Deadline: r.k.Now().Add(10 * sim.Second),
		Terminal: term,
		Deliver: func(q *proto.BlockRequest) {
			a.at, a.status, a.done = r.k.Now(), q.Status, true
			if a.then != nil {
				a.then()
			}
		},
		Issued: r.k.Now(),
	})
	return a
}

// tracedRig builds a node from baseCfg, edited by edit, whose disks
// record to the returned trace.
func tracedRig(t *testing.T, edit func(*Config)) (*rig, *trace.Recorder) {
	cfg := baseCfg()
	edit(&cfg)
	r := newRig(t, cfg)
	rec := trace.NewRecorder(r.k, trace.Options{Enabled: true})
	for _, d := range r.node.Disks() {
		d.SetTrace(rec)
	}
	return r, rec
}

// clock is what a stage test computes reply and read times from.
type clock struct {
	recv, startIO, send sim.Duration
	data, nack          sim.Duration // wire delay of a data reply and of a NACK
	// submitted and completed: each terminal's first disk enqueue and
	// first completion, from the trace (-1: the prefetch worker's).
	submitted, completed map[int]sim.Time
}

// clock reads the rig's Table 1 costs and wire delays, and its disks'
// enqueue and completion times from rec.
func (r *rig) clock(rec *trace.Recorder) clock {
	cpu, costs := r.node.CPU(), cpu.DefaultCosts()
	c := clock{
		recv:      cpu.Time(costs.Receive),
		startIO:   cpu.Time(costs.StartIO),
		send:      cpu.Time(costs.Send),
		data:      r.net.WireDelay(r.place.SizeOfBlock(0, 0) + proto.ReplyHeaderBytes),
		nack:      r.net.WireDelay(proto.NackBytes),
		submitted: map[int]sim.Time{},
		completed: map[int]sim.Time{},
	}
	for _, ev := range rec.Snapshot().Events {
		m := c.submitted
		if ev.Kind == trace.KindDiskComplete {
			m = c.completed
		} else if ev.Kind != trace.KindDiskEnqueue {
			continue
		}
		if _, seen := m[int(ev.Terminal)]; !seen {
			m[int(ev.Terminal)] = ev.T
		}
	}
	return c
}

// One node is driven through every stage of the demand flow, and every
// reply must carry the right status at the exact time the Table 1 CPU
// costs, the disk and the wire put it: on a disk path, the read's
// completion (or, for a miss, its submission) is taken from the disk's
// trace and the rest is computed.
func TestEveryJobStage(t *testing.T) {
	const term = 7 // the terminal whose reply each case checks
	ok, nacked := proto.StatusOK, proto.StatusNackDiskFailed
	for _, tc := range []struct {
		name   string
		cfg    func(*Config)
		drive  func(r *rig) // issues the requests, term's among them
		status proto.Status
		at     func(c clock) sim.Time
		check  func(r *rig) error
	}{{
		name:  "miss",
		drive: func(r *rig) { r.ask(0, term) },
		at: func(c clock) sim.Time {
			if c.submitted[term] != sim.Time(c.recv+c.startIO) {
				return -1 // the read must be submitted once receive and start-I/O are charged
			}
			return c.completed[term].Add(c.send + c.data)
		},
	}, {
		name: "hit",
		drive: func(r *rig) {
			r.ask(0, 1)
			r.k.At(sim.Time(sim.Second), func() { r.ask(0, term) })
		},
		at: func(c clock) sim.Time { return sim.Time(sim.Second).Add(c.recv + c.send + c.data) },
		check: func(r *rig) error {
			if ps := r.node.Pool().Stats(); ps.DemandHits != 1 {
				return fmt.Errorf("demand hits = %d, want 1", ps.DemandHits)
			}
			return nil
		},
	}, {
		name: "in-flight on a prefetch",
		cfg:  func(c *Config) { c.Prefetch.Mode = prefetch.ModeBasic },
		drive: func(r *rig) {
			// Block 0's reference prefetches block 2 on the same disk;
			// block 2's demand arrives with block 0's reply, while the
			// 34 ms prefetch transfer is still on the platter.
			r.ask(0, 1).then = func() { r.ask(2, term) }
		},
		at: func(c clock) sim.Time { return c.completed[-1].Add(c.send + c.data) },
		check: func(r *rig) error {
			if ps := r.node.Pool().Stats(); ps.InFlightHits != 1 {
				return fmt.Errorf("in-flight hits = %d, want 1", ps.InFlightHits)
			}
			// The prefetch was queued with an infinite deadline (elevator
			// scheduling), so the demand's deadline tightens it.
			if s := r.node.Stats(); s.DeadlineUps != 1 {
				return fmt.Errorf("deadline tightenings = %d, want 1", s.DeadlineUps)
			}
			return nil
		},
	}, {
		name: "frame wait in a full pool",
		cfg:  func(c *Config) { c.PoolPages = 1 },
		drive: func(r *rig) {
			r.ask(0, 1)
			r.ask(1, term)
		},
		at: func(c clock) sim.Time {
			// The frame frees when block 0's reply has been sent; only
			// then does start-I/O for block 1 begin.
			if c.submitted[term] != c.completed[1].Add(c.send+c.startIO) {
				return -1
			}
			return c.completed[term].Add(c.send + c.data)
		},
		check: func(r *rig) error {
			if ps := r.node.Pool().Stats(); ps.AllocWaits != 1 {
				return fmt.Errorf("alloc waits = %d, want 1", ps.AllocWaits)
			}
			return nil
		},
	}, {
		name: "failed-disk NACK",
		drive: func(r *rig) {
			r.node.Disks()[0].Fail(0)
			r.ask(0, term)
		},
		status: nacked,
		at:     func(c clock) sim.Time { return sim.Time(c.recv + c.send + c.nack) },
	}, {
		name: "stale NACK",
		drive: func(r *rig) {
			r.node.SetStaleCheck(func(video, block, copy int) bool { return true })
			r.ask(0, term)
		},
		status: nacked,
		at:     func(c clock) sim.Time { return sim.Time(c.recv + c.send + c.nack) },
		check: func(r *rig) error {
			if s := r.node.Stats(); s.StaleNacks != 1 || s.Nacks != 1 {
				return fmt.Errorf("stale NACKs = %d of %d NACKs, want 1 of 1", s.StaleNacks, s.Nacks)
			}
			return nil
		},
	}, {
		name: "prefix-cache hit",
		drive: func(r *rig) {
			r.node.SetCache(cache.New(cache.Config{Policy: cache.PolicyLRU, PrefixBlocks: 4}, 8<<20, 1))
			r.ask(0, 1) // a miss; fetch-through caches block 0
			r.k.At(sim.Time(sim.Second), func() { r.ask(0, term) })
		},
		at: func(c clock) sim.Time { return sim.Time(sim.Second).Add(c.recv + c.send + c.data) },
		check: func(r *rig) error {
			if ps := r.node.Pool().Stats(); ps.DemandRefs != 1 {
				return fmt.Errorf("pool demand refs = %d, want 1: a cache hit skips the pool", ps.DemandRefs)
			}
			return nil
		},
	}, {
		name: "disk fail-stop during the read",
		drive: func(r *rig) {
			r.ask(0, term)
			r.k.At(sim.Time(sim.Millisecond), func() { r.node.Disks()[0].Fail(0) })
		},
		status: nacked,
		at:     func(c clock) sim.Time { return c.completed[term].Add(c.send + c.nack) },
		check: func(r *rig) error {
			if ps := r.node.Pool().Stats(); ps.FetchFails != 1 {
				return fmt.Errorf("fetch fails = %d, want 1", ps.FetchFails)
			}
			return nil
		},
	}, {
		name: "in-flight on a read the disk fails",
		drive: func(r *rig) {
			r.ask(0, 1)
			r.k.At(sim.Time(sim.Millisecond), func() { r.ask(0, term) })
			r.k.At(sim.Time(2*sim.Millisecond), func() { r.node.Disks()[0].Fail(0) })
		},
		status: nacked,
		// Terminal 1's failed read wakes this request, which sends its
		// NACK once terminal 1's has been sent.
		at: func(c clock) sim.Time { return c.completed[1].Add(2*c.send + c.nack) },
		check: func(r *rig) error {
			if s := r.node.Stats(); s.Nacks != 2 {
				return fmt.Errorf("NACKs = %d, want 2", s.Nacks)
			}
			return nil
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r, rec := tracedRig(t, func(c *Config) {
				c.Prefetch.Mode = prefetch.ModeOff
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			defer r.k.Close()
			tc.drive(r)
			if err := r.k.Run(sim.Time(5 * sim.Second)); err != nil {
				t.Fatal(err)
			}
			c := r.clock(rec)
			a := r.answers[term]
			if a == nil || !a.done {
				t.Fatal("request never answered")
			}
			if want := tc.at(c); a.status != tc.status || a.at != want {
				t.Fatalf("reply %v at %v, want %v at %v (disk enqueued %v, completed %v)",
					a.status, a.at, tc.status, want, c.submitted, c.completed)
			}
			if tc.status == ok && r.node.Stats().Nacks != 0 {
				t.Fatalf("%d NACKs on a served request", r.node.Stats().Nacks)
			}
			if tc.check != nil {
				if err := tc.check(r); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// unpinned reports whether every frame of the node's pool can be taken
// at once, so no job or prefetch worker kept a pin.
func unpinned(r *rig) bool {
	for i := 0; i < r.node.cfg.PoolPages; i++ {
		if pg, _ := r.node.pool.Acquire(nil, bufferpool.PageID{Video: -2, Block: i}, -1, false); pg == nil {
			return false
		}
	}
	return true
}

// The prefetch worker of disk 0 is driven through each of its stages by
// putting jobs on its queue directly, and its first disk read must be
// enqueued at the exact time the Table 1 CPU costs and the disk put it.
// Demand reads that hold or take frames here ask for blocks 62 and 63,
// the last of the video on each disk, so they trigger no prefetch.
func TestEveryPrefetchStage(t *testing.T) {
	put := func(r *rig, at sim.Time, blocks ...int) {
		r.k.At(at, func() {
			for _, b := range blocks {
				r.node.queues[0].Put(prefetch.Job{Block: b, Deadline: sim.TimeInfinity})
			}
		})
	}
	second := sim.Time(sim.Second)
	for _, tc := range []struct {
		name       string
		pages      int // pool frames; 0 keeps baseCfg's
		drive      func(r *rig)
		at         func(c clock) sim.Time // the first prefetch read's enqueue
		prefetches int64                  // prefetch reads issued
		check      func(r *rig) error
	}{{
		name:       "queue wait then wake",
		drive:      func(r *rig) { put(r, second, 2) },
		at:         func(c clock) sim.Time { return second.Add(c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if !r.node.pool.Contains(bufferpool.PageID{Block: 2}) {
				return fmt.Errorf("block 2 was not prefetched")
			}
			return nil
		},
	}, {
		name: "skip: resident",
		drive: func(r *rig) {
			r.ask(62, 1)
			put(r, second, 62, 2)
		},
		// Block 62 is skipped at once: block 2's read starts at 1 s.
		at:         func(c clock) sim.Time { return second.Add(c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if ps := r.node.pool.Stats(); ps.PrefetchSkip != 0 {
				return fmt.Errorf("prefetch skips = %d, want 0: residency is checked before Acquire", ps.PrefetchSkip)
			}
			return nil
		},
	}, {
		name: "skip: stale",
		drive: func(r *rig) {
			r.node.SetStaleCheck(func(video, block, copy int) bool { return block == 2 })
			put(r, second, 2, 4)
		},
		at:         func(c clock) sim.Time { return second.Add(c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if r.node.pool.Contains(bufferpool.PageID{Block: 2}) {
				return fmt.Errorf("stale block 2 was prefetched")
			}
			return nil
		},
	}, {
		name:  "frame wait in a full pool",
		pages: 1,
		drive: func(r *rig) {
			r.ask(63, 1) // holds the only frame until its reply is sent
			put(r, sim.Time(sim.Millisecond), 2)
		},
		at:         func(c clock) sim.Time { return c.completed[1].Add(c.send + c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if ps := r.node.pool.Stats(); ps.AllocWaits != 1 {
				return fmt.Errorf("alloc waits = %d, want 1", ps.AllocWaits)
			}
			return nil
		},
	}, {
		name:  "resident after a frame wait",
		pages: 1,
		drive: func(r *rig) {
			r.ask(63, 1)
			// Block 62's demand queues for the frame first, the worker
			// second; the worker gets the frame only after the demand has
			// read block 62 and sent it, finds it resident, and goes on.
			r.k.At(sim.Time(sim.Millisecond), func() { r.ask(62, 2) })
			put(r, sim.Time(2*sim.Millisecond), 62, 2)
		},
		at:         func(c clock) sim.Time { return c.completed[2].Add(c.send + c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if ps := r.node.pool.Stats(); ps.PrefetchSkip != 1 || ps.AllocWaits != 2 {
				return fmt.Errorf("prefetch skips %d, alloc waits %d, want 1 and 2", ps.PrefetchSkip, ps.AllocWaits)
			}
			return nil
		},
	}, {
		name: "read on a fail-stopped disk",
		drive: func(r *rig) {
			r.node.Disks()[0].Fail(0)
			put(r, second, 2)
		},
		at:         func(c clock) sim.Time { return second.Add(c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if ps := r.node.pool.Stats(); ps.FetchFails != 1 || r.node.pool.Contains(bufferpool.PageID{Block: 2}) {
				return fmt.Errorf("fetch fails = %d, want 1 and block 2 dropped", ps.FetchFails)
			}
			return nil
		},
	}, {
		name: "disk fail-stop during the read",
		drive: func(r *rig) {
			put(r, 0, 2)
			r.k.At(sim.Time(sim.Millisecond), func() { r.node.Disks()[0].Fail(0) })
		},
		at:         func(c clock) sim.Time { return sim.Time(c.startIO) },
		prefetches: 1,
		check: func(r *rig) error {
			if ps := r.node.pool.Stats(); ps.FetchFails != 1 || r.node.pool.Contains(bufferpool.PageID{Block: 2}) {
				return fmt.Errorf("fetch fails = %d, want 1 and block 2 dropped", ps.FetchFails)
			}
			return nil
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r, rec := tracedRig(t, func(c *Config) {
				if tc.pages > 0 {
					c.PoolPages = tc.pages
				}
			})
			defer r.k.Close()
			tc.drive(r)
			if err := r.k.Run(sim.Time(5 * sim.Second)); err != nil {
				t.Fatal(err)
			}
			c := r.clock(rec)
			if got, want := c.submitted[-1], tc.at(c); got != want {
				t.Fatalf("first prefetch read enqueued at %v, want %v (disk enqueued %v, completed %v)",
					got, want, c.submitted, c.completed)
			}
			if got := r.node.Stats().Prefetches; got != tc.prefetches {
				t.Fatalf("prefetch reads = %d, want %d", got, tc.prefetches)
			}
			for term, a := range r.answers {
				if !a.done || a.status != proto.StatusOK {
					t.Fatalf("terminal %d's demand: done %v, status %v", term, a.done, a.status)
				}
			}
			if err := tc.check(r); err != nil {
				t.Fatal(err)
			}
			if !unpinned(r) {
				t.Fatal("a frame is still pinned after the run")
			}
		})
	}
}

// A warm prefetch worker reads a block with no allocation: the job rides
// the queue by value, the worker reuses its disk context, and the read
// reuses an evicted page.
func TestPrefetchReadAllocations(t *testing.T) {
	cfg := baseCfg()
	cfg.PoolPages = 8
	cfg.Replacement = bufferpool.PolicyGlobalLRU
	r := newRig(t, cfg)
	defer r.k.Close()
	i := 0
	read := func() {
		i++
		// 32 blocks of disk 0 cycle through 8 frames: every read misses.
		r.node.queues[0].Put(prefetch.Job{Block: 2 * (i % 32), Deadline: sim.TimeInfinity})
		if err := r.k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 64; j++ {
		read() // warm: worker, pool, queue, disk and calendar
	}
	if n := testing.AllocsPerRun(200, read); n > 0 {
		t.Errorf("%v allocs per prefetch read, want 0", n)
	}
	if got := r.node.Stats().Prefetches; got != 64+201 {
		t.Fatalf("%d prefetch reads, want %d", got, 64+201)
	}
}
