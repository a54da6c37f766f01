package server

import (
	"testing"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cpu"
	"spiffi/internal/disk"
	"spiffi/internal/dsched"
	"spiffi/internal/layout"
	"spiffi/internal/network"
	"spiffi/internal/prefetch"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// rig builds one node serving a small striped layout.
type rig struct {
	k     *sim.Kernel
	node  *Node
	place *layout.Placement
	net   *network.Network
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	// One node, two disks; one "video" of 64 blocks of 256 KB.
	place := layout.NewStriped([]int64{64 * 256 * 1024}, 256*1024, 1, 2)
	net := network.New(k, network.DefaultParams())
	srcs := []*rng.Source{rng.New(1), rng.New(2)}
	node := New(k, 0, cfg, net, place, srcs, sim.Duration(524*sim.Millisecond))
	return &rig{k: k, node: node, place: place, net: net}
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

func TestDeadlineTighteningOnInflightPrefetch(t *testing.T) {
	cfg := baseCfg()
	cfg.Sched = dsched.Config{Kind: dsched.KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
	cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeRealTime, WorkersPerDisk: 1}
	r := newRig(t, cfg)
	defer r.k.Close()
	// Demand block 0 (spawns prefetch of block 2 with a lazy estimated
	// deadline). Immediately demand block 2 with an urgent deadline while
	// the prefetch is still queued/being serviced.
	r.k.At(0, func() { r.request(0, 0, 1, sim.Time(60*sim.Second)) })
	r.k.At(sim.Time(130*sim.Millisecond), func() {
		r.request(0, 2, 1, sim.Time(200*sim.Millisecond))
	})
	if err := r.k.Run(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if r.node.Stats().DeadlineUps == 0 {
		t.Skip("prefetch completed before the demand arrived in this timing; tightening not exercised")
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
			done := sim.NewEvent(k)
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
