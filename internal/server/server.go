// Package server implements a SPIFFI video-server node (§5.2): a CPU,
// a slice of the server's memory managed as a buffer pool, a set of
// disks, and the request-handling logic. SPIFFI is decentralized —
// terminals address the owning node directly — so a node only ever
// touches its own disks and its own buffer pool.
//
// Demand flow: receive (CPU cost) → buffer pool acquire → on miss,
// start-I/O (CPU cost) and a scheduled disk read → reply (CPU send cost,
// wire delay). Every demand reference also enqueues a prefetch for the
// video's next stripe block on the same disk (§5.2.3).
package server

import (
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

// Config carries per-node configuration.
type Config struct {
	PoolPages   int
	Replacement bufferpool.PolicyKind
	Sched       dsched.Config
	Prefetch    prefetch.Config
	MIPS        float64
	CPUCosts    cpu.Costs
	DiskParams  disk.Params

	// ZonedDisks, when non-nil, replaces constant-cylinder drives with
	// zoned-bit-recording geometry (ablation of the paper's §6.2
	// simplification).
	ZonedDisks *disk.ZonedParams
}

// Stats aggregates a node's lifetime counters.
type Stats struct {
	Requests    int64 // demand block requests handled
	Prefetches  int64 // prefetch disk reads issued
	DeadlineUps int64 // queued prefetches tightened by a demand arrival

	// Degraded-mode counters (fault injection).
	Nacks   int64 // NACK replies for reads on fail-stopped disks
	Dropped int64 // requests+replies discarded while the node was down
	Crashes int64 // crash events applied to this node

	// Silent-drop breakdown of Dropped: a crashed node is fail-stop
	// silent, so without these a permanent crash is indistinguishable
	// from network loss in the summary output.
	DroppedReqs    int64 // incoming requests dropped on the floor
	DroppedReplies int64 // outbound replies suppressed

	// StaleNacks counts NACKs for block copies awaiting mirror rebuild
	// on a repaired disk (a subset of Nacks).
	StaleNacks int64
}

// Node is one video-server node.
type Node struct {
	id    int
	k     *sim.Kernel
	cfg   Config
	cpu   *cpu.CPU
	pool  *bufferpool.Pool
	disks []*disk.Disk
	net   *network.Network
	place *layout.Placement

	queues []prefetch.Queue // one per local disk (nil when prefetch off)

	// inflight tracks queued-or-in-service disk reads by page, so a
	// demand arrival can tighten the deadline of a pending prefetch
	// (real-time prefetching, §5.2.3).
	inflight map[bufferpool.PageID]*dsched.Request

	// stripePlayTime estimates how long one stripe block plays, for the
	// prefetch deadline estimate.
	stripePlayTime sim.Duration

	// Crash state: while down the node silently drops incoming requests
	// and suppresses outgoing replies — terminals discover the outage only
	// through timeouts, exactly like a real fail-stop machine. Handlers
	// already in flight keep running internally but produce no output.
	down      bool
	restartAt sim.Time
	downSince sim.Time

	// restartHook, when set, fires as the node comes back up with the
	// outage duration (wired by the assembly to the health tracker and
	// the overload controller's rejoin warm-up).
	restartHook func(downtime sim.Duration)

	// idle holds the node's handler processes parked between requests,
	// oldest first; handed holds the requests given to woken handlers,
	// in the order they were woken, so each takes the one it was woken
	// for. A request spawns a handler only when none is idle.
	idle   sim.Queue
	handed []*proto.BlockRequest

	rec *trace.Recorder // nil unless tracing is enabled

	// cache, when set, is the node's prefix cache (internal/cache):
	// primary demand requests check it before the buffer pool and are
	// served from cache memory on a hit; fetched prefix blocks are
	// inserted on the way out. Nil = caching tier disabled.
	cache *cache.Cache

	// stale, when set, marks block copies awaiting mirror rebuild on a
	// repaired disk: demand reads NACK (unless buffered) and prefetches
	// skip them until the rebuilder re-copies the data.
	stale func(video, block, copy int) bool

	stats Stats
}

// diskCtx is a process's disk-read context: the request it submits and
// the event the completion fires. A handler or prefetch worker reuses one
// for all its reads, since every Submit completes exactly once and the
// process waits for that before reading again.
type diskCtx struct {
	req  dsched.Request
	id   bufferpool.PageID
	done sim.Event
}

// arm readies the context for a read of page id with request r and
// returns the request to submit.
func (c *diskCtx) arm(id bufferpool.PageID, r dsched.Request) *dsched.Request {
	c.id = id
	c.done.Reset()
	r.Data = c
	c.req = r
	return &c.req
}

// handler is one of a node's pooled request-handler processes.
type handler struct {
	n    *Node
	req  *proto.BlockRequest // the request being handled
	disk diskCtx
}

// New builds a node with its CPU, buffer pool, disks and prefetch
// workers. net delivers replies; place resolves addresses; diskSrcs
// supplies one random stream per local disk (rotational latency draws);
// stripePlayTime is the playback duration of one full stripe block.
func New(
	k *sim.Kernel,
	id int,
	cfg Config,
	net *network.Network,
	place *layout.Placement,
	diskSrcs []*rng.Source,
	stripePlayTime sim.Duration,
) *Node {
	n := &Node{
		id:             id,
		k:              k,
		cfg:            cfg,
		cpu:            cpu.New(k, id, cfg.MIPS, cfg.CPUCosts),
		pool:           bufferpool.New(k, cfg.PoolPages, cfg.Replacement.New()),
		net:            net,
		place:          place,
		inflight:       make(map[bufferpool.PageID]*dsched.Request),
		stripePlayTime: stripePlayTime,
	}
	nd := place.DisksPerNode()
	n.disks = make([]*disk.Disk, nd)
	for i := 0; i < nd; i++ {
		global := id*nd + i
		if cfg.ZonedDisks != nil {
			n.disks[i] = disk.NewZoned(k, global, *cfg.ZonedDisks, cfg.Sched.New(),
				diskSrcs[i], n.onDiskComplete)
		} else {
			n.disks[i] = disk.New(k, global, cfg.DiskParams, cfg.Sched.New(),
				diskSrcs[i], n.onDiskComplete)
		}
	}
	if cfg.Prefetch.Mode != prefetch.ModeOff {
		n.queues = make([]prefetch.Queue, nd)
		for i := 0; i < nd; i++ {
			n.queues[i] = cfg.Prefetch.NewQueue(k)
			for w := 0; w < cfg.Prefetch.WorkersPerDisk; w++ {
				di := i
				k.Spawn("prefetch", func(p *sim.Proc) {
					n.prefetchWorker(p, di, new(diskCtx))
				})
			}
		}
	}
	return n
}

// CPU exposes the node CPU (utilization reporting).
func (n *Node) CPU() *cpu.CPU { return n.cpu }

// Pool exposes the node's buffer pool (statistics).
func (n *Node) Pool() *bufferpool.Pool { return n.pool }

// Disks exposes the node's disks (statistics).
func (n *Node) Disks() []*disk.Disk { return n.disks }

// Stats returns a copy of the node counters.
func (n *Node) Stats() Stats { return n.stats }

// SetTrace attaches a trace recorder (nil is fine: emits become
// no-ops).
func (n *Node) SetTrace(rec *trace.Recorder) { n.rec = rec }

// SetRestartHook wires a callback fired when a crashed node comes back
// up, with the outage duration (nil = none).
func (n *Node) SetRestartHook(fn func(downtime sim.Duration)) { n.restartHook = fn }

// SetCache attaches the node's prefix cache (nil = tier disabled).
func (n *Node) SetCache(c *cache.Cache) { n.cache = c }

// DeliverRequest accepts a block request off the network (kernel
// context) and hands it to the node's oldest idle handler process,
// spawning a handler only when none is idle. Either way the handler
// starts on the request with one calendar event scheduled now. A crashed
// node drops the request on the floor — the terminal's timeout is the
// only signal.
func (n *Node) DeliverRequest(req *proto.BlockRequest) {
	if n.down {
		n.stats.Dropped++
		n.stats.DroppedReqs++
		n.rec.NodeDrop(req.Terminal, n.id, false, n.stats.Dropped)
		return
	}
	if n.idle.Signal() {
		n.handed = append(n.handed, req)
		return
	}
	h := &handler{n: n, req: req}
	n.k.Spawn("handler", h.run)
}

// run handles requests one after another, parking between them.
func (h *handler) run(p *sim.Proc) {
	n := h.n
	for {
		n.handle(p, h)
		n.idle.Wait(p)
		h.req = n.handed[0]
		k := copy(n.handed, n.handed[1:])
		n.handed[k] = nil
		n.handed = n.handed[:k]
	}
}

// handle services one demand request.
func (n *Node) handle(p *sim.Proc, h *handler) {
	req := h.req
	n.cpu.Receive(p)
	n.stats.Requests++
	id := bufferpool.PageID{Video: req.Video, Block: req.Block}
	addr := n.place.LocateCopy(req.Video, req.Block, req.Copy)
	if addr.Node != n.id {
		panic("server: misrouted block request")
	}
	if n.cache != nil && req.Copy == 0 && n.cache.Lookup(req.Video, req.Block) {
		// Prefix-cache hit: served straight from cache memory — no pool
		// frame, no disk I/O, and no prefetch trigger (the pool's
		// prefetch chain starts when the stream reaches uncached blocks).
		// Like buffered data, cached data is served even off a dead disk.
		n.cpu.Send(p)
		n.reply(req, req.Size+proto.ReplyHeaderBytes)
		return
	}
	if n.disks[addr.Disk].Failed() && !n.pool.Contains(id) {
		// The copy's disk is dead and the data is not buffered: NACK
		// immediately so the terminal can fail over without waiting for
		// a timeout. (Buffered data is still served off a dead disk.)
		n.nack(p, req)
		return
	}
	if n.stale != nil && !n.pool.Contains(id) && n.stale(req.Video, req.Block, req.Copy) {
		// The copy's disk repaired but this block has not been rebuilt
		// from its mirror yet: its on-disk data is garbage. NACK so the
		// terminal fails over to the healthy copy.
		n.stats.StaleNacks++
		n.nack(p, req)
		return
	}

	pg, out := n.pool.Acquire(p, id, req.Terminal, false)
	ok := true
	switch out {
	case bufferpool.MustFetch:
		ok = n.readBlock(p, &h.disk, pg, addr, req.Deadline, req.Terminal, false)
	case bufferpool.InFlight:
		// A prefetch (or another terminal's fetch) is already on its
		// way; tighten its queued deadline to the real one (§5.2.3).
		if dr, found := n.inflight[id]; found && req.Deadline < dr.Deadline {
			dr.Deadline = req.Deadline
			n.stats.DeadlineUps++
		}
		pg.Ready.Wait(p)
		ok = pg.Valid() // false: the fetch we piggybacked on failed
	case bufferpool.Hit:
		// Data already buffered.
	}
	if !ok {
		n.pool.Unpin(pg) // no-op on the defunct page; kept for symmetry
		n.nack(p, req)
		return
	}

	// Every real reference triggers a prefetch of the video's next
	// stripe block on this same disk (§5.2.3). Replica reads don't: the
	// prefetch chain follows the primary placement.
	if req.Copy == 0 {
		n.triggerPrefetch(req, addr)
	}

	n.cpu.Send(p)
	n.reply(req, req.Size+proto.ReplyHeaderBytes)
	if n.cache != nil && req.Copy == 0 {
		// Fetch-through: prefix blocks enter the cache as they are
		// served, so the next viewer of this video starts from memory.
		n.cache.Insert(req.Video, req.Block, req.Size)
	}
	n.pool.Unpin(pg)
}

// nack answers a request whose data cannot be read (dead disk) with a
// header-only negative acknowledgement.
func (n *Node) nack(p *sim.Proc, req *proto.BlockRequest) {
	n.stats.Nacks++
	req.Status = proto.StatusNackDiskFailed
	n.cpu.Send(p)
	n.reply(req, proto.NackBytes)
}

// reply ships a response unless the node is down (a crashed machine sends
// nothing; in-flight work evaporates).
func (n *Node) reply(req *proto.BlockRequest, bytes int64) {
	if n.down {
		n.stats.Dropped++
		n.stats.DroppedReplies++
		n.rec.NodeDrop(req.Terminal, n.id, true, n.stats.Dropped)
		return
	}
	n.net.SendAction(bytes, req.Via(req.Deliver))
}

// readBlock performs a disk read for an acquired MustFetch page through
// the calling process's disk context and marks the page valid, or — when
// the disk fail-stops before delivering — aborts the fetch and reports
// false. Caller keeps the pin either way.
func (n *Node) readBlock(p *sim.Proc, ctx *diskCtx, pg *bufferpool.Page, addr layout.Address, deadline sim.Time, term int, isPrefetch bool) bool {
	n.cpu.StartIO(p)
	dr := ctx.arm(pg.ID, dsched.Request{
		Offset:   addr.Offset,
		Size:     addr.Size,
		Deadline: deadline,
		Terminal: term,
		Prefetch: isPrefetch,
	})
	n.inflight[pg.ID] = dr
	n.disks[addr.Disk].Submit(dr)
	ctx.done.Wait(p)
	if dr.Failed {
		n.pool.FetchFailed(pg)
		return false
	}
	n.pool.FetchComplete(pg)
	return true
}

// Crash fail-stops the whole node: every local disk fails (abandoning its
// queue), incoming requests are dropped, and replies are suppressed until
// the restart completes. A restart duration <= 0 means the node never
// comes back. Crashing a down node extends the outage.
func (n *Node) Crash(restart sim.Duration) {
	now := n.k.Now()
	n.stats.Crashes++
	if !n.down {
		n.down = true
		n.restartAt = 0
		n.downSince = now
	}
	if restart <= 0 {
		n.restartAt = sim.TimeInfinity
	} else if at := now.Add(restart); at > n.restartAt {
		n.restartAt = at
	}
	// Local disks fail-stop with the node and recover with it; their
	// repair events are scheduled before the node's restart event, so at
	// the restart instant the disks are already serviceable.
	for _, d := range n.disks {
		d.Fail(restart)
	}
	if n.restartAt < sim.TimeInfinity {
		at := n.restartAt
		n.k.At(at, func() { n.maybeRestart(at) })
	}
}

// maybeRestart brings the node back if this timer is still the latest
// scheduled restart (a later overlapping crash supersedes it).
func (n *Node) maybeRestart(at sim.Time) {
	if !n.down || n.restartAt != at {
		return
	}
	n.down = false
	if n.restartHook != nil {
		n.restartHook(at.Sub(n.downSince))
	}
}

// SetStaleCheck wires the mirror rebuilder's staleness predicate
// (nil = no staleness modeling).
func (n *Node) SetStaleCheck(fn func(video, block, copy int) bool) { n.stale = fn }

// RebuildIO performs one background mirror-reconstruction transfer on
// a local disk through the non-real-time queue class (infinite
// deadline, prefetch priority) and reports success. It blocks the
// calling proc for the disk service time; a failed or crashed disk
// fails the transfer immediately.
func (n *Node) RebuildIO(p *sim.Proc, diskLocal int, offset, size int64) bool {
	ctx := new(diskCtx)
	// The sentinel page id never collides with inflight demand fetches,
	// so onDiskComplete just fires the event.
	dr := ctx.arm(bufferpool.PageID{Video: -1, Block: -1}, dsched.Request{
		Offset:   offset,
		Size:     size,
		Deadline: sim.TimeInfinity,
		Terminal: -1,
		Prefetch: true,
		Rebuild:  true,
	})
	n.disks[diskLocal].Submit(dr)
	ctx.done.Wait(p)
	return !dr.Failed
}

// onDiskComplete runs in simulation context when a disk read finishes.
func (n *Node) onDiskComplete(r *dsched.Request) {
	ctx := r.Data.(*diskCtx)
	if n.inflight[ctx.id] == r {
		delete(n.inflight, ctx.id)
	}
	ctx.done.Fire()
}

// triggerPrefetch enqueues a prefetch for the next block of req's video
// on the same disk, with an estimated deadline (§5.2.3): the real
// request's deadline plus the playback time of the intervening stripe
// blocks (one per disk in the stripe set).
func (n *Node) triggerPrefetch(req *proto.BlockRequest, addr layout.Address) {
	if n.queues == nil {
		return
	}
	next, ok := n.place.NextBlockOnSameDisk(req.Video, req.Block)
	if !ok {
		return
	}
	if n.place.Locate(req.Video, next).Node != n.id {
		// This request was served from a mirror copy: the video's primary
		// run continues on another node, so there is nothing local worth
		// prefetching (the worker reads primary addresses only).
		return
	}
	id := bufferpool.PageID{Video: req.Video, Block: next}
	if n.pool.Contains(id) {
		return
	}
	step := next - req.Block
	est := req.Deadline + sim.Time(step)*sim.Time(n.stripePlayTime)
	n.queues[addr.Disk].Put(prefetch.Job{
		Video:    req.Video,
		Block:    next,
		Deadline: est,
	})
}

// prefetchWorker drains one disk's prefetch queue (§5.2.3). The number
// of workers per disk sets prefetch aggressiveness; workers blocked on
// buffer frames throttle naturally when memory is scarce.
func (n *Node) prefetchWorker(p *sim.Proc, diskIdx int, ctx *diskCtx) {
	q := n.queues[diskIdx]
	for {
		job := q.Get(p)
		id := bufferpool.PageID{Video: job.Video, Block: job.Block}
		if n.pool.Contains(id) {
			continue
		}
		if n.stale != nil && n.stale(job.Video, job.Block, 0) {
			// The primary copy is awaiting rebuild; prefetching it would
			// buffer garbage.
			continue
		}
		pg, out := n.pool.Acquire(p, id, -1, true)
		if out != bufferpool.MustFetch {
			n.pool.Unpin(pg)
			continue
		}
		deadline := job.Deadline
		if !n.cfg.Sched.IsRealTime() {
			// Without deadline-aware scheduling the estimate is unused;
			// park prefetches behind everything just in case.
			deadline = sim.TimeInfinity
		}
		addr := n.place.Locate(job.Video, job.Block)
		n.stats.Prefetches++
		n.readBlock(p, ctx, pg, addr, deadline, -1, true)
		n.pool.Unpin(pg)
	}
}
