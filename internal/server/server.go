// Package server implements a SPIFFI video-server node (§5.2): a CPU,
// a slice of the server's memory managed as a buffer pool, a set of
// disks, and the request-handling logic. SPIFFI is decentralized —
// terminals address the owning node directly — so a node only ever
// touches its own disks and its own buffer pool.
//
// Demand flow: receive (CPU cost) → buffer pool acquire → on miss,
// start-I/O (CPU cost) and a scheduled disk read → reply (CPU send cost,
// wire delay). Every demand reference also enqueues a prefetch for the
// video's next stripe block on the same disk (§5.2.3). Each request runs
// through that flow as a continuation (job), not as a process, and so
// does each prefetch worker, which drains its disk's prefetch queue
// through the same pool, start-I/O and disk-read stages.
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
	// through timeouts, exactly like a real fail-stop machine. Jobs
	// already in flight keep running internally but produce no output.
	down      bool
	restartAt sim.Time
	downSince sim.Time

	// restartHook, when set, fires as the node comes back up with the
	// outage duration (wired by the assembly to the health tracker and
	// the overload controller's rejoin warm-up).
	restartHook func(downtime sim.Duration)

	jobs []*job // idle jobs; a request allocates one only when none is idle

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

// diskCtx is a disk-read context: the request it submits and the event
// the completion fires. A job reuses one for all its reads, since every
// Submit completes exactly once and its owner waits for that before
// reading again.
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

// New builds a node with its CPU, buffer pool, disks and prefetch
// workers, and schedules each worker to take its first job now. net
// delivers replies; place resolves addresses; diskSrcs supplies one
// random stream per local disk (rotational latency draws);
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
				k.Schedule(k.Now(), &job{n: n, req: &proto.BlockRequest{Terminal: -1},
					queue: n.queues[i], stage: stageTake})
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
// context) and schedules an idle job, or a new one when none is idle, to
// start on it now. A crashed node drops the request on the floor — the
// terminal's timeout is the only signal.
func (n *Node) DeliverRequest(req *proto.BlockRequest) {
	if n.down {
		n.stats.Dropped++
		n.stats.DroppedReqs++
		n.rec.NodeDrop(req.Terminal, n.id, false, n.stats.Dropped)
		return
	}
	var j *job
	if last := len(n.jobs) - 1; last >= 0 {
		j, n.jobs = n.jobs[last], n.jobs[:last]
	} else {
		j = &job{n: n}
	}
	j.req, j.stage = req, stageReceive
	n.k.Schedule(n.k.Now(), j)
}

// stage is the step of the demand or prefetch flow a job runs when it
// next fires.
type stage uint8

const (
	stageReceive  stage = iota // charge the receive cost
	stageTake                  // a prefetch worker takes its next job
	stageLookup                // route the request; cache, dead-disk and stale checks
	stageAcquire               // take a pool frame (again, after a frame wait)
	stageSubmit                // start-I/O charged: submit the disk read
	stageRead                  // the disk read completed
	stageInFlight              // the fetch this request piggybacked on completed
	stageServe                 // data ready: trigger the prefetch, charge the send
	stageReply                 // send charged: reply and finish
	stageGrant                 // the CPU is handed over: run the burst
	stageBurst                 // the burst is over: release the CPU, go on to next
)

// job serves one demand request at a time, or is a prefetch worker that
// reads one prefetch job at a time (§5.2.3), so workers that wait for
// frames throttle prefetching when memory is scarce. Each Fire runs
// stages until one waits for the prefetch queue, the CPU, a frame, the
// disk or a fetch in flight; the wait's end schedules the job where a
// blocked process would resume.
type job struct {
	n *Node
	// req is the demand request; a prefetch worker's own has terminal -1
	// and the deadline of the prefetch in hand.
	req   *proto.BlockRequest
	queue prefetch.Queue   // a prefetch worker's disk queue; nil for a demand job
	pg    *bufferpool.Page // the pinned frame; nil on a cache hit or a NACK
	id    bufferpool.PageID
	addr  layout.Address
	bytes int64 // the reply's wire size
	stage stage
	next  stage        // the stage after the CPU burst
	burst sim.Duration // the CPU burst charged before next
	disk  diskCtx
}

// Fire runs the job's stages until one waits.
func (j *job) Fire() {
	for j.step() {
	}
}

// step runs the job's current stage and reports whether the next one can
// run at once (false: the job waits, or is done and idle again).
func (j *job) step() bool {
	n, req := j.n, j.req
	switch j.stage {
	case stageGrant:
		j.hold()
		return false
	case stageBurst:
		n.cpu.Release()
		j.stage = j.next
		return true
	case stageReceive:
		return j.charge(n.cfg.CPUCosts.Receive, stageLookup)
	case stageTake:
		pj, ok := j.queue.Get(j)
		if !ok {
			return false
		}
		j.id = bufferpool.PageID{Video: pj.Video, Block: pj.Block}
		if n.pool.Contains(j.id) || n.stale != nil && n.stale(pj.Video, pj.Block, 0) {
			// Resident already, or the primary copy awaits rebuild and
			// prefetching it would buffer garbage: take the next job.
			return true
		}
		j.addr = n.place.Locate(pj.Video, pj.Block)
		req.Deadline = pj.Deadline
		if !n.cfg.Sched.IsRealTime() {
			// Without deadline-aware scheduling the estimate is unused;
			// park prefetches behind everything just in case.
			req.Deadline = sim.TimeInfinity
		}
		j.stage = stageAcquire
		return true
	case stageLookup:
		n.stats.Requests++
		j.id = bufferpool.PageID{Video: req.Video, Block: req.Block}
		j.addr = n.place.LocateCopy(req.Video, req.Block, req.Copy)
		if j.addr.Node != n.id {
			panic("server: misrouted block request")
		}
		switch {
		case n.cache != nil && req.Copy == 0 && n.cache.Lookup(req.Video, req.Block):
			// Prefix-cache hit: served straight from cache memory — no
			// pool frame, no disk I/O, and no prefetch trigger (the pool's
			// prefetch chain starts when the stream reaches uncached
			// blocks). Like buffered data, cached data is served even off
			// a dead disk.
			return j.send(req.Size + proto.ReplyHeaderBytes)
		case n.disks[j.addr.Disk].Failed() && !n.pool.Contains(j.id):
			// The copy's disk is dead and the data is not buffered: NACK
			// immediately so the terminal can fail over without waiting
			// for a timeout. (Buffered data is still served off a dead
			// disk.)
			return j.nack()
		case n.stale != nil && !n.pool.Contains(j.id) && n.stale(req.Video, req.Block, req.Copy):
			// The copy's disk repaired but this block has not been
			// rebuilt from its mirror yet: its on-disk data is garbage.
			// NACK so the terminal fails over to the healthy copy.
			n.stats.StaleNacks++
			return j.nack()
		}
		fallthrough
	case stageAcquire:
		pg, out := n.pool.Acquire(j, j.id, req.Terminal, j.queue != nil)
		if pg == nil {
			j.stage = stageAcquire
			return false
		}
		j.pg = pg
		switch {
		case out == bufferpool.MustFetch:
			if j.queue != nil {
				n.stats.Prefetches++
			}
			return j.charge(n.cfg.CPUCosts.StartIO, stageSubmit)
		case j.queue != nil:
			// The block came in while the worker waited for a frame.
			return j.take()
		case out == bufferpool.InFlight:
			// A prefetch (or another terminal's fetch) is already on its
			// way; tighten its queued deadline to the real one (§5.2.3).
			if dr, found := n.inflight[j.id]; found && req.Deadline < dr.Deadline {
				dr.Deadline = req.Deadline
				n.stats.DeadlineUps++
			}
			j.stage = stageInFlight
			return pg.Ready.Then(n.k, j)
		}
		j.stage = stageServe // a hit: the data is already buffered
		return true
	case stageSubmit:
		// The read is recorded in flight, so a demand arrival can tighten
		// its deadline.
		dr := j.disk.arm(j.id, dsched.Request{
			Offset:   j.addr.Offset,
			Size:     j.addr.Size,
			Deadline: req.Deadline,
			Terminal: req.Terminal,
			Prefetch: j.queue != nil,
		})
		n.inflight[j.id] = dr
		n.disks[j.addr.Disk].Submit(dr)
		j.stage = stageRead
		return j.disk.done.Then(n.k, j)
	case stageRead:
		// The page is valid, or its fetch aborts when the disk
		// fail-stopped first.
		if j.disk.req.Failed {
			n.pool.FetchFailed(j.pg)
		} else {
			n.pool.FetchComplete(j.pg)
		}
		if j.queue != nil {
			return j.take()
		}
		fallthrough
	case stageInFlight:
		if !j.pg.Valid() {
			// The read, or the fetch this request piggybacked on, died
			// with its disk.
			n.pool.Unpin(j.pg) // no-op on the defunct page; kept for symmetry
			j.pg = nil
			return j.nack()
		}
		fallthrough
	case stageServe:
		// Every real reference triggers a prefetch of the video's next
		// stripe block on this same disk (§5.2.3). Replica reads don't:
		// the prefetch chain follows the primary placement.
		if req.Copy == 0 {
			n.triggerPrefetch(req, j.addr)
		}
		return j.send(req.Size + proto.ReplyHeaderBytes)
	}
	// stageReply
	n.reply(req, j.bytes)
	if j.pg != nil {
		if n.cache != nil && req.Copy == 0 {
			// Fetch-through: prefix blocks enter the cache as they are
			// served, so the next viewer of this video starts from memory.
			n.cache.Insert(req.Video, req.Block, req.Size)
		}
		n.pool.Unpin(j.pg)
	}
	j.req, j.pg = nil, nil
	n.jobs = append(n.jobs, j)
	return false
}

// take unpins a prefetch worker's frame and goes back to its queue.
func (j *job) take() bool {
	j.n.pool.Unpin(j.pg)
	j.pg, j.stage = nil, stageTake
	return true
}

// charge runs a CPU burst of instrs instructions and then stage next,
// queueing FCFS with every other burst as cpu.Execute does. It reports
// true, to run next at once, only when there is nothing to charge.
func (j *job) charge(instrs int64, next stage) bool {
	j.stage = next
	if instrs <= 0 {
		return true
	}
	j.stage, j.next, j.burst = stageGrant, next, j.n.cpu.Time(instrs)
	if j.n.cpu.Acquire(j) {
		j.hold()
	}
	return false
}

// hold runs the burst on the CPU the job now holds.
func (j *job) hold() {
	j.stage = stageBurst
	j.n.k.Schedule(j.n.k.Now().Add(j.burst), j)
}

// send charges the send cost of a reply of the given wire size.
func (j *job) send(bytes int64) bool {
	j.bytes = bytes
	return j.charge(j.n.cfg.CPUCosts.Send, stageReply)
}

// nack answers a request whose data cannot be read (dead disk) with a
// header-only negative acknowledgement.
func (j *job) nack() bool {
	j.n.stats.Nacks++
	j.req.Status = proto.StatusNackDiskFailed
	return j.send(proto.NackBytes)
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
