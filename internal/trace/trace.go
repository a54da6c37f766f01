// Package trace is the simulator's deterministic observability layer: a
// ring-buffered, zero-allocation-on-the-hot-path structured event
// recorder keyed on simulated time.
//
// The paper's headline claims — real-time scheduling beating elevator
// and GSS, love prefetch protecting unreferenced pages, striping
// scaling to 64 disks — are explained by internal timelines (disk queue
// waits, buffer-pool hit dynamics, terminal buffer occupancy) that
// end-of-run aggregates cannot show. A Recorder captures those
// timelines as fixed-size typed events emitted by the disk, buffer
// pool, network, admission controller, and terminals, plus online
// per-subsystem latency histograms, without perturbing the simulation:
// emitting never allocates, never draws randomness, and never schedules
// an event, so a traced run is bit-identical to an untraced one.
//
// Determinism across worker counts follows from two properties. First,
// events carry the simulation clock, not the wall clock, and each
// Recorder belongs to exactly one single-threaded simulation, so a
// run's event sequence depends only on (Config, seed). Second, traces
// travel inside core.Metrics through the same index-keyed result
// plumbing that makes parallel searches bit-identical: consumers only
// ever see traces of *consumed* runs, never of speculative probes.
//
// When tracing is disabled every emit site calls a method on a nil
// *Recorder, which returns immediately — a single predictable branch,
// bounded below 2% of run time by a guard test in the repository root.
//
// Exporters (JSONL, Chrome trace-event JSON for Perfetto, plain-text
// summary) and the glitch post-mortem report live in export.go. The
// full event taxonomy and schema are documented in OBSERVABILITY.md.
package trace

import (
	"spiffi/internal/sim"
	"spiffi/internal/stats"
)

// Options selects tracing for one simulation run. The zero value
// disables tracing entirely.
type Options struct {
	// Enabled turns the recorder on. Disabled tracing is a strict
	// no-op: simulation results are bit-identical either way.
	Enabled bool
	// Capacity is the ring size in events (default DefaultCapacity).
	// When more events are emitted than the ring holds, the oldest are
	// overwritten; Data.Total still counts every emission.
	Capacity int
}

// DefaultCapacity is the default ring size: 64Ki events ≈ 3 MB.
// Large enough to hold several seconds of a loaded 16-disk system —
// ample for a glitch post-mortem — while keeping traced searches cheap.
const DefaultCapacity = 1 << 16

// Kind identifies the type of a trace event and fixes the meaning of
// its A–D payload fields (see kindInfo and OBSERVABILITY.md).
type Kind uint8

// Event kinds, grouped by emitting subsystem.
const (
	KindNone Kind = iota

	// Disk: one enqueue and (unless the disk fail-stops first) one
	// dispatch and one complete per request.
	KindDiskEnqueue  // A=disk B=qlen C=deadline_ns (-1 = none) D=prefetch
	KindDiskDispatch // A=disk B=qlen C=wait_ns D=prefetch
	KindDiskComplete // A=disk B=service_ns C=failed D=prefetch

	// Buffer pool.
	KindPoolHit      // A=node B=video C=block D=inflight (1 = fetch still in progress)
	KindPoolMiss     // A=node B=video C=block — demand miss, fetch issued
	KindPoolPrefetch // A=node B=video C=block — prefetched page inserted (love chain protects it)
	KindPoolProtect  // A=node B=video C=block — protected prefetched page reached by its demand reference
	KindPoolEvict    // A=node B=video C=block D=unreferenced (1 = prefetched page evicted unused)

	// Network.
	KindNetSend // A=bytes B=delay_ns C=dropped

	// Admission controller.
	KindAdmWait    // A=active B=limit — stream refused, waiting for capacity
	KindAdmAdmit   // A=active B=limit
	KindAdmRelease // A=active B=limit
	KindAdmReject  // A=active B=limit C=wait_ns — patience expired, stream NACKed

	// Terminal.
	KindTermBuffer // A=buffered_bytes B=outstanding C=frontier_block — occupancy sample at block arrival
	KindTermGlitch // A=cause B=video C=pos (frame for underruns, block for lost blocks) D=buffered_bytes
	KindTermPrime  // A=video B=recover_ns (0 on first start) C=primes
	KindTermSeek   // A=video B=block

	// Overload controller (internal/overload): limit moves and stream
	// shed/restore decisions, terminal = affected stream (-1 for limit
	// moves).
	KindOverShed    // A=degraded B=limit C=slack_ns
	KindOverRestore // A=degraded B=limit C=slack_ns
	KindOverLimit   // A=limit B=prev C=slack_ns

	// Mirror rebuild after disk repair.
	KindRebuildStart // A=disk B=blocks — stale set marked, paced pass begins
	KindRebuildDone  // A=disk B=rebuilt C=window_ns — redundancy window closed

	// Node failover: suspect/rejoin lifecycle and session migration.
	KindNodeSuspect  // A=node B=consec_timeouts — terminal marked the node suspect
	KindSessFailover // A=node B=video C=block — session redirecting reads off a suspect node
	KindNodeRejoin   // A=node B=downtime_ns — node answered again (or restarted); suspicion cleared
	KindNodeDrop     // A=node B=reply C=dropped — crashed node silently dropped a message

	// Prefix cache (internal/cache): per-node hit/insert/evict lifecycle.
	KindCacheHit    // A=node B=video C=block — prefix block served from cache, disk bypassed
	KindCacheInsert // A=node B=video C=block — block admitted into the node's prefix cache
	KindCacheEvict  // A=node B=video C=block — block evicted to make room

	// Stream merging (core/merge.go): terminal = the follower.
	KindMergeJoin   // A=leader B=video C=from — follower merged onto leader's stream at block `from`
	KindMergeDetach // A=video B=next_block — follower detached mid-stream, resumes self-fetching

	// Workload scenario generator (internal/workload): one event per
	// phase entry, so post-mortems attribute glitches to the traffic
	// phase that caused them.
	KindWlPhase // A=phase B=cycle C=load_milli D=promote (-1 = none)

	numKinds
)

// Glitch causes carried in KindTermGlitch's A field. They mirror the
// per-cause counters in core.Metrics.
const (
	CauseUnderrun int64 = iota // playout buffer ran dry
	CauseDiskFail              // request NACKed by a failed disk, retries exhausted
	CauseTimeout               // request timed out, retries exhausted
)

// CauseName names a KindTermGlitch cause code.
func CauseName(c int64) string {
	switch c {
	case CauseUnderrun:
		return "underrun"
	case CauseDiskFail:
		return "diskfail"
	case CauseTimeout:
		return "timeout"
	}
	return "unknown"
}

// Event is one fixed-size trace record. Terminal is -1 for events not
// attributable to a terminal. The meaning of A–D depends on Kind; a
// field whose name is blank in the schema is unused and zero.
type Event struct {
	T          sim.Time
	Kind       Kind
	Terminal   int32
	A, B, C, D int64
}

// kindInfo fixes, per kind, the exported event name and the JSONL
// field names of A–D ("" = unused). This table *is* the trace schema;
// OBSERVABILITY.md documents it field-by-field and must be kept in sync.
var kindInfo = [numKinds]struct {
	name   string
	fields [4]string
}{
	KindDiskEnqueue:  {"disk.enqueue", [4]string{"disk", "qlen", "deadline_ns", "prefetch"}},
	KindDiskDispatch: {"disk.dispatch", [4]string{"disk", "qlen", "wait_ns", "prefetch"}},
	KindDiskComplete: {"disk.complete", [4]string{"disk", "service_ns", "failed", "prefetch"}},
	KindPoolHit:      {"pool.hit", [4]string{"node", "video", "block", "inflight"}},
	KindPoolMiss:     {"pool.miss", [4]string{"node", "video", "block", ""}},
	KindPoolPrefetch: {"pool.prefetch", [4]string{"node", "video", "block", ""}},
	KindPoolProtect:  {"pool.protect", [4]string{"node", "video", "block", ""}},
	KindPoolEvict:    {"pool.evict", [4]string{"node", "video", "block", "unreferenced"}},
	KindNetSend:      {"net.send", [4]string{"bytes", "delay_ns", "dropped", ""}},
	KindAdmWait:      {"adm.wait", [4]string{"active", "limit", "", ""}},
	KindAdmAdmit:     {"adm.admit", [4]string{"active", "limit", "", ""}},
	KindAdmRelease:   {"adm.release", [4]string{"active", "limit", "", ""}},
	KindAdmReject:    {"adm.reject", [4]string{"active", "limit", "wait_ns", ""}},
	KindTermBuffer:   {"term.buffer", [4]string{"buffered_bytes", "outstanding", "frontier_block", ""}},
	KindTermGlitch:   {"term.glitch", [4]string{"cause", "video", "pos", "buffered_bytes"}},
	KindTermPrime:    {"term.prime", [4]string{"video", "recover_ns", "primes", ""}},
	KindTermSeek:     {"term.seek", [4]string{"video", "block", "", ""}},
	KindOverShed:     {"over.shed", [4]string{"degraded", "limit", "slack_ns", ""}},
	KindOverRestore:  {"over.restore", [4]string{"degraded", "limit", "slack_ns", ""}},
	KindOverLimit:    {"over.limit", [4]string{"limit", "prev", "slack_ns", ""}},
	KindRebuildStart: {"rebuild.start", [4]string{"disk", "blocks", "", ""}},
	KindRebuildDone:  {"rebuild.done", [4]string{"disk", "rebuilt", "window_ns", ""}},
	KindNodeSuspect:  {"node.suspect", [4]string{"node", "consec_timeouts", "", ""}},
	KindSessFailover: {"sess.failover", [4]string{"node", "video", "block", ""}},
	KindNodeRejoin:   {"node.rejoin", [4]string{"node", "downtime_ns", "", ""}},
	KindNodeDrop:     {"node.drop", [4]string{"node", "reply", "dropped", ""}},
	KindCacheHit:     {"cache.hit", [4]string{"node", "video", "block", ""}},
	KindCacheInsert:  {"cache.insert", [4]string{"node", "video", "block", ""}},
	KindCacheEvict:   {"cache.evict", [4]string{"node", "video", "block", ""}},
	KindMergeJoin:    {"merge.join", [4]string{"leader", "video", "from", ""}},
	KindMergeDetach:  {"merge.detach", [4]string{"video", "next_block", "", ""}},
	KindWlPhase:      {"wl.phase", [4]string{"phase", "cycle", "load_milli", "promote"}},
}

// Name returns the schema name of the kind ("disk.enqueue", …).
func (k Kind) Name() string {
	if k < numKinds {
		return kindInfo[k].name
	}
	return "unknown"
}

// Recorder collects trace events for one simulation run. A nil
// *Recorder is valid and inert: every method returns immediately, so
// subsystems hold a plain field and emit unconditionally. A Recorder
// is single-threaded by construction — it belongs to one simulation,
// and the sim kernel runs exactly one process at a time — so emitting
// takes no locks.
type Recorder struct {
	k     *sim.Kernel
	ring  []Event
	next  int    // next slot to overwrite
	total uint64 // events emitted, including overwritten ones

	// Online per-subsystem latency histograms, updated at emit time so
	// they see every event even after the ring wraps.
	diskWait    *stats.Histogram // seconds queued before dispatch
	diskService *stats.Histogram // seconds of seek+rotation+transfer
	netDelay    *stats.Histogram // seconds of wire delay (delivered sends)
}

// NewRecorder creates a recorder stamping events with k's clock.
func NewRecorder(k *sim.Kernel, opts Options) *Recorder {
	if !opts.Enabled {
		return nil
	}
	n := opts.Capacity
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{
		k:    k,
		ring: make([]Event, n),
		// Bases chosen so bucket 0 starts well under the smallest
		// plausible sample: 10 µs for disk times (a track-to-track
		// seek is ~1 ms), 1 µs for wire delays (base latency is 5 µs).
		diskWait:    stats.NewHistogram(10e-6, 24),
		diskService: stats.NewHistogram(10e-6, 24),
		netDelay:    stats.NewHistogram(1e-6, 20),
	}
}

// emit appends one event to the ring. Hot path: no allocation, no
// locking, no time lookup beyond the kernel clock read.
func (r *Recorder) emit(kind Kind, terminal int32, a, b, c, d int64) {
	ev := &r.ring[r.next]
	ev.T = r.k.Now()
	ev.Kind = kind
	ev.Terminal = terminal
	ev.A, ev.B, ev.C, ev.D = a, b, c, d
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
}

// NoDeadline is the C value of KindDiskEnqueue for requests without a
// real-time deadline (infinite-deadline prefetches).
const NoDeadline int64 = -1

// DiskEnqueue records a request entering a disk queue. deadline is the
// request's real-time deadline, or sim.TimeInfinity for none.
func (r *Recorder) DiskEnqueue(disk, terminal int, deadline sim.Time, prefetch bool, qlen int) {
	if r == nil {
		return
	}
	dl := int64(deadline)
	if deadline >= sim.TimeInfinity {
		dl = NoDeadline
	}
	r.emit(KindDiskEnqueue, int32(terminal), int64(disk), int64(qlen), dl, b2i(prefetch))
}

// DiskDispatch records the scheduler handing a request to the disk arm
// after wait time in queue.
func (r *Recorder) DiskDispatch(disk, terminal int, wait sim.Duration, prefetch bool, qlen int) {
	if r == nil {
		return
	}
	r.diskWait.Add(wait.Seconds())
	r.emit(KindDiskDispatch, int32(terminal), int64(disk), int64(qlen), int64(wait), b2i(prefetch))
}

// DiskComplete records a request finishing service (or failing, when
// the disk fail-stopped mid-service or rejected it outright).
func (r *Recorder) DiskComplete(disk, terminal int, service sim.Duration, prefetch, failed bool) {
	if r == nil {
		return
	}
	if !failed {
		r.diskService.Add(service.Seconds())
	}
	r.emit(KindDiskComplete, int32(terminal), int64(disk), int64(service), b2i(failed), b2i(prefetch))
}

// PoolHit records a buffer-pool reference satisfied by a resident page;
// inflight marks hits on pages whose disk fetch has not completed yet.
func (r *Recorder) PoolHit(node, terminal, video, block int, inflight bool) {
	if r == nil {
		return
	}
	r.emit(KindPoolHit, int32(terminal), int64(node), int64(video), int64(block), b2i(inflight))
}

// PoolMiss records a demand reference that missed and issued a fetch.
func (r *Recorder) PoolMiss(node, terminal, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindPoolMiss, int32(terminal), int64(node), int64(video), int64(block), 0)
}

// PoolPrefetch records a prefetched page entering the pool — under
// love-prefetch this is the moment the prefetched chain protects it.
func (r *Recorder) PoolPrefetch(node, terminal, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindPoolPrefetch, int32(terminal), int64(node), int64(video), int64(block), 0)
}

// PoolProtect records the protection paying off: a demand reference
// arriving at a prefetched page that survived eviction until use.
func (r *Recorder) PoolProtect(node, terminal, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindPoolProtect, int32(terminal), int64(node), int64(video), int64(block), 0)
}

// PoolEvict records a page leaving the pool; unreferenced marks a
// prefetched page evicted before any demand reference (wasted I/O).
func (r *Recorder) PoolEvict(node, video, block int, unreferenced bool) {
	if r == nil {
		return
	}
	r.emit(KindPoolEvict, -1, int64(node), int64(video), int64(block), b2i(unreferenced))
}

// NetSend records a message entering the interconnect. delay includes
// fault-injected jitter; dropped sends are metered but never delivered.
func (r *Recorder) NetSend(bytes int64, delay sim.Duration, dropped bool) {
	if r == nil {
		return
	}
	if !dropped {
		r.netDelay.Add(delay.Seconds())
	}
	r.emit(KindNetSend, -1, bytes, int64(delay), b2i(dropped), 0)
}

// AdmWait records a stream refused admission (capacity exhausted).
func (r *Recorder) AdmWait(terminal, active, limit int) {
	if r == nil {
		return
	}
	r.emit(KindAdmWait, int32(terminal), int64(active), int64(limit), 0, 0)
}

// AdmAdmit records a stream admitted; active includes the new stream.
func (r *Recorder) AdmAdmit(terminal, active, limit int) {
	if r == nil {
		return
	}
	r.emit(KindAdmAdmit, int32(terminal), int64(active), int64(limit), 0, 0)
}

// AdmRelease records a stream departing; active excludes it.
func (r *Recorder) AdmRelease(terminal, active, limit int) {
	if r == nil {
		return
	}
	r.emit(KindAdmRelease, int32(terminal), int64(active), int64(limit), 0, 0)
}

// AdmReject records an admission rejection: the stream's patience
// expired after wait in the queue.
func (r *Recorder) AdmReject(terminal, active, limit int, wait sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindAdmReject, int32(terminal), int64(active), int64(limit), int64(wait), 0)
}

// OverShed records one stream downshifted to degraded mode.
func (r *Recorder) OverShed(terminal, degraded, limit int, slack sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindOverShed, int32(terminal), int64(degraded), int64(limit), int64(slack), 0)
}

// OverRestore records one stream restored to full quality.
func (r *Recorder) OverRestore(terminal, degraded, limit int, slack sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindOverRestore, int32(terminal), int64(degraded), int64(limit), int64(slack), 0)
}

// OverLimit records an adaptive admission-limit move.
func (r *Recorder) OverLimit(limit, prev int, slack sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindOverLimit, -1, int64(limit), int64(prev), int64(slack), 0)
}

// RebuildStart records the stale-set marking at a disk repair.
func (r *Recorder) RebuildStart(disk, blocks int) {
	if r == nil {
		return
	}
	r.emit(KindRebuildStart, -1, int64(disk), int64(blocks), 0, 0)
}

// RebuildDone records a completed rebuild pass and its window of
// vulnerability (downtime + rebuild duration).
func (r *Recorder) RebuildDone(disk, rebuilt int, window sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindRebuildDone, -1, int64(disk), int64(rebuilt), int64(window), 0)
}

// NodeSuspect records a terminal marking a node suspect after consec
// consecutive request timeouts against it.
func (r *Recorder) NodeSuspect(terminal, node, consec int) {
	if r == nil {
		return
	}
	r.emit(KindNodeSuspect, int32(terminal), int64(node), int64(consec), 0, 0)
}

// SessFailover records a session redirecting a block read to the mirror
// copy because the block's primary node is suspect.
func (r *Recorder) SessFailover(terminal, node, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindSessFailover, int32(terminal), int64(node), int64(video), int64(block), 0)
}

// NodeRejoin records suspicion of a node being cleared — the node
// answered a request again, or its restart was observed. downtime is
// how long the node was down (0 when only suspected, never crashed).
func (r *Recorder) NodeRejoin(terminal, node int, downtime sim.Duration) {
	if r == nil {
		return
	}
	r.emit(KindNodeRejoin, int32(terminal), int64(node), int64(downtime), 0, 0)
}

// NodeDrop records a crashed node silently dropping a message: an
// incoming request (reply=0) or an outbound reply (reply=1). dropped is
// the node's running drop count.
func (r *Recorder) NodeDrop(terminal, node int, reply bool, dropped int64) {
	if r == nil {
		return
	}
	r.emit(KindNodeDrop, int32(terminal), int64(node), b2i(reply), dropped, 0)
}

// TermBuffer records a playout-buffer occupancy sample, taken whenever
// a block arrives at the terminal. outstanding is requested-not-arrived
// bytes; frontier is the contiguous block count received.
func (r *Recorder) TermBuffer(terminal int, buffered, outstanding int64, frontier int) {
	if r == nil {
		return
	}
	r.emit(KindTermBuffer, int32(terminal), buffered, outstanding, int64(frontier), 0)
}

// TermGlitch records a playout glitch with its cause (Cause* constants),
// the position at which it struck (the stalled frame for underruns, the
// abandoned block for lost blocks), and the bytes still buffered.
func (r *Recorder) TermGlitch(terminal int, cause int64, video, pos int, buffered int64) {
	if r == nil {
		return
	}
	r.emit(KindTermGlitch, int32(terminal), cause, int64(video), int64(pos), buffered)
}

// TermPrime records playout (re)starting after the buffer primed;
// recover is the stall duration being recovered from (0 at first start).
func (r *Recorder) TermPrime(terminal, video int, recover sim.Duration, primes int) {
	if r == nil {
		return
	}
	r.emit(KindTermPrime, int32(terminal), int64(video), int64(recover), int64(primes), 0)
}

// TermSeek records a VCR seek (fast-forward/rewind target block).
func (r *Recorder) TermSeek(terminal, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindTermSeek, int32(terminal), int64(video), int64(block), 0, 0)
}

// CacheHit records a prefix-cache hit: the node served the block from
// its cache, bypassing the buffer pool and disks.
func (r *Recorder) CacheHit(node, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindCacheHit, -1, int64(node), int64(video), int64(block), 0)
}

// CacheInsert records a block admitted into a node's prefix cache after
// a disk fetch.
func (r *Recorder) CacheInsert(node, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindCacheInsert, -1, int64(node), int64(video), int64(block), 0)
}

// CacheEvict records a block evicted from a node's prefix cache by the
// replacement policy.
func (r *Recorder) CacheEvict(node, video, block int) {
	if r == nil {
		return
	}
	r.emit(KindCacheEvict, -1, int64(node), int64(video), int64(block), 0)
}

// MergeJoin records a follower terminal merging onto leader's in-flight
// stream of video, with the follower's own fetching parked from block
// `from` onward.
func (r *Recorder) MergeJoin(follower, leader, video, from int) {
	if r == nil {
		return
	}
	r.emit(KindMergeJoin, int32(follower), int64(leader), int64(video), int64(from), 0)
}

// MergeDetach records a follower leaving a merged stream mid-movie
// (leader departed, seek, or buffer pressure); next is the first block
// the follower will fetch for itself.
func (r *Recorder) MergeDetach(follower, video, next int) {
	if r == nil {
		return
	}
	r.emit(KindMergeDetach, int32(follower), int64(video), int64(next), 0, 0)
}

// WlPhase records the workload scenario entering a phase: its index
// within the cycle, the 0-based cycle count, the phase's arrival-rate
// multiplier in thousandths, and the promoted video id (-1 = none).
func (r *Recorder) WlPhase(phase, cycle int, loadMilli, promote int64) {
	if r == nil {
		return
	}
	r.emit(KindWlPhase, -1, int64(phase), int64(cycle), loadMilli, promote)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Data is an immutable snapshot of a finished run's trace, carried in
// core.Metrics. Events are in chronological order; when the ring
// wrapped, they are the most recent len(Events) of Total emissions.
type Data struct {
	Events []Event
	Total  uint64

	// Latency histograms over the whole run (every emission, not just
	// the events retained in the ring). Values are seconds.
	DiskWait    *stats.Histogram
	DiskService *stats.Histogram
	NetDelay    *stats.Histogram
}

// Snapshot copies the ring out in chronological order. Safe on a nil
// recorder (returns nil). Called once per run, off the hot path.
func (r *Recorder) Snapshot() *Data {
	if r == nil {
		return nil
	}
	d := &Data{
		Total:       r.total,
		DiskWait:    r.diskWait,
		DiskService: r.diskService,
		NetDelay:    r.netDelay,
	}
	if r.total >= uint64(len(r.ring)) {
		// Wrapped: oldest retained event is at next.
		d.Events = make([]Event, len(r.ring))
		n := copy(d.Events, r.ring[r.next:])
		copy(d.Events[n:], r.ring[:r.next])
	} else {
		d.Events = make([]Event, r.next)
		copy(d.Events, r.ring[:r.next])
	}
	return d
}

// Dropped reports how many emitted events the ring overwrote.
func (d *Data) Dropped() uint64 {
	if d == nil {
		return 0
	}
	return d.Total - uint64(len(d.Events))
}

// CountByKind tallies retained events per kind.
func (d *Data) CountByKind() [int(numKinds)]uint64 {
	var n [int(numKinds)]uint64
	if d == nil {
		return n
	}
	for _, ev := range d.Events {
		if ev.Kind < numKinds {
			n[ev.Kind]++
		}
	}
	return n
}

// Glitches returns the retained glitch events in order.
func (d *Data) Glitches() []Event {
	if d == nil {
		return nil
	}
	var out []Event
	for _, ev := range d.Events {
		if ev.Kind == KindTermGlitch {
			out = append(out, ev)
		}
	}
	return out
}

// PostMortem returns the last n retained events touching the given
// terminal at or before time t — the evidence trail leading into a
// glitch. Pass the glitch event's T and Terminal.
func (d *Data) PostMortem(terminal int32, t sim.Time, n int) []Event {
	if d == nil || n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	// Walk backwards from the newest event not after t.
	for i := len(d.Events) - 1; i >= 0 && len(out) < n; i-- {
		ev := d.Events[i]
		if ev.T > t || ev.Terminal != terminal {
			continue
		}
		out = append(out, ev)
	}
	// Reverse into chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
