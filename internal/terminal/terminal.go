// Package terminal implements the SPIFFI video terminal (§5.1): a client
// with a small memory that primes its buffer, then displays MPEG frames
// while pipelining stripe-block requests to the server nodes it computes
// addresses for itself (SPIFFI is decentralized). If the playout buffer
// runs dry a glitch is recorded and the terminal re-primes before
// resuming. Terminals assign every request the deadline by which it must
// complete to avoid a glitch (§5.2.2), support pause/resume (§8.1), and
// can be piggybacked onto a shared stream via a start coordinator (§8.2).
//
// Display is frame-exact but event-compressed: instead of one event per
// frame, the terminal computes — from the video's byte prefix sums — the
// exact future instant its buffer runs dry (or frees enough space) and
// sleeps until then, recomputing as blocks arrive. Observable behaviour
// (glitch times, buffer occupancy at any instant) is identical to naive
// per-frame simulation.
package terminal

import (
	"fmt"

	"spiffi/internal/layout"
	"spiffi/internal/mpeg"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// PauseConfig enables the §8.1 pause experiment: each playback pauses
// MeanPauses times on average (Poisson), each for an exponentially
// distributed duration with mean MeanDuration, at uniformly random
// positions in the video.
type PauseConfig struct {
	MeanPauses   float64
	MeanDuration sim.Duration
}

// AdmissionGate is the admission-control surface a terminal sees
// (implemented by admission.Controller). Admit blocks until a stream
// slot is held (true) or patience expires (false, the NACK path);
// Release returns the slot at movie end. AdmitFailover is the
// failover-priority path: a session migrating off a crashed node
// re-admits ahead of new arrivals, so survivors' spare capacity goes to
// keeping running sessions alive before starting fresh ones.
type AdmissionGate interface {
	Admit(p *sim.Proc, terminal int) bool
	AdmitFailover(p *sim.Proc, terminal int) bool
	Release(terminal int)
}

// StartCoordinator batches terminals that want to start the same video
// (piggybacking, §8.2). JoinOrLead blocks for the batch delay and reports
// whether this terminal leads the batch (and must really stream) or rides
// along on the leader's stream.
type StartCoordinator interface {
	JoinOrLead(p *sim.Proc, terminal, video int) (leader bool)
}

// Merger is the stream-merging surface (core/merge.go, CACHING.md): the
// generalization of piggybacking that lets a cache-started viewer catch
// up to an in-flight disk stream so one disk read feeds N terminals.
//
// Offer asks to ride an in-flight stream of video; on success it returns
// the join block `from` — the terminal plays blocks [0, from) out of the
// node prefix caches (fetched normally, served without disk I/O) and
// receives every block from `from` on forwarded off the leader's reads
// via DeliverMerged. Lead registers the terminal as a disk-streaming
// leader others may merge onto; Advance reports any terminal's contiguous
// receive frontier passing a block (a leader's paces its stream's
// forwards, a follower's frees buffer room for more, everyone else's is
// ignored); Leave removes the terminal from any
// stream it leads or rides (a departing leader detaches its followers
// through Unmerge). All calls run in kernel context and must not block.
// Pull asks the coordinator to forward more blocks to this follower now
// that buffer room has freed; it reports whether anything was forwarded.
type Merger interface {
	Offer(t *Terminal, video int) (from int, ok bool)
	Lead(t *Terminal, video int)
	Advance(t *Terminal, video, block int)
	Pull(t *Terminal) bool
	Leave(t *Terminal)
}

// Config carries the per-terminal parameters.
type Config struct {
	MemBytes int64 // playout buffer size (paper: 2 MB)

	// SendLatency and RecvLatency model the terminal-side CPU cost of
	// message operations (Table 1 instruction counts over the terminal's
	// dedicated hardware).
	SendLatency sim.Duration
	RecvLatency sim.Duration

	Pause  *PauseConfig     // nil = no pausing
	VCR    *VCRConfig       // nil = no rewind/fast-forward activity
	Gate   StartCoordinator // nil = every terminal streams for itself
	Merger Merger           // nil = no stream merging (cache tier off)

	// Admission, when non-nil, gates every movie start on an admission
	// slot; a rejected start backs off admitRetryDelay, jittered.
	Admission AdmissionGate

	// OnRespTime, when non-nil, observes every block request's round
	// trip (the assembly feeds a shared latency histogram).
	OnRespTime func(sim.Duration)

	// Think, when non-nil, is drawn after each completed movie and idles
	// the terminal that long before it selects the next one — binge
	// sessions with inter-video think time, scaled by the workload
	// layer's phase load. Zero means start at once; nil (the default)
	// keeps the historical back-to-back behavior exactly.
	Think func() sim.Duration

	// SeekBoost, when non-nil, multiplies VCRConfig.MeanSeeksPerMovie
	// at each movie start — the workload layer's VCR-interaction storm
	// phases. nil (the default) leaves the configured mean untouched.
	SeekBoost func() float64

	// RandomInitialPosition starts each terminal's FIRST movie at a
	// uniformly random position, so the simulated snapshot begins in the
	// steady state the paper measures (terminals spread across movie
	// positions) without simulating a full movie-length warm-up.
	// Subsequent movies always start from the beginning.
	RandomInitialPosition bool

	// RequestTimeout, when positive, arms a timer per outstanding block
	// request; an unanswered request is retried up to MaxRetries times
	// with exponential backoff starting at RetryBackoff and capped at 64x
	// it, rotating to the replica copy when the layout has one. A block still unanswered after
	// the final retry is abandoned: the terminal records a glitch with its
	// cause and plays over the hole. Zero (the default) disables the whole
	// machinery — no timers are armed, so fault-free runs are event-for-
	// event identical to a build without it.
	RequestTimeout sim.Duration
	MaxRetries     int
	RetryBackoff   sim.Duration

	// Health, when non-nil, is the simulation-wide node suspicion
	// tracker: the terminal reports request timeouts and replies to it,
	// and (with Failover) consults it when resolving block addresses.
	// Requires RequestTimeout > 0 to ever observe a timeout.
	Health *NodeHealth

	// Failover enables session continuity across node crashes: blocks
	// whose primary lives on a suspect node are proactively resolved to
	// their mirror copy, retries prefer copies on non-suspect nodes, and
	// an impacted session re-admits through the failover-priority path.
	// Off (the default), Health still tracks suspicion and sessions are
	// accounted lost — the experiment's comparison baseline.
	Failover bool
}

// Stats aggregates one terminal's counters. Every counter is a lifetime
// total since simulation start; the assembly takes the measurement
// window as the difference of two readings. A maximum cannot be
// differenced, so the window maxima (RespTimeMax, SeekRePrimeMax,
// RecoveryMax) record only while the window is open; FailoverLatMax
// spans the run.
type Stats struct {
	Glitches        int64
	MoviesStarted   int64
	MoviesCompleted int64
	BlocksReceived  int64
	RespTimeSum     sim.Duration // request round-trip accumulation
	RespTimeMax     sim.Duration
	Primes          int64 // priming cycles (starts + glitch recoveries)

	// §8.1 interactive-operation counters.
	Seeks          int64        // rewind/fast-forward operations
	SkimBlocks     int64        // blocks fetched for visual search
	StaleDrops     int64        // replies discarded after a reposition
	SeekRePrimeSum sim.Duration // seek-to-resume latency accumulation
	SeekRePrimeMax sim.Duration

	// Degraded-mode counters (fault injection). The per-cause glitch
	// counters break Glitches down by what the viewer saw: a frozen
	// picture (buffer underrun) or missing data played over (a block
	// abandoned after NACKs from a dead disk, or after repeated timeouts
	// when requests or replies were lost).
	GlitchesUnderrun int64
	GlitchesDiskFail int64
	GlitchesTimeout  int64
	Nacks            int64 // NACK replies received
	Retries          int64 // re-issued requests
	Timeouts         int64 // request timeouts fired
	LostBlocks       int64 // blocks abandoned after the final retry
	Recoveries       int64 // completed glitch-to-resume recoveries
	RecoverySum      sim.Duration
	RecoveryMax      sim.Duration

	// Overload-control counters: admission rejections seen by this
	// terminal, and blocks/frames skipped while shed to degraded mode.
	AdmRejects     int64
	DegradedBlocks int64
	DegradedFrames int64

	// Failover session accounting (reported over the whole run: a crash
	// may straddle the measurement boundary). A session is "impacted"
	// when one of its request timeouts finds the target node suspect;
	// it is "recovered" when a later first-attempt read of a block whose
	// primary lives on the impacted node succeeds (the session streams
	// on without the retry path), and "lost" if it ends — or the run
	// ends — still unresolved. Impacted == Recovered + Lost once
	// CloseSessionAccounting has run.
	SessionsImpacted  int64
	SessionsRecovered int64
	SessionsLost      int64
	FailoverLatSum    sim.Duration // impact-to-recovery latency accumulation
	FailoverLatMax    sim.Duration
	FailoverRedirects int64 // blocks proactively resolved to the mirror copy
	FailoverReadmits  int64 // failover-priority re-admissions performed

	// MergeDetaches counts mid-stream exits from a merged stream (leader
	// departed, seek, or buffer pressure), after which the terminal
	// fetches for itself. Reported over the whole run: a merge may
	// straddle the measurement boundary.
	MergeDetaches int64
}

// Terminal is one subscriber set-top unit.
type Terminal struct {
	id    int
	k     *sim.Kernel
	cfg   Config
	lib   *mpeg.Library
	place *layout.Placement
	src   *rng.Source

	// send ships a request to a node; wired by the simulation assembly.
	send func(node int, req *proto.BlockRequest)
	// selectVideo draws the next movie (Zipf or uniform over the
	// library); wired by the simulation assembly.
	selectVideo func() int
	// measuring reports whether the measurement window is open; it
	// gates the window maxima in Stats.
	measuring func() bool
	// onStarted fires once, when the terminal first begins display.
	onStarted func()
	// replied and arrive are onReply and applyArrival, bound once: every
	// request carries replied, and a delayed receive re-schedules the
	// request itself with arrive as its hop.
	replied, arrive func(*proto.BlockRequest)

	// --- current playback ---
	video   *mpeg.Video
	vid     int
	nblocks int

	nextReq        int           // next block index to request
	frontierBlocks int           // contiguous blocks received
	frontierBytes  int64         // contiguous stream bytes received
	ooo            map[int]int64 // out-of-order arrivals: block -> size
	oooBytes       int64
	outstanding    int64 // requested, not yet arrived

	// pending tracks in-flight requests for the retry machinery, keyed by
	// block. Empty whenever RequestTimeout is zero. An arrival is "live"
	// only if it is the entry's current attempt (pointer identity);
	// replies from superseded attempts are stale-dropped.
	pending  map[int]*pendingReq
	glitchAt sim.Time // when the in-progress glitch stalled display (MTTR)

	// --- failover session state ---
	holdsSlot   bool     // an admission slot is currently held
	needReadmit bool     // impacted with Failover: re-admit at fetcher's next step
	sessAborted bool     // failover re-admission rejected: drain and end the session
	impactNode  int      // node whose suspicion impacted this session (-1 = none)
	impactAt    sim.Time // when the impaction was noted

	playing        bool
	displayStart   sim.Time // frame f displays at displayStart + f*period
	consumedFrames int

	pauseFrames []int
	pauseDurs   []sim.Duration
	seekFrames  []int
	seekStarted sim.Time // when the in-progress seek began (for latency)

	playerWait  sim.Queue // player parked awaiting priming
	fetcherWait sim.Queue // fetcher parked awaiting display progress
	movieChange *sim.Event

	// mergedFrom, when >= 0, marks this terminal a merge follower: it
	// fetches blocks [0, mergedFrom) itself (the cached prefix) and
	// receives every later block forwarded off the leader's stream.
	// -1 = not merged.
	mergedFrom int

	started bool
	// degraded marks the stream shed to half block rate by the
	// overload controller: the fetcher skips every other block and the
	// viewer plays over the holes (bounded quality loss, no underruns).
	degraded bool
	stats    Stats
	rec      *trace.Recorder // nil unless tracing is enabled

	// jit is the terminal's jitter stream (derived, so merely creating
	// it consumes nothing from src); drawn only on admission-rejection
	// backoffs.
	jit *rng.Source
}

// New creates a terminal and starts its player and fetcher processes.
// send, selectVideo, measuring and onStarted wire the terminal into the
// simulation; onStarted may be nil.
func New(
	k *sim.Kernel,
	id int,
	cfg Config,
	lib *mpeg.Library,
	place *layout.Placement,
	src *rng.Source,
	send func(node int, req *proto.BlockRequest),
	selectVideo func() int,
	measuring func() bool,
	onStarted func(),
) *Terminal {
	if cfg.MemBytes < place.BlockSize() {
		panic(fmt.Sprintf("terminal: memory %d smaller than one block %d", cfg.MemBytes, place.BlockSize()))
	}
	t := &Terminal{
		id:          id,
		k:           k,
		cfg:         cfg,
		lib:         lib,
		place:       place,
		src:         src,
		send:        send,
		selectVideo: selectVideo,
		measuring:   measuring,
		onStarted:   onStarted,
		movieChange: new(sim.Event),
		pending:     make(map[int]*pendingReq),
		jit:         src.Derive("jitter"),
		impactNode:  -1,
		mergedFrom:  -1,
	}
	t.replied, t.arrive = t.onReply, t.applyArrival
	return t
}

// Start spawns the terminal's processes with the given initial delay
// (terminals start movies at staggered random times, §6).
func (t *Terminal) Start(delay sim.Duration) {
	t.k.SpawnAt(t.k.Now().Add(delay), "player", t.player)
}

// ID returns the terminal id.
func (t *Terminal) ID() int { return t.id }

// SetTrace attaches a trace recorder (nil is fine: emits become
// no-ops). Call before Start.
func (t *Terminal) SetTrace(rec *trace.Recorder) { t.rec = rec }

// Stats returns a copy of the terminal's counters.
func (t *Terminal) Stats() Stats { return t.stats }

// HoldsSlot reports whether the terminal currently holds an admission
// slot (invariant-checking hook for the chaos harness).
func (t *Terminal) HoldsSlot() bool { return t.holdsSlot }

// Outstanding returns requested-but-unresolved bytes (invariant hook).
func (t *Terminal) Outstanding() int64 { return t.outstanding }

// BufferedBytes returns bytes held in terminal memory right now.
func (t *Terminal) BufferedBytes() int64 {
	return t.frontierBytes - t.video.BytesBeforeFrame(t.consumedFrames) + t.oooBytes
}

// --- player process ---

func (t *Terminal) player(p *sim.Proc) {
	// The fetcher lives for the terminal's whole life; the player signals
	// it at each movie change.
	t.k.Spawn("fetcher", t.fetcher)
	for {
		if t.cfg.Think != nil && t.stats.MoviesStarted > 0 {
			// Inter-movie think time: the viewer finished a session and
			// idles before bingeing the next one. The first movie keeps
			// its staggered Start delay instead.
			if d := t.cfg.Think(); d > 0 {
				p.Sleep(d)
			}
		}
		vid := t.selectVideo()
		if t.cfg.Gate != nil {
			if leader := t.cfg.Gate.JoinOrLead(p, t.id, vid); !leader {
				// Piggybacked: ride the leader's stream for the whole
				// video, placing no demands on the server (§8.2).
				t.noteStarted()
				t.stats.MoviesStarted++
				p.Sleep(t.lib.Get(vid).Duration())
				t.stats.MoviesCompleted++
				continue
			}
		}
		if t.cfg.Merger != nil && !(t.cfg.RandomInitialPosition && t.stats.MoviesStarted == 0) {
			if from, ok := t.cfg.Merger.Offer(t, vid); ok {
				// Merged start: the prefix [0, from) is served from the
				// node caches (no disk I/O) and everything after rides
				// the leader's in-flight stream, so the viewer starts
				// without claiming an admission slot — a cache hit
				// bypasses the disk admission cost entirely.
				t.startMovie(vid)
				t.mergedFrom = from
				t.playMovie(p)
				t.leaveMerge(false)
				t.resolveSessionEnd()
				if !t.sessAborted {
					t.stats.MoviesCompleted++
				}
				continue
			}
		}
		if t.cfg.Admission != nil {
			t.awaitAdmission(p)
		}
		t.startMovie(vid)
		if t.cfg.RandomInitialPosition && t.stats.MoviesStarted == 1 {
			t.seekToRandomPosition()
		}
		if t.cfg.Merger != nil && t.nextReq == 0 {
			// Streaming the whole movie from the front: register as a
			// leader others may merge onto. A random-position start is
			// mid-movie and cannot be followed.
			t.cfg.Merger.Lead(t, vid)
		}
		t.playMovie(p)
		t.leaveMerge(false)
		if t.cfg.Admission != nil && t.holdsSlot {
			t.cfg.Admission.Release(t.id)
		}
		t.holdsSlot = false
		t.resolveSessionEnd()
		if !t.sessAborted {
			t.stats.MoviesCompleted++
		}
	}
}

// leaveMerge exits any merge involvement: a departing leader dissolves
// its stream (the coordinator detaches the followers), a follower stops
// riding. detach marks a mid-stream follower exit (seek, abort, or a
// forwarded block with no buffer room) in the stats and trace; a
// natural movie end passes false.
func (t *Terminal) leaveMerge(detach bool) {
	if t.cfg.Merger == nil {
		return
	}
	if detach && t.mergedFrom >= 0 {
		t.stats.MergeDetaches++
		t.rec.MergeDetach(t.id, t.vid, t.frontierBlocks)
	}
	t.mergedFrom = -1
	t.cfg.Merger.Leave(t)
	t.wakeFetcher()
}

// Unmerge is the coordinator-initiated detach: the leader departed, so
// the follower resumes fetching for itself from its receive frontier.
// Unlike leaveMerge it must not call back into the coordinator, which
// is mid-removal.
func (t *Terminal) Unmerge() {
	if t.mergedFrom < 0 {
		return
	}
	t.mergedFrom = -1
	t.stats.MergeDetaches++
	t.rec.MergeDetach(t.id, t.vid, t.frontierBlocks)
	t.wakeOnArrival()
}

// DeliverMerged hands the terminal a block forwarded off its merged
// stream's single disk read (kernel context; network delay already
// paid by the forwarder).
func (t *Terminal) DeliverMerged(video, block int, size int64) {
	if t.cfg.RecvLatency > 0 {
		t.k.After(t.cfg.RecvLatency, func() { t.applyMerged(video, block, size) })
		return
	}
	t.applyMerged(video, block, size)
}

func (t *Terminal) applyMerged(video, block int, size int64) {
	if t.mergedFrom < 0 || video != t.vid || t.sessAborted || block < t.frontierBlocks {
		// Detached, repositioned, or aborted since the forward was sent.
		t.stats.StaleDrops++
		return
	}
	if t.BufferedBytes()+size > t.cfg.MemBytes {
		// The follower fell behind the leader's pace; the dropped block
		// is re-fetched through the normal path.
		t.leaveMerge(true)
		return
	}
	t.stats.BlocksReceived++
	t.admit(block, size)
	t.rec.TermBuffer(t.id, t.BufferedBytes(), t.outstanding, t.frontierBlocks)
	t.wakeOnArrival()
}

// resolveSessionEnd closes this session's failover accounting: an
// impaction still unresolved when the movie ends counts as lost.
func (t *Terminal) resolveSessionEnd() {
	if t.impactNode >= 0 {
		t.stats.SessionsLost++
		t.impactNode = -1
	}
}

// CloseSessionAccounting resolves an in-flight impacted session at the
// end of the run (called once by the assembly before aggregating stats)
// so Impacted == Recovered + Lost holds in the final metrics.
func (t *Terminal) CloseSessionAccounting() { t.resolveSessionEnd() }

// admitRetryDelay is the base backoff after an admission rejection,
// jittered from the terminal's derived stream so rejected streams
// spread out.
const admitRetryDelay = 5 * sim.Second

// awaitAdmission claims a stream slot before each movie, looping
// through the rejection (NACK) path with jittered backoff. A terminal
// queued or rejected counts as started: it is an active viewer the
// warm-up gate (§6) must not wait on forever.
func (t *Terminal) awaitAdmission(p *sim.Proc) {
	for {
		enq := t.k.Now()
		if t.cfg.Admission.Admit(p, t.id) {
			t.holdsSlot = true
			if t.k.Now() != enq {
				t.noteStarted()
			}
			return
		}
		t.noteStarted()
		t.stats.AdmRejects++
		p.Sleep(admitRetryDelay + sim.Duration(t.jit.Float64()*float64(admitRetryDelay)))
	}
}

// SetDegraded moves the stream in or out of degraded (half block
// rate) mode. Takes effect at the fetcher's next block decision; the
// overload controller calls this in kernel context.
func (t *Terminal) SetDegraded(on bool) { t.degraded = on }

// seekToRandomPosition fast-forwards the freshly selected movie to a
// random block boundary, as if the terminal had already been watching it
// — the steady-state snapshot initialization.
func (t *Terminal) seekToRandomPosition() {
	if t.nblocks < 2 {
		return
	}
	b0 := t.src.Intn(t.nblocks - 1)
	t.nextReq = b0
	t.frontierBlocks = b0
	t.frontierBytes = int64(b0) * t.place.BlockSize()
	t.consumedFrames = t.video.FirstIncompleteFrame(t.frontierBytes)
	// Drop pauses and seeks scheduled before the resume point.
	for len(t.pauseFrames) > 0 && t.pauseFrames[0] < t.consumedFrames {
		t.pauseFrames = t.pauseFrames[1:]
		t.pauseDurs = t.pauseDurs[1:]
	}
	for len(t.seekFrames) > 0 && t.seekFrames[0] < t.consumedFrames {
		t.seekFrames = t.seekFrames[1:]
	}
}

// startMovie resets stream state for the selected video.
func (t *Terminal) startMovie(vid int) {
	t.vid = vid
	t.video = t.lib.Get(vid)
	t.nblocks = t.place.NumBlocks(vid)
	t.nextReq = 0
	t.frontierBlocks = 0
	t.frontierBytes = 0
	t.ooo = make(map[int]int64)
	t.oooBytes = 0
	t.consumedFrames = 0
	t.playing = false
	// A pending re-admission belonged to the previous session; a fresh
	// movie starts clean (late-session impactions are resolved by
	// resolveSessionEnd, not migrated).
	t.needReadmit = false
	t.sessAborted = false
	t.mergedFrom = -1
	t.drawPauses()
	t.drawSeeks()
	t.stats.MoviesStarted++
	// Wake the fetcher for the new movie.
	ev := t.movieChange
	t.movieChange = new(sim.Event)
	ev.Fire()
}

// stallReason says why displayUntilStall returned.
type stallReason int

const (
	stallFinished stallReason = iota // all frames displayed
	stallGlitch                      // buffer ran dry mid-movie
	stallSeek                        // user rewind/fast-forward
)

// playMovie runs prime/display cycles until the video completes.
func (t *Terminal) playMovie(p *sim.Proc) {
	for {
		t.waitPrimed(p)
		if t.sessAborted {
			return // failover re-admission rejected: session over
		}
		t.stats.Primes++
		var recovered sim.Duration
		if t.glitchAt != 0 {
			// The prime that just completed recovered from a glitch:
			// record the viewer-visible freeze-to-resume time (MTTR).
			recovered = t.k.Now().Sub(t.glitchAt)
			t.glitchAt = 0
			t.stats.Recoveries++
			t.stats.RecoverySum += recovered
			if recovered > t.stats.RecoveryMax && t.measuring() {
				t.stats.RecoveryMax = recovered
			}
		}
		t.rec.TermPrime(t.id, t.vid, recovered, int(t.stats.Primes))
		if t.seekStarted != 0 {
			// The prime that just completed was a seek recovery; record
			// the user-visible seek-to-resume latency.
			lat := t.k.Now().Sub(t.seekStarted)
			t.stats.SeekRePrimeSum += lat
			if lat > t.stats.SeekRePrimeMax && t.measuring() {
				t.stats.SeekRePrimeMax = lat
			}
			t.seekStarted = 0
		}
		// Begin (or resume) display at frame consumedFrames.
		t.playing = true
		t.displayStart = t.k.Now() - sim.Time(t.consumedFrames)*sim.Time(t.video.FramePeriod())
		t.noteStarted()
		t.wakeFetcher()
		reason := t.displayUntilStall(p)
		t.playing = false
		if t.sessAborted {
			// Aborted mid-display: the buffered tail has been shown; end
			// the session without glitch accounting (it is counted lost).
			return
		}
		switch reason {
		case stallFinished:
			return
		case stallSeek:
			t.doSeek(p)
			// Loop: waitPrimed re-primes at the new position (§8.1).
		case stallGlitch:
			// Glitch: the buffer ran dry mid-movie (§5.1). Re-prime
			// fully before restarting so a second glitch does not
			// follow at once.
			t.stats.Glitches++
			t.stats.GlitchesUnderrun++
			t.glitchAt = t.k.Now()
			t.rec.TermGlitch(t.id, trace.CauseUnderrun, t.vid, t.consumedFrames, t.BufferedBytes())
		}
	}
}

// primed reports whether the buffer is as full as the fetcher can make
// it: nothing outstanding and no room (or no need) for another block.
// This is the §5.1 "fills or primes its buffers" condition, robust to
// partial-frame residues and end-of-video tails.
func (t *Terminal) primed() bool {
	if t.sessAborted {
		return true // nothing more will arrive; let the player run out
	}
	if t.outstanding > 0 {
		return false
	}
	if t.nextReq < t.nblocks && (t.mergedFrom < 0 || t.nextReq < t.mergedFrom) {
		free := t.cfg.MemBytes - t.BufferedBytes()
		if free >= t.place.SizeOfBlock(t.vid, t.nextReq) {
			return false // the fetcher still has room to fill
		}
	}
	// Guard: a "full" buffer must actually contain something displayable
	// (at least one complete frame past the consumption point), or
	// resuming would glitch-loop without advancing time. This state is
	// unreachable in normal operation; blocking here turns a hypothetical
	// livelock into a visible stall.
	if t.consumedFrames < t.video.NumFrames() &&
		t.video.FirstIncompleteFrame(t.frontierBytes) <= t.consumedFrames {
		return false
	}
	return true
}

// waitPrimed parks the player until the priming target is met; block
// arrivals wake it.
func (t *Terminal) waitPrimed(p *sim.Proc) {
	for !t.primed() {
		t.playerWait.Wait(p)
	}
}

// displayUntilStall advances display until the movie completes, the
// buffer runs dry, or a scheduled seek takes effect, handling pauses
// along the way.
func (t *Terminal) displayUntilStall(p *sim.Proc) stallReason {
	period := sim.Time(t.video.FramePeriod())
	for {
		f := t.video.FirstIncompleteFrame(t.frontierBytes) // stall frame

		// A scheduled seek before the stall point (and before any pause)
		// interrupts display.
		if len(t.seekFrames) > 0 && t.seekFrames[0] < f &&
			(len(t.pauseFrames) == 0 || t.seekFrames[0] <= t.pauseFrames[0]) {
			sf := t.seekFrames[0]
			t.seekFrames = t.seekFrames[1:]
			if sf > t.consumedFrames {
				p.SleepUntil(t.displayStart + sim.Time(sf)*period)
				t.syncConsumption()
			}
			return stallSeek
		}

		stallAt := t.displayStart + sim.Time(f)*period

		// A scheduled pause before the stall point takes effect first.
		if len(t.pauseFrames) > 0 && t.pauseFrames[0] < f {
			pf := t.pauseFrames[0]
			dur := t.pauseDurs[0]
			t.pauseFrames = t.pauseFrames[1:]
			t.pauseDurs = t.pauseDurs[1:]
			p.SleepUntil(t.displayStart + sim.Time(pf)*period)
			t.syncConsumption()
			t.playing = false
			p.Sleep(dur)
			t.playing = true
			t.displayStart = t.k.Now() - sim.Time(pf)*period
			t.wakeFetcher()
			continue
		}

		p.SleepUntil(stallAt)
		t.syncConsumption()
		if f == t.video.NumFrames() {
			return stallFinished
		}
		if t.video.FirstIncompleteFrame(t.frontierBytes) > f {
			continue // arrivals extended the frontier; keep displaying
		}
		return stallGlitch // dry at frame f
	}
}

// syncConsumption advances consumedFrames to the current instant.
func (t *Terminal) syncConsumption() {
	if !t.playing {
		return
	}
	f := t.video.FramesDisplayedBy(t.k.Now().Sub(t.displayStart))
	if cap := t.video.FirstIncompleteFrame(t.frontierBytes); f > cap {
		f = cap
	}
	if f > t.consumedFrames {
		t.consumedFrames = f
	}
}

func (t *Terminal) noteStarted() {
	if !t.started {
		t.started = true
		if t.onStarted != nil {
			t.onStarted()
		}
	}
}

func (t *Terminal) wakeFetcher() { t.fetcherWait.Signal() }

// drawPauses samples this playback's pause schedule.
func (t *Terminal) drawPauses() {
	t.pauseFrames = t.pauseFrames[:0]
	t.pauseDurs = t.pauseDurs[:0]
	pc := t.cfg.Pause
	if pc == nil || pc.MeanPauses <= 0 {
		return
	}
	if t.video.NumFrames() <= 0 {
		return // degenerate empty video: nowhere to pause
	}
	n := t.poisson(pc.MeanPauses)
	if n == 0 {
		return
	}
	frames := make([]int, n)
	for i := range frames {
		frames[i] = t.src.Intn(t.video.NumFrames())
	}
	// Insertion sort (n is tiny) and deduplicate.
	for i := 1; i < len(frames); i++ {
		for j := i; j > 0 && frames[j] < frames[j-1]; j-- {
			frames[j], frames[j-1] = frames[j-1], frames[j]
		}
	}
	for i, fr := range frames {
		if i > 0 && fr == t.pauseFrames[len(t.pauseFrames)-1] {
			continue
		}
		t.pauseFrames = append(t.pauseFrames, fr)
		t.pauseDurs = append(t.pauseDurs, sim.Duration(t.src.Exp(float64(pc.MeanDuration))))
	}
}

// --- fetcher process ---

func (t *Terminal) fetcher(p *sim.Proc) {
	for {
		if t.needReadmit {
			t.needReadmit = false
			t.readmitFailover(p)
			continue
		}
		if t.video == nil || t.nextReq >= t.nblocks {
			// Nothing left to request for this movie; await the next one.
			t.movieChange.Wait(p)
			continue
		}
		if t.nextReq < t.frontierBlocks {
			// Blocks below the frontier already arrived (forwarded off a
			// merged stream before a detach); skip to the first gap.
			t.nextReq = t.frontierBlocks
			continue
		}
		if _, buffered := t.ooo[t.nextReq]; buffered {
			t.nextReq++
			continue
		}
		if t.mergedFrom >= 0 && t.nextReq >= t.mergedFrom {
			// Riding a merged stream: everything from the join point
			// arrives forwarded, so the fetcher's only job is pacing
			// buffer room. It pulls forwards whenever space allows and
			// sleeps until display frees more — a timed wake, because
			// once the leader has read to end-of-video its frontier
			// stops advancing and nothing else would restart the
			// forwarding pump (core/merge.go).
			t.syncConsumption()
			size := t.place.SizeOfBlock(t.vid, t.nextReq)
			free := t.cfg.MemBytes - t.BufferedBytes() - t.outstanding
			if free >= size {
				if !t.cfg.Merger.Pull(t) {
					// Caught up to the leader's reads: only a new
					// frontier advance, arrival, or detach changes
					// anything; park until then.
					t.fetcherWait.Wait(p)
				}
				continue
			}
			if !t.playing {
				t.fetcherWait.Wait(p)
				continue
			}
			t.sleepUntilSpace(p, size-free)
			continue
		}
		size := t.place.SizeOfBlock(t.vid, t.nextReq)
		if t.degraded && t.nextReq%2 == 1 {
			// Shed stream: skip every other block. The hole is admitted
			// as if it had arrived — display plays over the missing
			// frames (bounded quality loss) while the disks see half
			// this stream's demand.
			b := t.nextReq
			t.nextReq++
			lo := int64(b) * t.place.BlockSize()
			t.stats.DegradedBlocks++
			t.stats.DegradedFrames += int64(t.video.FramesSpanned(lo, lo+size))
			t.admit(b, size)
			t.wakeOnArrival()
			continue
		}
		t.syncConsumption()
		free := t.cfg.MemBytes - t.BufferedBytes() - t.outstanding
		if free < size {
			if !t.playing {
				// No consumption while primed/paused/stalled: park until
				// display progresses.
				t.fetcherWait.Wait(p)
				continue
			}
			t.sleepUntilSpace(p, size-free)
			continue
		}
		t.issue(p, size)
	}
}

// readmitFailover migrates an impacted session's admission slot through
// the failover-priority path: the old slot is returned (the crashed
// node's share of capacity is gone) and the session re-admits ahead of
// new arrivals. Runs on the fetcher so the player keeps displaying
// buffered data while the re-admission waits. A rejection — the
// survivors genuinely cannot carry the stream — aborts the session,
// which is then accounted lost.
func (t *Terminal) readmitFailover(p *sim.Proc) {
	if t.cfg.Admission == nil || !t.holdsSlot {
		return
	}
	t.stats.FailoverReadmits++
	t.cfg.Admission.Release(t.id)
	t.holdsSlot = false
	if t.cfg.Admission.AdmitFailover(p, t.id) {
		t.holdsSlot = true
		return
	}
	t.stats.AdmRejects++
	t.abortSession()
}

// abortSession ends the current session early: pending requests are
// cancelled, no further blocks are fetched, and the player drains the
// buffered tail and returns. resolveSessionEnd then counts it lost.
func (t *Terminal) abortSession() {
	t.sessAborted = true
	t.leaveMerge(true)
	t.cancelPending()
	t.nextReq = t.nblocks
	t.wakeOnArrival()
}

// sleepUntilSpace waits until display will have freed `need` more bytes.
func (t *Terminal) sleepUntilSpace(p *sim.Proc, need int64) {
	period := sim.Time(t.video.FramePeriod())
	base := t.video.BytesBeforeFrame(t.consumedFrames)
	// First frame count cf with BytesBeforeFrame(cf) >= base+need.
	lo, hi := t.consumedFrames, t.video.NumFrames()
	for lo < hi {
		mid := (lo + hi) / 2
		if t.video.BytesBeforeFrame(mid) >= base+need {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	wake := t.displayStart + sim.Time(lo)*period
	if wake <= t.k.Now() {
		// Consumption is capped by the frontier (display is about to
		// stall); park instead of spinning.
		t.fetcherWait.Wait(p)
		return
	}
	p.SleepUntil(wake)
}

// issue sends the request for block t.nextReq. With failover enabled,
// a block whose primary node is suspect is resolved to its mirror copy
// up front — the session streams on from survivors instead of paying a
// timeout-and-retry round trip per block.
func (t *Terminal) issue(p *sim.Proc, size int64) {
	b := t.nextReq
	t.nextReq++
	t.outstanding += size
	addr := t.place.Locate(t.vid, b)
	copy := 0
	if t.cfg.Failover && t.place.Replicas() > 1 && t.cfg.Health.Suspect(addr.Node) {
		if alt := t.place.LocateCopy(t.vid, b, 1); !t.cfg.Health.Suspect(alt.Node) {
			t.rec.SessFailover(t.id, addr.Node, t.vid, b)
			t.stats.FailoverRedirects++
			addr, copy = alt, 1
		}
	}
	req := t.blockRequest(t.vid, b, size, copy, 0)
	if t.cfg.SendLatency > 0 {
		p.Sleep(t.cfg.SendLatency)
	}
	t.send(addr.Node, req)
	if t.cfg.RequestTimeout > 0 {
		pr := &pendingReq{req: req, vid: t.vid, block: b, size: size, tries: 1, node: addr.Node}
		t.pending[b] = pr
		t.armTimeout(pr)
	}
}

// blockRequest builds one attempt's request for block b of video vid,
// issued now and stamped with the block's display deadline.
func (t *Terminal) blockRequest(vid, b int, size int64, copy, attempt int) *proto.BlockRequest {
	return &proto.BlockRequest{
		Video:    vid,
		Block:    b,
		Size:     size,
		Deadline: t.deadlineFor(b),
		Terminal: t.id,
		Copy:     copy,
		Attempt:  attempt,
		Deliver:  t.replied,
		Issued:   t.k.Now(),
	}
}

// deadlineFor computes the §5.2.2 deadline: the display time of the first
// byte of block b. While display is stalled the projection assumes
// display resumes immediately, making priming requests urgent.
func (t *Terminal) deadlineFor(b int) sim.Time {
	off := int64(b) * t.place.BlockSize()
	fo := t.video.FirstIncompleteFrame(off) // frame that needs byte `off`
	period := sim.Time(t.video.FramePeriod())
	if t.playing {
		return t.displayStart + sim.Time(fo)*period
	}
	return t.k.Now() + sim.Time(fo-t.consumedFrames)*period
}

// onReply handles a data reply, in kernel context. The terminal-side
// receive latency is modeled as a delivery delay.
func (t *Terminal) onReply(req *proto.BlockRequest) {
	if t.cfg.RecvLatency > 0 {
		t.k.Schedule(t.k.Now().Add(t.cfg.RecvLatency), req.Via(t.arrive))
		return
	}
	t.applyArrival(req)
}

func (t *Terminal) applyArrival(req *proto.BlockRequest) {
	if t.cfg.Health != nil {
		// Any reply — data, NACK, even a stale one — proves the sending
		// node is alive.
		t.cfg.Health.ReportOK(t.id, t.place.LocateCopy(req.Video, req.Block, req.Copy).Node)
	}
	pr := t.pending[req.Block]
	live := pr != nil && pr.req == req && req.Video == t.vid
	if t.cfg.RequestTimeout > 0 && !live {
		// A reply from a superseded attempt (a retry was already issued),
		// an already-resolved block, or a leftover from a previous movie:
		// the retry machinery owns the accounting, nothing to do.
		t.stats.StaleDrops++
		return
	}
	if req.Video != t.vid {
		// Unreachable without the retry machinery (a movie only ends once
		// every block arrived), but tolerate rather than crash.
		t.stats.StaleDrops++
		return
	}
	if req.Status != proto.StatusOK {
		// NACK: the block's disk is fail-stopped. Fail over to a replica
		// (or back off and retry the same copy) until retries run out.
		t.stats.Nacks++
		if pr == nil {
			// Timeouts disabled (direct fault injection in tests): no
			// retry machinery, the block is simply lost.
			t.loseBlock(req.Block, req.Size, causeDiskFail)
			return
		}
		t.retryOrGiveUp(pr, causeDiskFail)
		return
	}
	if live {
		delete(t.pending, req.Block)
	}
	t.outstanding -= req.Size
	t.stats.BlocksReceived++
	rt := t.k.Now().Sub(req.Issued)
	t.stats.RespTimeSum += rt
	if rt > t.stats.RespTimeMax && t.measuring() {
		t.stats.RespTimeMax = rt
	}
	if t.cfg.OnRespTime != nil {
		t.cfg.OnRespTime(rt)
	}
	if t.impactNode >= 0 && live && (pr.tries == 1 || pr.redirected) &&
		req.Issued >= t.impactAt &&
		t.place.Locate(req.Video, req.Block).Node == t.impactNode {
		// Recovery: a block homed on the impacted node arrived on its
		// first attempt (proactive mirror redirect, or the node's own
		// restarted primary) or via a deliberate failover resend around
		// the suspect — the session streams on without paying further
		// timeout penalties. Pre-impaction stragglers (Issued < impactAt)
		// and blind retry rotation don't count.
		lat := t.k.Now().Sub(t.impactAt)
		t.stats.SessionsRecovered++
		t.stats.FailoverLatSum += lat
		if lat > t.stats.FailoverLatMax {
			t.stats.FailoverLatMax = lat
		}
		t.impactNode = -1
	}
	t.admit(req.Block, req.Size)
	t.rec.TermBuffer(t.id, t.BufferedBytes(), t.outstanding, t.frontierBlocks)
	t.wakeOnArrival()
}

// admit merges an arrived (or abandoned-hole) block into the stream
// buffer, advancing the contiguous frontier over any out-of-order run.
func (t *Terminal) admit(block int, size int64) {
	_, dup := t.ooo[block]
	if block < t.frontierBlocks || dup {
		// Stale block from before a seek repositioned the stream (or a
		// duplicate): the data is no longer wanted; only the space
		// accounting mattered. The priming check must still run — this
		// arrival may have been the last outstanding one.
		t.stats.StaleDrops++
		return
	}
	t.ooo[block] = size
	t.oooBytes += size
	for {
		sz, ok := t.ooo[t.frontierBlocks]
		if !ok {
			break
		}
		delete(t.ooo, t.frontierBlocks)
		t.oooBytes -= sz
		t.frontierBytes += sz
		b := t.frontierBlocks
		t.frontierBlocks++
		if t.cfg.Merger != nil {
			// A leader's frontier advancing paces the merged stream's
			// forwards; a follower's reports retire in-flight bytes so
			// more can be forwarded (core/merge.go ignores the rest).
			t.cfg.Merger.Advance(t, t.vid, b)
		}
	}
}

// wakeOnArrival re-evaluates the parked player and fetcher after any
// change to the buffer or outstanding accounting.
func (t *Terminal) wakeOnArrival() {
	if t.playerWait.Len() > 0 && t.primed() {
		t.playerWait.Signal()
	}
	// A stale arrival frees space without extending the buffer (the
	// outstanding count drops), so a parked fetcher must re-evaluate;
	// it re-parks immediately if nothing changed for it.
	t.wakeFetcher()
}
