package terminal

import (
	"spiffi/internal/proto"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// This file is the terminal's degraded-mode machinery: request timeouts,
// bounded retries with exponential backoff, replica failover, and
// glitch-with-cause accounting for blocks the server never delivered.
// None of it runs when Config.RequestTimeout is zero — no timers are
// armed, so fault-free simulations are event-for-event identical to the
// pre-fault-injection behavior.

// pendingReq tracks one logical block request across delivery attempts.
// The outstanding byte count is charged once at the first issue and
// credited once at resolution (data arrival or final abandonment),
// however many attempts happen in between.
type pendingReq struct {
	req   *proto.BlockRequest // current (latest) attempt; nil once put back
	vid   int
	block int
	size  int64
	tries int // attempts issued so far (1 = the original)
	gen   int // bumped on every state change to void stale timers
	node  int // node the current attempt was sent to (health reporting)

	// redirected marks an attempt the failover policy deliberately sent
	// to a mirror because the block's primary node is suspect — proof of
	// service continuing around the dead node, which the session-recovery
	// accounting honors alongside clean first attempts. Blind retry
	// rotation (failover disabled) never sets it.
	redirected bool

	// held marks a req that came back as a NACK and waits here, off the
	// wire, for its resend, which sends the same request again. A req
	// that timed out may still be on the wire, so its resend takes a
	// fresh one.
	held bool
}

// glitchCause labels why a block was abandoned.
type glitchCause int

const (
	causeDiskFail glitchCause = iota // NACKed: the disk is fail-stopped
	causeTimeout                     // request or reply lost / server dead
)

// armTimeout schedules the no-reply timer for the entry's current attempt.
func (t *Terminal) armTimeout(pr *pendingReq) {
	pr.gen++
	gen := pr.gen
	t.k.After(t.cfg.RequestTimeout, func() {
		if t.pending[pr.block] != pr || pr.gen != gen {
			return // answered, abandoned, or superseded meanwhile
		}
		t.stats.Timeouts++
		if t.cfg.Health != nil {
			// The watchdog is the only crash signal: a fail-stop node
			// drops requests silently, so NACK handling never sees it.
			t.cfg.Health.ReportTimeout(t.id, pr.node)
			if t.cfg.Health.Suspect(pr.node) {
				t.noteImpact(pr.node)
			}
		}
		t.retryOrGiveUp(pr, causeTimeout)
	})
}

// retryOrGiveUp is the attempt-failed path (timeout or NACK): either
// schedule the next attempt after an exponential backoff, or abandon the
// block and record a glitch with its cause. It reports whether a retry
// is scheduled.
func (t *Terminal) retryOrGiveUp(pr *pendingReq, cause glitchCause) bool {
	pr.gen++ // void the armed timer for the failed attempt
	if pr.tries > t.cfg.MaxRetries {
		t.loseBlock(pr.block, pr.size, cause)
		return false
	}
	gen := pr.gen
	t.k.After(t.backoffFor(pr.tries)+t.cfg.SendLatency, func() {
		if t.pending[pr.block] != pr || pr.gen != gen || t.vid != pr.vid {
			// Late data arrived during the backoff, the block was
			// abandoned, or the stream repositioned: nothing to resend.
			return
		}
		t.resend(pr)
	})
	return true
}

// backoffFor returns the exponential backoff before attempt tries+1:
// RetryBackoff doubling per retry, clamped to 64x RetryBackoff. The clamp
// keeps large retry budgets from shifting the duration past int64 into a
// negative value, which would panic the kernel ("scheduling event in the
// past").
func (t *Terminal) backoffFor(tries int) sim.Duration {
	backoff := t.cfg.RetryBackoff
	limit := 64 * t.cfg.RetryBackoff
	for i := 1; i < tries && backoff < limit; i++ {
		backoff *= 2
	}
	if backoff > limit {
		backoff = limit
	}
	return backoff
}

// noteImpact records this session as impacted by the given suspect
// node (once per episode) and, with failover enabled, queues the
// failover-priority re-admission on the fetcher.
func (t *Terminal) noteImpact(node int) {
	if t.impactNode >= 0 || t.video == nil {
		return
	}
	t.impactNode = node
	t.impactAt = t.k.Now()
	t.stats.SessionsImpacted++
	if t.cfg.Failover && t.cfg.Admission != nil {
		t.needReadmit = true
		t.wakeFetcher()
	}
}

// resend issues the next attempt for the block, rotating to the replica
// copy (when the layout stores one) so a dead primary disk is routed
// around rather than hammered. With failover enabled the rotation is
// overridden to prefer a copy on a non-suspect node.
func (t *Terminal) resend(pr *pendingReq) {
	pr.tries++
	t.stats.Retries++
	attempt := pr.tries - 1 // 0-based
	copy := attempt % t.place.Replicas()
	if t.cfg.Failover && t.place.Replicas() > 1 &&
		t.cfg.Health.Suspect(t.place.LocateCopy(pr.vid, pr.block, copy).Node) {
		if alt := 1 - copy; !t.cfg.Health.Suspect(t.place.LocateCopy(pr.vid, pr.block, alt).Node) {
			copy = alt
		}
	}
	addr := t.place.LocateCopy(pr.vid, pr.block, copy)
	pr.redirected = t.cfg.Failover && copy != 0 &&
		t.cfg.Health.Suspect(t.place.Locate(pr.vid, pr.block).Node)
	req := pr.req
	if !pr.held {
		req = t.reqs.Get()
	}
	t.blockRequest(req, pr.vid, pr.block, pr.size, copy, attempt)
	pr.req, pr.held = req, false
	pr.node = addr.Node
	t.send(addr.Node, req)
	t.armTimeout(pr)
}

// loseBlock abandons a block the server will never deliver: the viewer
// gets a glitch (attributed to its cause), and playback continues over
// the hole — the frontier advances as if the bytes had arrived, so one
// dead disk costs its blocks, not the whole movie.
func (t *Terminal) loseBlock(block int, size int64, cause glitchCause) {
	delete(t.pending, block)
	t.outstanding -= size
	t.stats.LostBlocks++
	t.stats.Glitches++
	traceCause := trace.CauseTimeout
	if cause == causeDiskFail {
		traceCause = trace.CauseDiskFail
		t.stats.GlitchesDiskFail++
	} else {
		t.stats.GlitchesTimeout++
	}
	t.rec.TermGlitch(t.id, traceCause, t.vid, block, t.BufferedBytes())
	t.admit(block, size)
	t.wakeOnArrival()
}

// cancelPending abandons every tracked request without glitch accounting
// (the data is unwanted after a reposition). Late replies become stale
// drops; the blocks the stream still needs are re-requested afresh.
func (t *Terminal) cancelPending() {
	for b, pr := range t.pending {
		pr.gen++
		t.outstanding -= pr.size
		delete(t.pending, b)
	}
}
