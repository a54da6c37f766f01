package terminal

import (
	"math"

	"spiffi/internal/proto"
	"spiffi/internal/sim"
)

// VCRConfig enables the §8.1 interactive operations beyond pause:
// rewind and fast-forward. Each playback performs a Poisson-distributed
// number of seeks at uniformly random positions. A seek jumps an
// exponentially distributed distance (as a fraction of the video),
// forward with probability ForwardProb, then re-primes and resumes —
// the paper's basic scheme. With Skim enabled the terminal additionally
// implements the paper's "visual search": while traversing to the
// target it fetches and briefly displays one block out of every
// SkimStrideBlocks, producing the choppy scan picture without reading
// the skipped video.
type VCRConfig struct {
	MeanSeeksPerMovie float64
	MeanDistanceFrac  float64 // mean seek distance as a fraction of the video
	ForwardProb       float64 // probability a seek goes forward (else rewind)

	Skim              bool
	SkimStrideBlocks  int // sample one block per this many blocks traversed
	SkimSegmentFrames int // frames displayed per sampled block
}

// drawSeeks samples this playback's seek schedule.
func (t *Terminal) drawSeeks() {
	t.seekFrames = t.seekFrames[:0]
	vc := t.cfg.VCR
	if vc == nil || vc.MeanSeeksPerMovie <= 0 {
		return
	}
	if t.video.NumFrames() <= 0 {
		return // degenerate empty video: nowhere to seek
	}
	mean := vc.MeanSeeksPerMovie
	if t.cfg.SeekBoost != nil {
		// VCR-interaction storm: the workload layer scales this movie's
		// seek intensity by the current phase's boost factor.
		mean *= t.cfg.SeekBoost()
	}
	t.seekFrames = t.drawFrames(t.seekFrames, mean)
}

// skimState is the visual search in progress: the next block it
// samples, the signed stride to the one after, and the seek target it
// stops at; req and done are the sampled block's request and its
// arrival (or failsafe timeout), and seq numbers the sampled blocks so a
// failsafe timer outliving its block fires nothing. reply is
// onSkimReply, bound once: every skim request's Deliver.
type skimState struct {
	next, step, target int
	req                *proto.BlockRequest
	done               sim.Event
	seq                int
	reply              func(*proto.BlockRequest)
}

// doSeek executes one rewind/fast-forward: optional visual-search skim,
// then repositioning. The player re-primes afterwards.
func (t *Terminal) doSeek() playerStep {
	// A seek ends any merge involvement: a repositioned leader no longer
	// paces its followers, and a repositioned follower leaves the
	// forwarded stream behind.
	t.leaveMerge(true)
	vc := t.cfg.VCR
	blockSize := t.place.BlockSize()
	cur := int(t.video.BytesBeforeFrame(t.consumedFrames) / blockSize)

	distBlocks := int(t.src.Exp(vc.MeanDistanceFrac * float64(t.nblocks)))
	if distBlocks < 1 {
		distBlocks = 1
	}
	dir := 1
	if t.src.Float64() >= vc.ForwardProb {
		dir = -1
	}
	// Clamp high before low: with a one-block video nblocks-2 is -1, and
	// the old low-then-high order let the high clamp reintroduce a
	// negative target (repositionTo(-1) corrupted the frontier). For
	// nblocks >= 2 at most one clamp can fire, so the order is
	// behavior-identical there.
	target := cur + dir*distBlocks
	if target > t.nblocks-2 {
		target = t.nblocks - 2
	}
	if target < 0 {
		target = 0
	}

	t.stats.Seeks++
	t.seekStarted = t.k.Now()
	t.rec.TermSeek(t.id, t.vid, target)

	if vc.Skim && vc.SkimStrideBlocks > 0 && target != cur {
		if t.skim == nil {
			t.skim = &skimState{}
			t.skim.reply = t.onSkimReply
		}
		step := vc.SkimStrideBlocks * dir
		t.skim.next, t.skim.step, t.skim.target = cur+step, step, target
		return playerSkim
	}
	t.repositionTo(target)
	return playerPrime
}

// skimNext fetches the next sampled block for the visual search, or
// repositions to the target once the search has passed it. A sampled
// block bypasses the playout buffer — it is shown immediately and
// discarded, like a scrub preview.
func (t *Terminal) skimNext() playerStep {
	sk := t.skim
	if b := sk.next; !(sk.step > 0 && b < sk.target || sk.step < 0 && b > sk.target) {
		t.repositionTo(sk.target)
		return playerPrime
	}
	segTime := sim.Duration(t.cfg.VCR.SkimSegmentFrames) * t.video.FramePeriod()
	sk.done.Reset()
	sk.seq++
	sk.req = t.reqs.Get()
	*sk.req = proto.BlockRequest{
		Video:    t.vid,
		Block:    sk.next,
		Size:     t.place.SizeOfBlock(t.vid, sk.next),
		Deadline: t.k.Now().Add(segTime),
		Terminal: t.id,
		Deliver:  sk.reply,
		Issued:   t.k.Now(),
	}
	if t.cfg.SendLatency > 0 {
		return t.sleepPlayer(t.k.Now().Add(t.cfg.SendLatency), playerSkimSend)
	}
	return t.skimSend()
}

// skimSend sends the sampled block's request and waits for it.
func (t *Terminal) skimSend() playerStep {
	sk := t.skim
	t.send(t.place.Locate(sk.req.Video, sk.req.Block).Node, sk.req)
	if t.cfg.RequestTimeout > 0 {
		// Failsafe under message loss: skim blocks are best-effort and
		// not retried, but the player must not hang forever on one. The
		// request is not put back: it may still be on the wire.
		seq := sk.seq
		t.k.After(t.cfg.RequestTimeout*sim.Duration(t.cfg.MaxRetries+1), func() {
			if t.skim.seq == seq {
				t.skim.done.Fire()
			}
		})
	}
	if !sk.done.Then(t.k, t.player) {
		t.pstep = playerSkimShow
		return playerWaiting
	}
	return t.skimShow()
}

// skimShow shows the sampled block's segment, then moves on to the next
// sampled block.
func (t *Terminal) skimShow() playerStep {
	sk := t.skim
	t.stats.SkimBlocks++
	sk.next += sk.step
	sk.req = nil
	segTime := sim.Duration(t.cfg.VCR.SkimSegmentFrames) * t.video.FramePeriod()
	return t.sleepPlayer(t.k.Now().Add(segTime), playerSkim)
}

// onSkimReply is every skim request's Deliver: the reply ends the
// request's trip, so it goes back on the free list, and the sampled block
// it answers, if still awaited, is done.
func (t *Terminal) onSkimReply(req *proto.BlockRequest) {
	if req == t.skim.req {
		t.skim.done.Fire()
	}
	t.reqs.Put(req)
}

// repositionTo moves the playback position to a block boundary and
// discards all buffered data — the paper's §8.1 semantics: a seek
// re-primes the terminal's buffers from the new position. Replies still
// in flight for the old position are dropped on arrival (StaleDrops).
func (t *Terminal) repositionTo(block int) {
	// Forget in-flight requests the retry machinery tracks: their replies
	// are unwanted now, and the fetcher re-requests what the new position
	// needs. (No-op when RequestTimeout is zero — in-flight replies then
	// resolve their own accounting on arrival, as they always have.)
	t.cancelPending()
	blockSize := t.place.BlockSize()
	t.frontierBlocks = block
	t.frontierBytes = int64(block) * blockSize
	// A backward seek re-reads; a forward seek skips. Either way the
	// stream restarts cleanly at the target: no stale out-of-order
	// fragments, and the fetcher resumes from the new frontier.
	t.ooo = make(map[int]int64)
	t.oooBytes = 0
	t.nextReq = block
	t.frontierFrame = t.video.FirstIncompleteFrame(t.frontierBytes, 0)
	t.consumedFrames = t.frontierFrame
	t.wakeFetcher()
}

// poisson draws from Poisson(mean) by Knuth's method.
func (t *Terminal) poisson(mean float64) int {
	n := 0
	limit := math.Exp(-mean)
	prod := t.src.Float64()
	for prod > limit {
		n++
		prod *= t.src.Float64()
	}
	return n
}
