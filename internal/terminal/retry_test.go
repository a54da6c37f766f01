package terminal

import (
	"testing"

	"spiffi/internal/proto"
	"spiffi/internal/sim"
)

// faultRig extends testRig with a scripted dead disk: a bounded number
// of blocks addressed to (node 0, disk 0) are killed — every attempt of
// a killed block on that disk is NACKed (a live node fronting a
// fail-stopped disk) or silently dropped (a dead node) — while all
// other requests are served normally. Bounding the kill count makes the
// expected NACK/retry/glitch counts exact: every killed chain resolves
// long before the run ends, whatever the terminal plays afterwards.
type faultRig struct {
	*testRig
	silent   bool        // drop instead of NACK
	budget   int         // chains left to kill
	maxChain int         // dead-path attempts per killed chain
	active   map[int]int // block -> dead-path attempts seen so far
	chains   int         // chains actually started
}

func newFaultRig(t *testing.T, cfg Config, budget, maxChain int) *faultRig {
	t.Helper()
	fr := &faultRig{
		budget:   budget,
		maxChain: maxChain,
		active:   make(map[int]int),
	}
	fr.testRig = newRig(t, cfg, 5*sim.Millisecond)
	fr.term.send = fr.route
	return fr
}

func (fr *faultRig) route(node int, req *proto.BlockRequest) {
	fr.reqs++
	addr := fr.place.LocateCopy(req.Video, req.Block, req.Copy)
	if node == 0 && addr.Disk == 0 {
		if _, killed := fr.active[req.Block]; !killed && fr.budget > 0 && req.Attempt == 0 {
			fr.budget--
			fr.chains++
			fr.active[req.Block] = 0
			killed = true
		} else if !killed {
			fr.deliver(req)
			return
		}
		if fr.active[req.Block]++; fr.active[req.Block] >= fr.maxChain {
			delete(fr.active, req.Block) // chain resolves; replays serve normally
		}
		if fr.silent {
			return
		}
		req.Status = proto.StatusNackDiskFailed
		fr.deliver(req)
		return
	}
	fr.deliver(req)
}

func (fr *faultRig) deliver(req *proto.BlockRequest) {
	fr.k.After(fr.delay, func() { req.Deliver(req) })
}

func retryCfg() Config {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	cfg.RequestTimeout = 500 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 10 * sim.Millisecond
	return cfg
}

func (fr *faultRig) run(t *testing.T, until sim.Duration) Stats {
	t.Helper()
	fr.term.Start(0)
	if err := fr.k.Run(sim.Time(until)); err != nil {
		t.Fatal(err)
	}
	fr.k.Close()
	if fr.budget != 0 {
		t.Fatalf("scripted failure underused: %d kills left", fr.budget)
	}
	if len(fr.active) != 0 {
		t.Fatalf("kill chains unresolved at end: %v", fr.active)
	}
	return fr.term.Stats()
}

// With no replica every attempt hammers the dead disk, so each killed
// block costs exactly MaxRetries+1 NACKs and MaxRetries retries before
// it is abandoned with a disk-failure glitch.
func TestRetryExactCountsUnmirrored(t *testing.T) {
	fr := newFaultRig(t, retryCfg(), 5, 4)
	st := fr.run(t, 40*sim.Second)
	if st.Timeouts != 0 {
		t.Fatalf("NACKs should preempt timeouts, got %d timeouts", st.Timeouts)
	}
	if st.Nacks != 20 {
		t.Fatalf("nacks = %d, want 20 (4 per killed block)", st.Nacks)
	}
	if st.Retries != 15 {
		t.Fatalf("retries = %d, want 15 (MaxRetries per killed block)", st.Retries)
	}
	if st.LostBlocks != 5 || st.GlitchesDiskFail != 5 {
		t.Fatalf("lost=%d diskFailGlitches=%d, want both 5", st.LostBlocks, st.GlitchesDiskFail)
	}
	if st.GlitchesTimeout != 0 {
		t.Fatalf("timeout glitches = %d, want 0", st.GlitchesTimeout)
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("playback did not ride over the holes")
	}
}

// With a mirrored layout the first retry fails over to the replica on
// the next disk, so each killed block costs exactly one NACK and one
// retry — and nothing is lost.
func TestRetryFailsOverToReplica(t *testing.T) {
	fr := newFaultRig(t, retryCfg(), 5, 1)
	fr.place.Mirror()
	st := fr.run(t, 40*sim.Second)
	if st.Nacks != 5 {
		t.Fatalf("nacks = %d, want 5 (1 per killed block)", st.Nacks)
	}
	if st.Retries != 5 {
		t.Fatalf("retries = %d, want 5 (each NACK fails over once)", st.Retries)
	}
	if st.LostBlocks != 0 || st.GlitchesDiskFail != 0 {
		t.Fatalf("failover lost data: lost=%d glitches=%d", st.LostBlocks, st.GlitchesDiskFail)
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("movie never completed")
	}
}

// A silent server (dead node) surfaces as timeouts: each killed block
// costs MaxRetries+1 timeouts and MaxRetries retries, then a glitch
// attributed to timeout rather than disk failure.
func TestRetryTimeoutPath(t *testing.T) {
	cfg := retryCfg()
	cfg.RequestTimeout = 100 * sim.Millisecond
	fr := newFaultRig(t, cfg, 5, 4)
	fr.silent = true
	st := fr.run(t, 60*sim.Second)
	if st.Nacks != 0 {
		t.Fatalf("nacks = %d, want 0 (server is silent)", st.Nacks)
	}
	if st.Timeouts != 20 {
		t.Fatalf("timeouts = %d, want 20", st.Timeouts)
	}
	if st.Retries != 15 {
		t.Fatalf("retries = %d, want 15", st.Retries)
	}
	if st.LostBlocks != 5 || st.GlitchesTimeout != 5 {
		t.Fatalf("lost=%d timeoutGlitches=%d, want both 5", st.LostBlocks, st.GlitchesTimeout)
	}
	if st.GlitchesDiskFail != 0 {
		t.Fatalf("disk-fail glitches = %d, want 0", st.GlitchesDiskFail)
	}
}

// The exponential backoff must clamp: unclamped, tries=70 would shift
// the base past int64 into a negative duration. The cap is 64x the base.
func TestRetryBackoffClamped(t *testing.T) {
	cfg := retryCfg()
	rig := newRig(t, cfg, 5*sim.Millisecond)
	defer rig.k.Close()
	tm := rig.term
	base := cfg.RetryBackoff
	cases := []struct {
		tries int
		want  sim.Duration
	}{
		{1, base},
		{2, 2 * base},
		{7, 64 * base},
		{8, 64 * base},  // clamped at the 64x cap
		{70, 64 * base}, // would be negative without the clamp
		{500, 64 * base},
	}
	for _, c := range cases {
		if got := tm.backoffFor(c.tries); got != c.want {
			t.Fatalf("backoffFor(%d) = %v, want %v", c.tries, got, c.want)
		}
		if got := tm.backoffFor(c.tries); got < 0 {
			t.Fatalf("backoffFor(%d) went negative", c.tries)
		}
	}
}

// End-to-end regression: a huge retry budget against a silently dead
// path must resolve through the clamped backoff instead of panicking the
// kernel with a negative ("in the past") timer.
func TestRetryHugeBudgetNoPanic(t *testing.T) {
	cfg := retryCfg()
	cfg.RequestTimeout = 20 * sim.Millisecond
	cfg.RetryBackoff = 1 * sim.Millisecond
	cfg.MaxRetries = 80
	fr := newFaultRig(t, cfg, 1, 81)
	fr.silent = true
	st := fr.run(t, 120*sim.Second)
	if st.Retries != 80 {
		t.Fatalf("retries = %d, want the full 80-attempt budget", st.Retries)
	}
	if st.LostBlocks != 1 || st.GlitchesTimeout != 1 {
		t.Fatalf("lost=%d timeoutGlitches=%d, want both 1", st.LostBlocks, st.GlitchesTimeout)
	}
}

// rejectingGate admits a terminal only after rejecting it a scripted
// number of times — the admission NACK path without a controller.
type rejectingGate struct {
	k        *sim.Kernel
	rejects  int
	admits   int
	releases int
}

// Admit rejects the next request after a zero-length wait while scripted
// rejections remain, and admits it at once after that.
func (g *rejectingGate) Admit(terminal int, done func(bool)) bool {
	if g.rejects > 0 {
		g.rejects--
		g.k.At(g.k.Now(), func() { done(false) })
		return false
	}
	g.admits++
	return true
}

func (g *rejectingGate) AdmitFailover(terminal int, done func(bool)) bool {
	return g.Admit(terminal, done)
}

func (g *rejectingGate) Release(terminal int) { g.releases++ }

// A rejected terminal backs off (base delay + derived jitter) and asks
// again; once admitted it plays normally and releases its slot per
// movie. The rejections are visible in the terminal's stats.
func TestAdmissionRejectRetryLoop(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	cfg.Admission = &rejectingGate{rejects: 3}
	rig := newRig(t, cfg, 5*sim.Millisecond)
	cfg.Admission.(*rejectingGate).k = rig.k
	rig.term.Start(0)
	// Three backoffs of at most 2x admitRetryDelay each, then a 30 s movie.
	if err := rig.k.Run(sim.Time(90 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	rig.k.Close()
	st := rig.term.Stats()
	gate := cfg.Admission.(*rejectingGate)
	if st.AdmRejects != 3 {
		t.Fatalf("admission rejects = %d, want the scripted 3", st.AdmRejects)
	}
	// At the cutoff the terminal may be mid-movie, holding one slot.
	if gate.admits == 0 || gate.admits-gate.releases > 1 || gate.releases > gate.admits {
		t.Fatalf("slot ledger broken: admits=%d releases=%d", gate.admits, gate.releases)
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("admitted terminal never completed a movie")
	}
}

// Without the retry machinery a NACK must still resolve the block —
// otherwise the outstanding-byte ledger leaks and the stream wedges.
func TestNackWithoutRetryMachinery(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	fr := newFaultRig(t, cfg, 5, 1)
	st := fr.run(t, 40*sim.Second)
	if st.Nacks != 5 {
		t.Fatalf("nacks = %d, want 5", st.Nacks)
	}
	if st.Retries != 0 {
		t.Fatalf("retries = %d with RequestTimeout unset", st.Retries)
	}
	if st.LostBlocks != 5 {
		t.Fatalf("every NACK must abandon its block immediately: lost=%d, want 5", st.LostBlocks)
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("stream wedged after NACKs")
	}
}
