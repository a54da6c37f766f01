package terminal

import (
	"testing"

	"spiffi/internal/proto"
	"spiffi/internal/sim"
)

// These tests pin the block-request lifetime rule (proto.BlockRequest):
// the terminal puts a request back on its free list only once a reply's
// outcome is applied, never while the wire, a node or a pending resend
// may still hold it.

// lifeRig is a terminal whose server the test scripts: every send is
// recorded in sent, and a request that hold claims is left for the test
// to answer (or never answer); the rest are answered after the rig's
// delay.
type lifeRig struct {
	*testRig
	sent []sendRecord
	hold func(req *proto.BlockRequest) bool
}

// sendRecord is one send: the request and the block and attempt it carried
// then (a recycled request later carries others).
type sendRecord struct {
	req            *proto.BlockRequest
	block, attempt int
}

func newLifeRig(t *testing.T, cfg Config) *lifeRig {
	t.Helper()
	lr := &lifeRig{testRig: newRig(t, cfg, 5*sim.Millisecond)}
	lr.term.send = func(node int, req *proto.BlockRequest) {
		lr.sent = append(lr.sent, sendRecord{req, req.Block, req.Attempt})
		if lr.hold != nil && lr.hold(req) {
			return
		}
		lr.k.After(lr.delay, func() { req.Deliver(req) })
	}
	t.Cleanup(lr.k.Close)
	return lr
}

// runTo advances the simulation to at.
func (lr *lifeRig) runTo(t *testing.T, at sim.Duration) {
	t.Helper()
	if err := lr.k.Run(sim.Time(at)); err != nil {
		t.Fatal(err)
	}
}

// answer delivers req now, as a NACK when nack is set.
func (lr *lifeRig) answer(t *testing.T, req *proto.BlockRequest, nack bool) {
	t.Helper()
	if nack {
		req.Status = proto.StatusNackDiskFailed
	}
	lr.k.After(0, func() { req.Deliver(req) })
	lr.runTo(t, sim.Duration(lr.k.Now()))
}

// listed returns the requests on the terminal's free list, leaving the
// list as it was. Get panics on a request that does not read as
// poisoned, so every request listed here did.
func (lr *lifeRig) listed(t *testing.T) map[*proto.BlockRequest]bool {
	t.Helper()
	l := lr.term.reqs
	var got []*proto.BlockRequest
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("free list: %v", r)
			}
		}()
		for l.Len() > 0 {
			got = append(got, l.Get())
		}
	}()
	set := make(map[*proto.BlockRequest]bool, len(got))
	for i := len(got) - 1; i >= 0; i-- {
		set[got[i]] = true
		l.Put(got[i])
	}
	// No retry state may point at a request on the list.
	for b, pr := range lr.term.pending {
		if pr.req != nil && set[pr.req] {
			t.Fatalf("block %d's pendingReq points at a request on the free list", b)
		}
	}
	return set
}

// sentFor returns the sends of block b, oldest first.
func (lr *lifeRig) sentFor(b int) []sendRecord {
	var out []sendRecord
	for _, s := range lr.sent {
		if s.block == b {
			out = append(out, s)
		}
	}
	return out
}

// holdAll has the test answer every request itself.
func holdAll(*proto.BlockRequest) bool { return true }

// A reply that arrives after a seek moved the stream past its block is a
// stale drop, and its request goes back on the list.
func TestStaleReplyAfterSeekPutBack(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	lr := newLifeRig(t, cfg)
	lr.hold = holdAll
	lr.term.Start(0)
	lr.runTo(t, sim.Millisecond)
	if len(lr.sent) != 4 {
		t.Fatalf("%d requests sent to prime a 4-block buffer, want 4", len(lr.sent))
	}
	old := lr.sent[1].req // block 1, in flight across the seek
	lr.k.After(0, func() { lr.term.repositionTo(20) })
	lr.runTo(t, 2*sim.Millisecond)
	if lr.listed(t)[old] {
		t.Fatal("an in-flight request is on the free list")
	}
	lr.answer(t, old, false)
	if st := lr.term.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stale drops = %d, want 1", st.StaleDrops)
	}
	if !lr.listed(t)[old] {
		t.Fatal("the stale reply's request was not put back")
	}
}

// A NACKed request whose retry is pending stays with its pendingReq, off
// the list, and its resend sends that same request again. It goes back
// once an outcome ends the chain: data for the resend, or the give-up.
func TestNackedRequestHeldUntilResolved(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nacks int // NACKs before the chain ends
		lost  bool
	}{
		{name: "superseded by data", nacks: 1},
		{name: "given up", nacks: 4, lost: true}, // MaxRetries 3: the fourth NACK gives up
	} {
		t.Run(tc.name, func(t *testing.T) {
			lr := newLifeRig(t, retryCfg())
			lr.hold = func(req *proto.BlockRequest) bool { return req.Block == 0 }
			lr.term.Start(0)
			lr.runTo(t, sim.Millisecond)
			req := lr.sentFor(0)[0].req
			pr := lr.term.pending[0]
			for i := 0; i < tc.nacks; i++ {
				lr.answer(t, req, true)
				if i == tc.nacks-1 && tc.lost {
					break
				}
				if lr.listed(t)[req] || pr.req != req {
					t.Fatalf("NACK %d: the request left its pendingReq while a retry was pending", i+1)
				}
				lr.runTo(t, sim.Duration(lr.k.Now())+100*sim.Millisecond) // past the backoff, short of the timeout
				got := lr.sentFor(0)
				if last := got[len(got)-1]; len(got) != i+2 || last.req != req || last.attempt != i+1 || req.Status != proto.StatusOK {
					t.Fatalf("NACK %d: the resend was not the same request as attempt %d", i+1, i+1)
				}
			}
			if !tc.lost {
				lr.answer(t, req, false)
			}
			st := lr.term.Stats()
			if st.Nacks != int64(tc.nacks) || (st.LostBlocks == 1) != tc.lost {
				t.Fatalf("nacks=%d lost=%d, want %d and lost=%v", st.Nacks, st.LostBlocks, tc.nacks, tc.lost)
			}
			if !lr.listed(t)[req] {
				t.Fatal("the request was not put back once its chain ended")
			}
			if pr.req != nil {
				t.Fatal("the resolved pendingReq still points at the put-back request")
			}
		})
	}
}

// A request that timed out may still be on the wire: it is never put
// back on the timeout, and the resend takes a fresh request. When the
// late reply does come, it is a stale drop and goes back then, once.
func TestTimedOutRequestNotPutBack(t *testing.T) {
	cfg := retryCfg()
	cfg.RequestTimeout = 100 * sim.Millisecond
	lr := newLifeRig(t, cfg)
	lr.hold = func(req *proto.BlockRequest) bool { return req.Block == 0 }
	lr.term.Start(0)
	lr.runTo(t, 105*sim.Millisecond) // the timeout fired, the resend waits out its backoff
	slow := lr.sentFor(0)[0].req
	if st := lr.term.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if lr.listed(t)[slow] {
		t.Fatal("a timed-out request was put back while it may be on the wire")
	}
	lr.runTo(t, 150*sim.Millisecond)
	got := lr.sentFor(0)
	if len(got) != 2 || got[1].req == slow {
		t.Fatalf("the resend reused the timed-out request (%d sends of block 0)", len(got))
	}
	lr.answer(t, slow, false)
	if st := lr.term.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stale drops = %d, want 1 (the superseded attempt)", st.StaleDrops)
	}
	if !lr.listed(t)[slow] {
		t.Fatal("the late reply's request was not put back")
	}
	lr.answer(t, got[1].req, false)
	if lr.term.pending[0] != nil || !lr.listed(t)[got[1].req] {
		t.Fatal("the resend's data did not resolve the block and put its request back")
	}
}

// A request a down node drops never comes back, so the terminal never
// puts it back: not on its timeout, and not when the block is given up.
// Every other request is recycled as usual.
func TestDroppedRequestNeverPutBack(t *testing.T) {
	cfg := retryCfg()
	cfg.RequestTimeout = 100 * sim.Millisecond
	lr := newLifeRig(t, cfg)
	lr.hold = func(req *proto.BlockRequest) bool {
		return req.Block == 0 && req.Video == 0 && lr.term.stats.MoviesStarted == 1
	}
	lr.term.Start(0)
	lr.runTo(t, 20*sim.Second)
	st := lr.term.Stats()
	if st.LostBlocks != 1 || st.GlitchesTimeout != 1 || st.Retries != 3 {
		t.Fatalf("lost=%d timeout glitches=%d retries=%d, want 1, 1, 3", st.LostBlocks, st.GlitchesTimeout, st.Retries)
	}
	dropped := lr.sentFor(0)
	if len(dropped) < 4 {
		t.Fatalf("%d requests for block 0, want the 4 dropped attempts", len(dropped))
	}
	on := lr.listed(t)
	if len(on) == 0 {
		t.Fatal("answered requests were not recycled")
	}
	for i, s := range dropped[:4] {
		if on[s.req] || s.req.Poisoned() {
			t.Fatalf("dropped attempt %d was put back", i)
		}
	}
	if st.BlocksReceived < 8 {
		t.Fatalf("blocks received = %d: the stream did not go on past the lost block", st.BlocksReceived)
	}
}
