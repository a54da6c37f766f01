package terminal

import (
	"testing"

	"spiffi/internal/admission"
	"spiffi/internal/mpeg"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// stageCase drives one terminal into one kind of player or fetcher wait
// and names the exact simulated time at which a counter the wait gates
// first reaches its target.
type stageCase struct {
	name  string
	cfg   func(*Config)
	setup func(r *testRig) // runs after the rig is built, before Start
	done  func(r *testRig) bool
	at    sim.Time
}

// stageSendLatency and stageServerDelay are the per-request send cost
// and the fake server's reply delay every stage runs with.
const (
	stageSendLatency = sim.Millisecond
	stageServerDelay = 10 * sim.Millisecond
)

// stageCases pins each wait the player and the fetcher make. Priming,
// the underrun stall and the ridden piggyback movie are derived in
// closed form; the other instants were read off one run and pin the
// exact (time, seq) order in which each wait resumes.
func stageCases() []stageCase {
	block := int64(256 * 1024)
	primed := sim.Time(4*stageSendLatency + stageServerDelay) // four sends, one reply delay
	return []stageCase{{
		name: "priming",
		done: func(r *testRig) bool { return r.term.Stats().Primes >= 1 },
		at:   primed,
	}, {
		name: "underrun stall",
		setup: func(r *testRig) {
			// The server answers the four priming requests only, so
			// display runs dry at the first frame they do not complete.
			send := r.term.send
			r.term.send = func(node int, req *proto.BlockRequest) {
				if r.reqs == 4 {
					r.stall = true
				}
				send(node, req)
			}
		},
		done: func(r *testRig) bool { return r.term.Stats().GlitchesUnderrun >= 1 },
		at: func() sim.Time {
			v := testLibrary().Get(0)
			f := 0 // the first frame four blocks do not complete
			for v.BytesBeforeFrame(f+1) <= 4*block {
				f++
			}
			return primed + sim.Time(f)*sim.Time(v.FramePeriod())
		}(),
	}, {
		name: "stall recovery",
		setup: func(r *testRig) {
			r.k.At(sim.Time(2*sim.Second), func() { r.stall = true })
			r.k.At(sim.Time(9*sim.Second), r.release)
		},
		done: func(r *testRig) bool { return r.term.Stats().Recoveries >= 1 },
		at:   9_010_000_000,
	}, {
		name: "pause",
		cfg: func(c *Config) {
			c.Pause = &PauseConfig{MeanPauses: 3, MeanDuration: 2 * sim.Second}
		},
		done: func(r *testRig) bool { return r.term.Stats().MoviesCompleted >= 1 },
		at:   34_921_215_446,
	}, {
		name: "seek",
		cfg: func(c *Config) {
			c.VCR = &VCRConfig{MeanSeeksPerMovie: 3, MeanDistanceFrac: 0.2, ForwardProb: 0.5}
		},
		done: func(r *testRig) bool { return r.term.Stats().SeekRePrimeSum > 0 },
		at:   2_460_333_309,
	}, {
		name: "skim",
		cfg: func(c *Config) {
			c.VCR = &VCRConfig{MeanSeeksPerMovie: 3, MeanDistanceFrac: 0.4, ForwardProb: 0.5,
				Skim: true, SkimStrideBlocks: 3, SkimSegmentFrames: 12}
		},
		done: func(r *testRig) bool { return r.term.Stats().SeekRePrimeSum > 0 },
		at:   3_426_666_633,
	}, {
		name: "merged pull",
		setup: func(r *testRig) {
			r.term.cfg.Merger = &stageMerger{k: r.k, from: 2, delay: stageServerDelay}
		},
		done: func(r *testRig) bool { return r.term.Stats().BlocksReceived >= 12 },
		at:   3_588_666_631,
	}, {
		name:  "degraded skip",
		setup: func(r *testRig) { r.term.SetDegraded(true) },
		done:  func(r *testRig) bool { return r.term.Stats().DegradedBlocks >= 10 },
		at:    7_579_666_591,
	}, {
		name: "failover re-admit",
		cfg: func(c *Config) {
			c.RequestTimeout = 200 * sim.Millisecond
			c.MaxRetries = 2
			c.RetryBackoff = 10 * sim.Millisecond
			c.Failover = true
		},
		setup: func(r *testRig) {
			r.term.cfg.Health = NewNodeHealth(r.k, 2, 1)
			r.term.cfg.Admission = admission.NewController(r.k, 1)
			// Node 1 goes silent at 3 s: its first timeout makes it
			// suspect and impacts the session.
			send := r.term.send
			r.term.send = func(node int, req *proto.BlockRequest) {
				if node == 1 && r.k.Now() >= sim.Time(3*sim.Second) {
					r.reqs++
					return
				}
				send(node, req)
			}
		},
		done: func(r *testRig) bool { return r.term.Stats().FailoverReadmits >= 1 },
		at:   4_047_333_293,
	}, {
		name: "admission retry",
		setup: func(r *testRig) {
			// A second terminal takes the only slot first; this one
			// queues, is rejected after its patience, backs off and
			// retries until the slot is handed over.
			ctl := admission.NewController(r.k, 1)
			ctl.SetPatience(2 * sim.Second)
			r.term.cfg.Admission = ctl
			other := New(r.k, 1, r.term.cfg, r.lib, r.place, rng.New(5), r.send, nil,
				func() int { return 1 }, func() bool { return true }, nil)
			other.Start(0) // scheduled first, so it claims the slot
		},
		done: func(r *testRig) bool { return r.term.Stats().MoviesStarted >= 1 },
		at:   60_027_999_400,
	}, {
		name: "think",
		cfg:  func(c *Config) { c.Think = func() sim.Duration { return 3 * sim.Second } },
		done: func(r *testRig) bool { return r.term.Stats().MoviesStarted >= 2 },
		at:   33_013_999_700,
	}, {
		name: "piggyback ride",
		setup: func(r *testRig) {
			r.term.cfg.Gate = &fakeGate{k: r.k, delay: sim.Second, leader: false}
		},
		done: func(r *testRig) bool { return r.term.Stats().MoviesCompleted >= 1 },
		at:   sim.Time(sim.Second + testLibrary().Get(0).Duration()),
	}}
}

// TestEveryTerminalStage checks, for each wait of the player and the
// fetcher, that the counter it gates is short of its target one
// nanosecond before the pinned instant and has reached it at that
// instant.
func TestEveryTerminalStage(t *testing.T) {
	for _, tc := range stageCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := stageRig(t, tc)
			defer r.k.Close()
			if err := r.k.Run(tc.at - 1); err != nil {
				t.Fatal(err)
			}
			if tc.done(r) {
				t.Fatalf("already done at %v, want first at %v", tc.at-1, tc.at)
			}
			if err := r.k.Run(tc.at); err != nil {
				t.Fatal(err)
			}
			if !tc.done(r) {
				t.Fatalf("not done at %v: %+v", tc.at, r.term.Stats())
			}
		})
	}
}

// stageRig builds the rig for one stage case and starts its terminal.
func stageRig(t *testing.T, tc stageCase) *testRig {
	cfg := baseCfg()
	cfg.SendLatency = stageSendLatency
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	r := newRig(t, cfg, stageServerDelay)
	if tc.setup != nil {
		tc.setup(r)
	}
	r.term.Start(0)
	return r
}

// testLibrary is the library newRig builds.
func testLibrary() *mpeg.Library {
	params := mpeg.DefaultParams()
	params.Length = 30 * sim.Second
	return mpeg.NewLibrary(params, 2, 7)
}

// stageMerger forwards every block from `from` on as soon as the
// follower's buffer has room for it, each after delay, like a leader
// that is always ahead.
type stageMerger struct {
	k        *sim.Kernel
	from     int
	delay    sim.Duration
	next     int   // next block to forward
	inflight int64 // forwarded bytes not yet delivered
}

func (m *stageMerger) Offer(t *Terminal, video int) (int, bool) {
	m.next = m.from
	return m.from, true
}

func (m *stageMerger) Lead(*Terminal, int)         {}
func (m *stageMerger) Advance(*Terminal, int, int) {}
func (m *stageMerger) Leave(*Terminal)             {}
func (m *stageMerger) Pull(t *Terminal) (pulled bool) {
	for m.next < t.nblocks {
		size := t.place.SizeOfBlock(t.vid, m.next)
		if t.BufferedBytes()+t.outstanding+m.inflight+size > t.cfg.MemBytes {
			break
		}
		req := t.reqs.Get()
		req.Video, req.Block, req.Size = t.vid, m.next, size
		m.next++
		m.inflight += size
		pulled = true
		m.k.After(m.delay, func() {
			m.inflight -= size
			t.ForwardHop()(req)
		})
	}
	return pulled
}
