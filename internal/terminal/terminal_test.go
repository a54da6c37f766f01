package terminal

import (
	"testing"

	"spiffi/internal/layout"
	"spiffi/internal/mpeg"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// testRig wires one terminal to a fake server that answers every block
// request after a configurable delay.
type testRig struct {
	k       *sim.Kernel
	lib     *mpeg.Library
	place   *layout.Placement
	term    *Terminal
	delay   sim.Duration
	stall   bool // when true, requests are dropped until released
	held    []*proto.BlockRequest
	reqs    int
	started int
}

func newRig(t *testing.T, cfg Config, delay sim.Duration) *testRig {
	t.Helper()
	params := mpeg.DefaultParams()
	params.Length = 30 * sim.Second
	lib := mpeg.NewLibrary(params, 2, 7)
	sizes := []int64{lib.Get(0).TotalBytes(), lib.Get(1).TotalBytes()}
	place := layout.NewStriped(sizes, 256*1024, 2, 2)
	r := &testRig{
		k:     sim.NewKernel(),
		lib:   lib,
		place: place,
		delay: delay,
	}
	measuring := func() bool { return true }
	r.term = New(r.k, 0, cfg, lib, place, rng.New(3),
		r.send,
		func() int { return 0 },
		measuring,
		func() { r.started++ },
	)
	return r
}

func (r *testRig) send(node int, req *proto.BlockRequest) {
	r.reqs++
	if r.stall {
		r.held = append(r.held, req)
		return
	}
	r.k.After(r.delay, func() { req.Deliver(req) })
}

func (r *testRig) release() {
	for _, req := range r.held {
		req := req
		r.k.After(r.delay, func() { req.Deliver(req) })
	}
	r.held = nil
	r.stall = false
}

func baseCfg() Config {
	return Config{MemBytes: 1024 * 1024} // 4 blocks of 256 KB
}

func TestPrimesBeforeDisplay(t *testing.T) {
	r := newRig(t, baseCfg(), 10*sim.Millisecond)
	r.term.Start(0)
	// After a short while the terminal must have started and requested
	// at least its buffer's worth of blocks.
	if err := r.k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	if r.started != 1 {
		t.Fatal("terminal did not start display")
	}
	if r.reqs < 4 {
		t.Fatalf("only %d requests before display; want a primed buffer (4 blocks)", r.reqs)
	}
	if got := r.term.Stats().Primes; got != 1 {
		t.Fatalf("primes = %d, want 1", got)
	}
}

func TestSteadyStreamNoGlitches(t *testing.T) {
	r := newRig(t, baseCfg(), 20*sim.Millisecond)
	r.term.Start(0)
	// Play the whole 30-second video.
	if err := r.k.Run(sim.Time(40 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Glitches != 0 {
		t.Fatalf("fast server still produced %d glitches", st.Glitches)
	}
	if st.MoviesCompleted < 1 {
		t.Fatalf("movie never completed (completed=%d)", st.MoviesCompleted)
	}
}

func TestServerStallCausesGlitchAndReprime(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	r := newRig(t, cfg, 5*sim.Millisecond)
	r.term.Start(0)
	// Let it prime and play ~2s, then stall the server for 10s.
	if err := r.k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	r.stall = true
	if err := r.k.Run(sim.Time(12 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Glitches == 0 {
		t.Fatal("10s server stall did not glitch a 1MB-buffer terminal")
	}
	if st.Glitches > 1 {
		t.Fatalf("glitched %d times during one stall; re-priming must prevent rapid repeats", st.Glitches)
	}
	// Release the server: playback must resume and finish.
	r.release()
	if err := r.k.Run(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if r.term.Stats().MoviesCompleted < 1 {
		t.Fatal("movie never completed after recovery")
	}
}

// Counters are lifetime: a glitch outside the measurement window still
// counts (the assembly differences it away). Only the window maxima,
// which a difference cannot recover, wait for measuring.
func TestWindowMaximaGatedByMeasuring(t *testing.T) {
	params := mpeg.DefaultParams()
	params.Length = 30 * sim.Second
	lib := mpeg.NewLibrary(params, 1, 7)
	place := layout.NewStriped([]int64{lib.Get(0).TotalBytes()}, 256*1024, 2, 2)
	k := sim.NewKernel()
	defer k.Close()
	measuring := false
	delay := 5 * sim.Millisecond
	send := func(node int, req *proto.BlockRequest) {
		k.After(delay, func() { req.Deliver(req) })
	}
	cfg := Config{MemBytes: 1024 * 1024, RandomInitialPosition: false}
	term := New(k, 0, cfg, lib, place, rng.New(3), send,
		func() int { return 0 },
		func() bool { return measuring },
		nil)
	term.Start(0)
	if err := k.Run(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	delay = 3 * sim.Second // a slow server glitches the viewer while NOT measuring
	if err := k.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	st := term.Stats()
	if st.Glitches == 0 || st.Recoveries == 0 {
		t.Fatalf("no glitch and recovery during the slow spell: %+v", st)
	}
	if st.RespTimeSum == 0 || st.RecoverySum == 0 {
		t.Fatalf("unmeasured sums not counted: %+v", st)
	}
	if st.RespTimeMax != 0 || st.RecoveryMax != 0 {
		t.Fatalf("unmeasured maxima recorded: resp=%v recovery=%v", st.RespTimeMax, st.RecoveryMax)
	}
	measuring = true
	delay = 5 * sim.Millisecond
	if err := k.Run(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if st := term.Stats(); st.RespTimeMax == 0 {
		t.Fatal("measured round trips did not record a maximum")
	}
}

func TestDeadlinesReflectBufferedPlaytime(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	params := mpeg.DefaultParams()
	params.Length = 30 * sim.Second
	lib := mpeg.NewLibrary(params, 1, 7)
	place := layout.NewStriped([]int64{lib.Get(0).TotalBytes()}, 256*1024, 2, 2)
	k := sim.NewKernel()
	defer k.Close()
	var deadlines []sim.Time
	var issued []sim.Time
	send := func(node int, req *proto.BlockRequest) {
		deadlines = append(deadlines, req.Deadline)
		issued = append(issued, k.Now())
		k.After(10*sim.Millisecond, func() { req.Deliver(req) })
	}
	term := New(k, 0, cfg, lib, place, rng.New(3), send,
		func() int { return 0 }, func() bool { return true }, nil)
	term.Start(0)
	if err := k.Run(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(deadlines) < 6 {
		t.Fatalf("too few requests: %d", len(deadlines))
	}
	// The very first request (empty buffer) is maximally urgent.
	if deadlines[0] != issued[0] {
		t.Fatalf("first deadline %v != issue time %v", deadlines[0], issued[0])
	}
	// Once playing, deadlines must exceed issue times (buffered slack)
	// and be strictly increasing block over block.
	last := deadlines[4]
	for i := 5; i < len(deadlines); i++ {
		if deadlines[i] <= last {
			t.Fatalf("deadline %d (%v) not increasing past %v", i, deadlines[i], last)
		}
		if deadlines[i] < issued[i] {
			t.Fatalf("deadline %d (%v) before issue time %v", i, deadlines[i], issued[i])
		}
		last = deadlines[i]
	}
}

func TestPauseExtendsPlaybackWithoutGlitch(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	cfg.Pause = &PauseConfig{MeanPauses: 3, MeanDuration: 2 * sim.Second}
	r := newRig(t, cfg, 10*sim.Millisecond)
	r.term.Start(0)
	if err := r.k.Run(sim.Time(90 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Glitches != 0 {
		t.Fatalf("pausing produced %d glitches", st.Glitches)
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("paused movie never completed")
	}
}

func TestRandomInitialPositionShortensFirstMovie(t *testing.T) {
	cfg := baseCfg()
	cfg.RandomInitialPosition = true
	r := newRig(t, cfg, 5*sim.Millisecond)
	r.term.Start(0)
	// A 30s video started at a random position should complete well
	// before 30s; by 29s the first completion must have happened.
	if err := r.k.Run(sim.Time(29 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	if r.term.Stats().MoviesCompleted < 1 {
		t.Fatal("random-position first movie did not finish early")
	}
}

// fakeGate makes terminal 0 a follower of a phantom leader.
type fakeGate struct {
	k      *sim.Kernel
	delay  sim.Duration
	leader bool
	calls  int
}

func (g *fakeGate) JoinOrLead(p *sim.Proc, term, video int) bool {
	g.calls++
	p.Sleep(g.delay)
	return g.leader
}

func TestFollowerPlacesNoServerLoad(t *testing.T) {
	cfg := baseCfg()
	gate := &fakeGate{delay: sim.Second, leader: false}
	r := newRig(t, cfg, 5*sim.Millisecond)
	r.term.cfg.Gate = gate
	gate.k = r.k
	r.term.Start(0)
	if err := r.k.Run(sim.Time(35 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	if r.reqs != 0 {
		t.Fatalf("follower issued %d requests; must be zero", r.reqs)
	}
	if gate.calls == 0 {
		t.Fatal("gate never consulted")
	}
	if r.started == 0 {
		t.Fatal("follower never reported started")
	}
	// It must have "completed" at least one ridden movie by 35s.
	if r.term.Stats().MoviesCompleted < 1 {
		t.Fatal("follower did not ride a movie to completion")
	}
}

func TestOutOfOrderArrivalAssembledContiguously(t *testing.T) {
	// Deliver block replies in reverse order: display must still work.
	params := mpeg.DefaultParams()
	params.Length = 30 * sim.Second
	lib := mpeg.NewLibrary(params, 1, 7)
	place := layout.NewStriped([]int64{lib.Get(0).TotalBytes()}, 256*1024, 2, 2)
	k := sim.NewKernel()
	defer k.Close()
	// Even blocks answer slowly, odd blocks quickly, so consecutive
	// requests issued together arrive out of order.
	send := func(node int, req *proto.BlockRequest) {
		d := 5 * sim.Millisecond
		if req.Block%2 == 0 {
			d = 40 * sim.Millisecond
		}
		k.After(d, func() { req.Deliver(req) })
	}
	cfg := Config{MemBytes: 1024 * 1024, RandomInitialPosition: false}
	term := New(k, 0, cfg, lib, place, rng.New(3), send,
		func() int { return 0 }, func() bool { return true }, nil)
	term.Start(0)
	if err := k.Run(sim.Time(45 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	st := term.Stats()
	if st.MoviesCompleted < 1 {
		t.Fatalf("movie never completed with out-of-order delivery (glitches=%d)", st.Glitches)
	}
}
