package overload

import (
	"testing"

	"spiffi/internal/layout"
	"spiffi/internal/sim"
)

type fakeLimiter struct{ limit int }

func (f *fakeLimiter) SetLimit(n int) { f.limit = n }
func (f *fakeLimiter) Limit() int     { return f.limit }

type fakeStream struct{ degraded bool }

func (f *fakeStream) SetDegraded(on bool) { f.degraded = on }

func TestNormalizeDefaults(t *testing.T) {
	c := Config{AdmitLimit: 10, Adaptive: true, Shed: true}.Normalize()
	if c.Patience != 10*sim.Second {
		t.Fatalf("admission default: patience=%v", c.Patience)
	}
	if c.ProtectedFraction != 0.5 {
		t.Fatalf("shed default: protected=%v", c.ProtectedFraction)
	}
	// The zero config stays zero: nothing is armed, nothing defaults.
	if z := (Config{}).Normalize(); z != (Config{}) {
		t.Fatalf("zero config normalized to %+v", z)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{AdmitLimit: -1},
		{RebuildRate: -1},
		{Adaptive: true},
		{Shed: true},
		{AdmitLimit: 4, ProtectedFraction: 1.5},
		{AdmitLimit: 4, Adaptive: true, HoldAfterCut: -sim.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d (%+v): expected validation error", i, c)
		}
	}
	good := Config{AdmitLimit: 4, Adaptive: true, Shed: true, RebuildRate: 1}.Normalize()
	if err := good.Validate(); err != nil {
		t.Fatalf("normalized config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
}

func TestProtectedCount(t *testing.T) {
	cases := []struct {
		frac      float64
		terminals int
		want      int
	}{
		{0, 10, 10}, // accounting default: everyone protected
		{0.5, 10, 5},
		{0.5, 1, 1},
		{0.01, 10, 1}, // floor at one
		{1, 10, 10},
	}
	for _, c := range cases {
		got := Config{ProtectedFraction: c.frac}.ProtectedCount(c.terminals)
		if got != c.want {
			t.Fatalf("ProtectedCount(frac=%v, n=%d) = %d, want %d", c.frac, c.terminals, got, c.want)
		}
	}
}

// A controller built from a config without Adaptive or Shed must arm
// nothing: Start is a no-op and the kernel stays empty.
func TestZeroConfigArmsNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewController(k, Config{}, 2, sim.Second)
	c.Start()
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := k.Events(); n != 0 {
		t.Fatalf("idle controller dispatched %d events", n)
	}
}

// Sustained low slack steps the limit down (to its floor, never below)
// and sheds unprotected streams from the highest id; recovered slack
// restores the shed streams and raises the limit back.
func TestControllerPressureAndRelax(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{AdmitLimit: 16, Adaptive: true, Shed: true}.Normalize()
	c := NewController(k, cfg, 2, sim.Second)
	lim := &fakeLimiter{limit: 16}
	c.SetLimiter(lim)
	streams := make([]Stream, 8)
	fakes := make([]*fakeStream, 8)
	for i := range streams {
		fakes[i] = &fakeStream{}
		streams[i] = fakes[i]
	}
	c.SetStreams(streams, 4) // ids 0..3 protected, 4..7 sheddable
	c.Start()

	feed := func(from, until sim.Duration, slack sim.Duration) {
		// Offset from the tick boundary so observation order is
		// unambiguous at every timestamp.
		for at := from + 100*sim.Millisecond; at < until; at += 200 * sim.Millisecond {
			k.At(sim.Time(at), func() { c.ObserveDispatch(0, slack, 2) })
		}
	}
	feed(0, 6*sim.Second, 100*sim.Millisecond) // far below the pressure threshold
	if err := k.Run(sim.Time(6*sim.Second + sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if lim.limit >= 16 || st.LimitMin != lim.limit {
		t.Fatalf("pressure never moved the limit: limit=%d min=%d", lim.limit, st.LimitMin)
	}
	if lim.limit < 4 {
		t.Fatalf("limit %d fell below the 25%% floor", lim.limit)
	}
	if c.Degraded() != 4 || st.ShedPeak != 4 || st.Sheds != 4 {
		t.Fatalf("shed state: degraded=%d peak=%d sheds=%d, want all 4 sheddable",
			c.Degraded(), st.ShedPeak, st.Sheds)
	}
	for i, f := range fakes {
		if want := i >= 4; f.degraded != want {
			t.Fatalf("stream %d degraded=%v, want %v (highest ids shed first)", i, f.degraded, want)
		}
	}

	feed(6*sim.Second, 14*sim.Second, 10*sim.Second) // far above the recovery threshold
	if err := k.Run(sim.Time(14*sim.Second + sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if c.Degraded() != 0 || st.Restores != 4 {
		t.Fatalf("recovery left streams shed: degraded=%d restores=%d", c.Degraded(), st.Restores)
	}
	for i, f := range fakes {
		if f.degraded {
			t.Fatalf("stream %d still degraded after recovery", i)
		}
	}
	if lim.limit <= st.LimitMin {
		t.Fatalf("recovery never raised the limit: limit=%d min=%d", lim.limit, st.LimitMin)
	}
}

// Overlapping repairs of a mirror pair leave every copy of every block
// stale: there is no clean source anywhere, so the passes must park
// without re-copying anything — a rebuild from a stale mirror would
// resurrect frozen data and report the redundancy window closed over
// real loss.
func TestRebuilderNeverCopiesFromStaleSource(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	sizes := []int64{4 * 1024 * 1024}
	place := layout.NewStriped(sizes, 1024*1024, 1, 2)
	place.Mirror()
	var ios int
	r := NewRebuilder(k, place, 8*1024*1024, func(p *sim.Proc, g int, offset, size int64) bool {
		ios++
		return true
	})
	r.OnRepair(0, 10*sim.Second)
	r.OnRepair(1, 10*sim.Second)
	if err := k.Run(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Rebuilt != 0 || st.Windows != 0 || ios != 0 {
		t.Fatalf("rebuild copied from a stale mirror: rebuilt=%d windows=%d ios=%d",
			st.Rebuilt, st.Windows, ios)
	}
	for v := 0; v < place.NumVideos(); v++ {
		for b := 0; b < place.NumBlocks(v); b++ {
			for c := 0; c < place.Replicas(); c++ {
				if !r.IsStale(v, b, c) {
					t.Fatalf("copy (%d,%d,%d) cleared without a clean source", v, b, c)
				}
			}
		}
	}
}

// A pass whose source copies are stale defers those blocks and resumes
// once the mirror is rebuilt: the window only closes after every copy
// came from a clean source.
func TestRebuilderWaitsForStaleSource(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	sizes := []int64{4 * 1024 * 1024}
	place := layout.NewStriped(sizes, 1024*1024, 1, 2)
	place.Mirror()
	r := NewRebuilder(k, place, 8*1024*1024, func(p *sim.Proc, g int, offset, size int64) bool {
		return true
	})
	// Simulate an overlapping rebuild on the mirror disk: every copy on
	// disk 1 (the sources for disk 0's pass) is stale until t=30s.
	srcs := r.enumerate(1)
	for _, ref := range srcs {
		r.stale[ref] = true
	}
	r.OnRepair(0, 10*sim.Second)
	k.At(sim.Time(30*sim.Second), func() {
		for _, ref := range srcs {
			delete(r.stale, ref)
		}
	})
	if err := k.Run(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Rebuilt != 0 || st.Windows != 0 {
		t.Fatalf("pass progressed on stale sources: rebuilt=%d windows=%d", st.Rebuilt, st.Windows)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Windows != 1 || st.Rebuilt == 0 || st.Aborts != 0 {
		t.Fatalf("pass never resumed after the sources cleared: %+v", st)
	}
	for _, ref := range r.enumerate(0) {
		if r.IsStale(ref.v, ref.b, ref.c) {
			t.Fatalf("copy %+v still stale after rebuild", ref)
		}
	}
}

// The rebuilder marks exactly the repaired disk's block copies stale,
// re-copies them in deterministic order, and closes the window: stats
// record downtime + rebuild duration.
func TestRebuilderMarksAndClears(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	sizes := []int64{4 * 1024 * 1024, 4 * 1024 * 1024}
	place := layout.NewStriped(sizes, 1024*1024, 2, 2)
	place.Mirror()
	var ios int
	r := NewRebuilder(k, place, 8*1024*1024, func(p *sim.Proc, g int, offset, size int64) bool {
		ios++
		return true
	})
	want := 0
	for v := 0; v < place.NumVideos(); v++ {
		for b := 0; b < place.NumBlocks(v); b++ {
			for c := 0; c < place.Replicas(); c++ {
				if place.LocateCopy(v, b, c).DiskGlobal == 0 {
					want++
				}
			}
		}
	}
	if want == 0 {
		t.Fatal("disk 0 holds no block copies; probe layout broken")
	}
	r.OnRepair(0, 10*sim.Second)
	// Every disk-0 copy is stale until its rebuild pass reaches it.
	stale := 0
	for v := 0; v < place.NumVideos(); v++ {
		for b := 0; b < place.NumBlocks(v); b++ {
			for c := 0; c < place.Replicas(); c++ {
				if r.IsStale(v, b, c) {
					if place.LocateCopy(v, b, c).DiskGlobal != 0 {
						t.Fatalf("copy (%d,%d,%d) off the repaired disk marked stale", v, b, c)
					}
					stale++
				}
			}
		}
	}
	if stale != want {
		t.Fatalf("stale copies = %d, want %d", stale, want)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Windows != 1 || st.Rebuilt != int64(want) || st.Aborts != 0 {
		t.Fatalf("rebuild stats %+v, want %d blocks in one window", st, want)
	}
	if ios != 2*want {
		t.Fatalf("ios = %d, want %d (mirror read + target write per block)", ios, 2*want)
	}
	if st.WindowMax <= 10*sim.Second {
		t.Fatalf("window %v must exceed the 10s downtime it began with", st.WindowMax)
	}
	for v := 0; v < place.NumVideos(); v++ {
		for b := 0; b < place.NumBlocks(v); b++ {
			for c := 0; c < place.Replicas(); c++ {
				if r.IsStale(v, b, c) {
					t.Fatalf("copy (%d,%d,%d) still stale after rebuild", v, b, c)
				}
			}
		}
	}
}

// recordingLimiter captures the full SetLimit trajectory so step-response
// tests can assert on the limit's shape, not just its endpoints.
type recordingLimiter struct {
	limit      int
	trajectory []int
}

func (r *recordingLimiter) SetLimit(n int) { r.limit = n; r.trajectory = append(r.trajectory, n) }
func (r *recordingLimiter) Limit() int     { return r.limit }

// directionChanges counts sign flips in a limit trajectory.
func directionChanges(start int, traj []int) int {
	changes, dir, prev := 0, 0, start
	for _, v := range traj {
		d := 0
		if v > prev {
			d = 1
		} else if v < prev {
			d = -1
		}
		if d != 0 && dir != 0 && d != dir {
			changes++
		}
		if d != 0 {
			dir = d
		}
		prev = v
	}
	return changes
}

// stepFeed replays the estimator's view of an abrupt 3x load step: deep
// pressure, then an oscillating drain (the EWMA alternately reads healthy
// and collapsed while the backlog clears), then steady recovery.
func stepFeed(k *sim.Kernel, c *Controller) {
	feed := func(from, until, slack sim.Duration) {
		for at := from + 100*sim.Millisecond; at < until; at += 200 * sim.Millisecond {
			k.At(sim.Time(at), func() { c.ObserveDispatch(0, slack, 2) })
		}
	}
	feed(0, 3*sim.Second, 50*sim.Millisecond)
	for block := 0; block < 3; block++ {
		base := sim.Duration(3+6*block) * sim.Second
		feed(base, base+3*sim.Second, 5*sim.Second)                    // briefly drained
		feed(base+3*sim.Second, base+6*sim.Second, 50*sim.Millisecond) // backlog returns
	}
	feed(21*sim.Second, 60*sim.Second, 5*sim.Second)
}

// Step response: under the oscillating drain of a 3x load step the
// hysteresis knobs (HoldAfterCut, RaiseStreak) keep the limit monotone —
// it only falls until the load is truly gone, never below the floor, and
// then climbs straight back to the configured maximum. The same feed
// without the knobs saws the limit up and down (the thrash they remove).
func TestControllerStepResponse(t *testing.T) {
	run := func(cfg Config) *recordingLimiter {
		k := sim.NewKernel()
		defer k.Close()
		c := NewController(k, cfg, 1, sim.Second)
		lim := &recordingLimiter{limit: cfg.AdmitLimit}
		c.SetLimiter(lim)
		c.Start()
		stepFeed(k, c)
		if err := k.Run(sim.Time(61 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return lim
	}

	base := Config{AdmitLimit: 16, Adaptive: true}.Normalize()
	hard := base
	hard.HoldAfterCut = 10 * sim.Second
	hard.RaiseStreak = 3

	lim := run(hard)
	if len(lim.trajectory) == 0 {
		t.Fatal("limit never moved under a 3x step")
	}
	floor := 4 // 25% of 16
	for _, v := range lim.trajectory {
		if v < floor {
			t.Fatalf("limit %d fell below the floor %d: %v", v, floor, lim.trajectory)
		}
	}
	if n := directionChanges(16, lim.trajectory); n != 1 {
		t.Fatalf("hardened trajectory changed direction %d times, want exactly 1 (down, then up): %v",
			n, lim.trajectory)
	}
	if lim.limit != 16 {
		t.Fatalf("limit converged to %d after recovery, want back at 16: %v", lim.limit, lim.trajectory)
	}

	soft := run(base)
	if n := directionChanges(16, soft.trajectory); n < 2 {
		t.Fatalf("expected the un-hysteresed controller to thrash on this feed (got %d direction changes: %v); the step-response scenario no longer discriminates",
			n, soft.trajectory)
	}
}

// The hysteresis knobs' zero values change nothing: both configs must
// produce the identical trajectory on the identical feed.
func TestControllerHysteresisZeroInert(t *testing.T) {
	run := func(cfg Config) []int {
		k := sim.NewKernel()
		defer k.Close()
		c := NewController(k, cfg, 1, sim.Second)
		lim := &recordingLimiter{limit: cfg.AdmitLimit}
		c.SetLimiter(lim)
		c.Start()
		stepFeed(k, c)
		if err := k.Run(sim.Time(61 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return lim.trajectory
	}
	base := Config{AdmitLimit: 16, Adaptive: true}.Normalize()
	streak1 := base
	streak1.RaiseStreak = 1 // documented as identical to the default
	a, b := run(base), run(streak1)
	if len(a) != len(b) {
		t.Fatalf("RaiseStreak=1 changed the trajectory: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RaiseStreak=1 changed the trajectory at %d: %v vs %v", i, a, b)
		}
	}
}
