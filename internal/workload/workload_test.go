package workload

import (
	"reflect"
	"testing"

	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

func TestZeroValueInert(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero value enabled")
	}
	if got := c.Normalize(); !reflect.DeepEqual(got, c) {
		t.Fatalf("Normalize changed the zero value: %+v", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero value invalid: %v", err)
	}
	s := Compile(c, 16, 1.0, rng.New(1))
	if s.Enabled() {
		t.Fatal("compiled zero value enabled")
	}
	if b := s.Boundaries(10 * sim.Minute); b != nil {
		t.Fatalf("inert schedule has boundaries: %v", b)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{Phases: []Phase{{Duration: sim.Minute}, {Name: "x", Duration: sim.Minute, Load: 2, SeekBoost: 3}}}
	n := c.Normalize()
	if n.Phases[0].Load != 1 || n.Phases[0].SeekBoost != 1 || n.Phases[0].Name != "phase0" {
		t.Fatalf("defaults not filled: %+v", n.Phases[0])
	}
	if n.Phases[1].Load != 2 || n.Phases[1].SeekBoost != 3 || n.Phases[1].Name != "x" {
		t.Fatalf("explicit values clobbered: %+v", n.Phases[1])
	}
	// Normalize must not alias the caller's slice.
	if c.Phases[0].Load != 0 {
		t.Fatal("Normalize mutated input")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Config{
		{Phases: []Phase{{Name: "a", Duration: -sim.Second, Load: 1, SeekBoost: 1}}},
		{Phases: []Phase{{Name: "a", Load: 1, SeekBoost: 1}, {Name: "b", Duration: sim.Second, Load: 1, SeekBoost: 1}}}, // open-ended non-final
		{Repeat: true, Phases: []Phase{{Name: "a", Load: 1, SeekBoost: 1}}},                                             // open-ended + repeat
		{Phases: []Phase{{Name: "a", Duration: sim.Second, Load: -1, SeekBoost: 1}}},
		{Phases: []Phase{{Name: "a", Duration: sim.Second, Load: 1, SeekBoost: -2}}},
		{Phases: []Phase{{Name: "a", Duration: sim.Second, Load: 1, SeekBoost: 1, PromoteShare: 0.5}}}, // share without promote
		{Phases: []Phase{{Name: "a", Duration: sim.Second, Load: 1, SeekBoost: 1, Promote: true, PromoteShare: 1.5, PromoteVideo: 0}}},
		{Phases: []Phase{{Name: "a", Duration: sim.Second, Load: 1, SeekBoost: 1, Promote: true, PromoteVideo: -3}}},
		{BaseThink: -sim.Second, Phases: []Phase{{Name: "a", Duration: sim.Second, Load: 1, SeekBoost: 1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
	good := Config{Phases: []Phase{
		{Name: "a", Duration: sim.Minute, Load: 1, SeekBoost: 1},
		{Name: "b", Load: 1, SeekBoost: 1}, // open-ended final
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestCompileDeterminism(t *testing.T) {
	c := Config{
		BaseThink: 5 * sim.Second,
		Phases: []Phase{
			{Name: "day", Duration: 2 * sim.Minute, ZipfZ: -1},
			{Name: "premiere", Duration: sim.Minute, Load: 3, Promote: true, PromoteVideo: 7, PromoteShare: 0.6, ZipfZ: -1},
			{Name: "night", Duration: 2 * sim.Minute, Load: 0.3, Shuffle: true, ZipfZ: -1},
		},
	}.Normalize()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	a := Compile(c, 64, 1.0, rng.New(42))
	b := Compile(c, 64, 1.0, rng.New(42))
	other := Compile(c, 64, 1.0, rng.New(43))

	drawA, drawB, drawO := rng.New(9), rng.New(9), rng.New(9)
	diff := false
	for i := 0; i < 2000; i++ {
		at := sim.Time(i) * sim.Time(sim.Second)
		va, vb := a.SelectVideo(at, drawA), b.SelectVideo(at, drawB)
		if va != vb {
			t.Fatalf("same seed diverged at %v: %d vs %d", at, va, vb)
		}
		if other.SelectVideo(at, drawO) != va {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different compile seeds produced identical selections (shuffle stream ignored?)")
	}
}

func TestPhaseTimelineAndBoundaries(t *testing.T) {
	c := Config{Phases: []Phase{
		{Name: "a", Duration: sim.Minute},
		{Name: "b", Duration: 30 * sim.Second},
		{Name: "c"}, // open-ended
	}}.Normalize()
	s := Compile(c, 8, 1.0, rng.New(1))
	cases := []struct {
		at   sim.Duration
		want int
	}{
		{0, 0}, {59 * sim.Second, 0}, {sim.Minute, 1},
		{89 * sim.Second, 1}, {90 * sim.Second, 2}, {sim.Hour, 2},
	}
	for _, tc := range cases {
		if got := s.PhaseIndexAt(sim.Time(tc.at)); got != tc.want {
			t.Fatalf("PhaseIndexAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
	b := s.Boundaries(10 * sim.Minute)
	if len(b) != 3 || b[0].At != 0 || b[1].At != sim.Time(sim.Minute) || b[2].At != sim.Time(90*sim.Second) {
		t.Fatalf("boundaries = %+v", b)
	}
	if b[2].Phase.Name != "c" || b[2].Index != 2 || b[2].Cycle != 0 {
		t.Fatalf("last boundary = %+v", b[2])
	}

	// Repeating cycle wraps both the index lookup and the boundaries.
	rc := Config{Repeat: true, Phases: []Phase{
		{Name: "x", Duration: sim.Minute},
		{Name: "y", Duration: sim.Minute},
	}}.Normalize()
	rs := Compile(rc, 8, 1.0, rng.New(1))
	if got := rs.PhaseIndexAt(sim.Time(3*sim.Minute + sim.Second)); got != 1 {
		t.Fatalf("wrapped PhaseIndexAt = %d, want 1", got)
	}
	rb := rs.Boundaries(5 * sim.Minute)
	if len(rb) != 5 || rb[4].At != sim.Time(4*sim.Minute) || rb[4].Cycle != 2 || rb[4].Index != 0 {
		t.Fatalf("repeat boundaries = %+v", rb)
	}
}

func TestPromoteAndShuffle(t *testing.T) {
	c := Config{Phases: []Phase{
		{Name: "steady", Duration: sim.Minute, ZipfZ: 3},
		{Name: "viral", Duration: sim.Minute, ZipfZ: 3, Promote: true, PromoteVideo: 9, PromoteShare: 1},
		{Name: "churn", Duration: sim.Minute, ZipfZ: 3, Shuffle: true},
	}}.Normalize()
	s := Compile(c, 32, 1.0, rng.New(7))

	// share=1 concentrates every selection on the promoted video.
	src := rng.New(3)
	at := sim.Time(90 * sim.Second)
	for i := 0; i < 50; i++ {
		if v := s.SelectVideo(at, src); v != 9 {
			t.Fatalf("premiere selection = %d, want 9", v)
		}
	}
	// The promotion also occupies rank 0 of the viral phase's ranking.
	if s.phases[1].perm[0] != 9 {
		t.Fatalf("promoted video not at rank 0: %v", s.phases[1].perm[:4])
	}
	// Promotion shifts ranks down without losing or duplicating videos.
	seen := map[int]bool{}
	for _, v := range s.phases[1].perm {
		if seen[v] {
			t.Fatalf("rank table duplicates video %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 32 {
		t.Fatalf("rank table lost videos: %d/32", len(seen))
	}
	// The shuffle phase must not inherit the steady ranking unchanged.
	if reflect.DeepEqual(s.phases[2].perm, s.phases[0].perm) {
		t.Fatal("shuffle left the ranking untouched")
	}
}

func TestThinkTime(t *testing.T) {
	c := Config{
		BaseThink: 10 * sim.Second,
		Phases: []Phase{
			{Name: "lull", Duration: sim.Minute, Load: 0.5},
			{Name: "rush", Duration: sim.Minute, Load: 5},
		},
	}.Normalize()
	s := Compile(c, 8, 1.0, rng.New(1))
	src := rng.New(11)
	var lull, rush sim.Duration
	for i := 0; i < 4000; i++ {
		lull += s.ThinkTime(0, src)
		rush += s.ThinkTime(sim.Time(90*sim.Second), src)
	}
	if lull < 8*rush { // means 20s vs 2s; huge margin
		t.Fatalf("load scaling broken: lull=%v rush=%v", lull/4000, rush/4000)
	}

	// BaseThink unset: zero think and, critically, zero draws.
	nc := Config{Phases: []Phase{{Name: "a", Duration: sim.Minute}}}.Normalize()
	ns := Compile(nc, 8, 1.0, rng.New(1))
	probe, ref := rng.New(5), rng.New(5)
	if d := ns.ThinkTime(0, probe); d != 0 {
		t.Fatalf("think = %v, want 0", d)
	}
	if probe.Uint64() != ref.Uint64() {
		t.Fatal("ThinkTime consumed a draw with BaseThink unset")
	}
}

func TestSeekBoostAndLoadAt(t *testing.T) {
	c := Config{Phases: []Phase{
		{Name: "calm", Duration: sim.Minute},
		{Name: "storm", Duration: sim.Minute, SeekBoost: 4, Load: 2},
	}}.Normalize()
	s := Compile(c, 8, 1.0, rng.New(1))
	if s.SeekBoost(0) != 1 || s.SeekBoost(sim.Time(sim.Minute)) != 4 {
		t.Fatalf("seek boost = %v/%v", s.SeekBoost(0), s.SeekBoost(sim.Time(sim.Minute)))
	}
	if s.LoadAt(0) != 1 || s.LoadAt(sim.Time(90*sim.Second)) != 2 {
		t.Fatalf("load = %v/%v", s.LoadAt(0), s.LoadAt(sim.Time(90*sim.Second)))
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("think=10s; repeat; day:2m; peak:1m load=3 z=1.2 promote=4 share=0.5 seekboost=2; night:30s load=0.3 shuffle")
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseThink != 10*sim.Second || !c.Repeat || len(c.Phases) != 3 {
		t.Fatalf("globals wrong: %+v", c)
	}
	day, peak, night := c.Phases[0], c.Phases[1], c.Phases[2]
	if day.Name != "day" || day.Duration != 2*sim.Minute || day.Load != 1 || day.ZipfZ != -1 {
		t.Fatalf("day = %+v", day)
	}
	if peak.Load != 3 || peak.ZipfZ != 1.2 || !peak.Promote || peak.PromoteVideo != 4 ||
		peak.PromoteShare != 0.5 || peak.SeekBoost != 2 {
		t.Fatalf("peak = %+v", peak)
	}
	if !night.Shuffle || night.Load != 0.3 {
		t.Fatalf("night = %+v", night)
	}

	if c, err := ParseSpec("steady:1m; tail:*"); err != nil || c.Phases[1].Duration != 0 {
		t.Fatalf("open-ended tail: %+v err=%v", c, err)
	}

	for _, bad := range []string{
		"",                             // no phases
		"think=10s",                    // globals only
		"a:",                           // missing duration
		":1m",                          // missing name
		"a:1m zoom=3",                  // unknown option
		"a:1m z=-1",                    // explicit negative skew
		"a:1m load=0",                  // zero load
		"a:*; b:1m",                    // open-ended non-final
		"repeat; a:*",                  // open-ended + repeat
		"a:1m share=0.5",               // share without promote
		"a:forever",                    // bad duration
		"think=fast; a:1m",             // bad think
		"a:1m promote=-2",              // negative video
		"a:1m promote=1 share=2; b:1m", // share out of range
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
