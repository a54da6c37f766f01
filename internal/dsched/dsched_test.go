package dsched

import (
	"testing"
	"testing/quick"

	"spiffi/internal/sim"
)

var seqCounter uint64

func req(cyl, term int, deadline sim.Time) *Request {
	seqCounter++
	return &Request{Cylinder: cyl, Terminal: term, Deadline: deadline, Seq: seqCounter}
}

func drain(s Scheduler, now sim.Time, head int) []*Request {
	var out []*Request
	for {
		r := s.Next(now, head)
		if r == nil {
			return out
		}
		head = r.Cylinder
		out = append(out, r)
	}
}

func cylinders(rs []*Request) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Cylinder
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFCFSOrder(t *testing.T) {
	s := NewFCFS()
	s.Add(req(50, 0, 0))
	s.Add(req(10, 1, 0))
	s.Add(req(90, 2, 0))
	got := cylinders(drain(s, 0, 0))
	if !eqInts(got, []int{50, 10, 90}) {
		t.Fatalf("fcfs order = %v", got)
	}
}

func TestElevatorSweepsUpThenDown(t *testing.T) {
	s := NewElevator()
	for _, c := range []int{80, 20, 60, 40} {
		s.Add(req(c, 0, 0))
	}
	// Head at 50 moving up: 60, 80, then reverse: 40, 20.
	got := cylinders(drain(s, 0, 50))
	if !eqInts(got, []int{60, 80, 40, 20}) {
		t.Fatalf("elevator order = %v", got)
	}
}

func TestElevatorServicesCurrentCylinder(t *testing.T) {
	s := NewElevator()
	s.Add(req(50, 0, 0))
	s.Add(req(70, 1, 0))
	got := cylinders(drain(s, 0, 50))
	if !eqInts(got, []int{50, 70}) {
		t.Fatalf("order = %v, head-position request should be served in passing", got)
	}
}

func TestElevatorReversesWhenNothingAhead(t *testing.T) {
	s := NewElevator()
	s.Add(req(10, 0, 0))
	s.Add(req(30, 1, 0))
	got := cylinders(drain(s, 0, 90)) // nothing above 90: reverse
	if !eqInts(got, []int{30, 10}) {
		t.Fatalf("order = %v", got)
	}
}

func TestElevatorTieBreaksByArrival(t *testing.T) {
	s := NewElevator()
	a := req(40, 0, 0)
	b := req(40, 1, 0)
	s.Add(a)
	s.Add(b)
	if got := s.Next(0, 40); got != a {
		t.Fatal("equal cylinders must serve earliest arrival first")
	}
}

// Property: a full elevator drain visits each cylinder set as one
// monotone run up then one monotone run down (or vice versa).
func TestElevatorTwoMonotoneRunsProperty(t *testing.T) {
	f := func(raw []uint8, start uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewElevator()
		for i, c := range raw {
			s.Add(req(int(c), i, 0))
		}
		got := cylinders(drain(s, 0, int(start)))
		// Count direction changes; a SCAN drain has at most one.
		changes := 0
		for i := 2; i < len(got); i++ {
			d1 := got[i-1] - got[i-2]
			d2 := got[i] - got[i-1]
			if d1 != 0 && d2 != 0 && (d1 > 0) != (d2 > 0) {
				changes++
			}
		}
		return changes <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinCyclesTerminals(t *testing.T) {
	s := NewRoundRobin()
	// Terminal 2 floods the queue; terminals 0 and 1 have one each.
	s.Add(req(10, 2, 0))
	s.Add(req(20, 2, 0))
	s.Add(req(30, 2, 0))
	s.Add(req(40, 0, 0))
	s.Add(req(50, 1, 0))
	var terms []int
	for _, r := range drain(s, 0, 0) {
		terms = append(terms, r.Terminal)
	}
	if !eqInts(terms, []int{0, 1, 2, 2, 2}) {
		t.Fatalf("terminal order = %v, want round-robin 0,1,2 then 2's backlog", terms)
	}
}

func TestRoundRobinOldestPerTerminal(t *testing.T) {
	s := NewRoundRobin()
	first := req(99, 5, 0)
	s.Add(first)
	s.Add(req(1, 5, 0))
	if got := s.Next(0, 0); got != first {
		t.Fatal("round-robin must serve a terminal's oldest request first")
	}
}

// Regression: a terminal id that collided with the old 1<<62 "unset"
// sentinel made the tie-break index rr.reqs[-1] and panicked. Any id must
// be servable.
func TestRoundRobinHugeTerminalIDNoPanic(t *testing.T) {
	s := NewRoundRobin()
	huge := req(10, 1<<62, 0)
	s.Add(huge)
	if got := s.Next(0, 0); got != huge {
		t.Fatalf("huge-id request not served: %+v", got)
	}
}

// Regression: the old fixed 1<<31 wrap constant mis-ordered terminal ids
// at or beyond 2^31 — a wrapped small id could overtake a not-yet-served
// huge id. The wrap is now derived from the observed id range, so cyclic
// fairness holds for any ids.
func TestRoundRobinOrdersIDsBeyondWrapConstant(t *testing.T) {
	s := NewRoundRobin()
	small := req(10, 1, 0)
	big := req(20, 1<<31, 0)
	bigger := req(30, 1<<40, 0)
	s.Add(small)
	s.Add(big)
	s.Add(bigger)
	var terms []int
	for _, r := range drain(s, 0, 0) {
		terms = append(terms, r.Terminal)
	}
	if !eqInts(terms, []int{1, 1 << 31, 1 << 40}) {
		t.Fatalf("cyclic order = %v, want ascending from cursor", terms)
	}
	// Cyclic order resumes after the cursor: with the cursor at 5, the
	// id 2^31+10 is ahead in the cycle and must be served before the
	// cycle wraps back to id 3. The old fixed wrap put 3 first.
	s2 := NewRoundRobin()
	s2.Add(req(10, 5, 0))
	if got := s2.Next(0, 0); got.Terminal != 5 {
		t.Fatalf("setup: served %d", got.Terminal)
	}
	s2.Add(req(20, 3, 0))
	s2.Add(req(30, 1<<31+10, 0))
	var wrapTerms []int
	for _, r := range drain(s2, 0, 0) {
		wrapTerms = append(wrapTerms, r.Terminal)
	}
	if !eqInts(wrapTerms, []int{1<<31 + 10, 3}) {
		t.Fatalf("post-cursor order = %v, want 2^31+10 then 3", wrapTerms)
	}
}

func TestGSSOneGroupServicesEachTerminalOncePerSweep(t *testing.T) {
	s := NewGSS(1)
	// Terminal 0 has two requests; terminal 1 has one.
	a0 := req(10, 0, 0)
	a1 := req(90, 0, 0)
	b := req(50, 1, 0)
	s.Add(a0)
	s.Add(a1)
	s.Add(b)
	// First sweep batch: one per terminal = {a0, b}, elevator from 0: 10, 50.
	if got := s.Next(0, 0); got != a0 {
		t.Fatalf("first = cyl %d", got.Cylinder)
	}
	if got := s.Next(0, 10); got != b {
		t.Fatalf("second should be terminal 1's request")
	}
	// Second sweep picks up terminal 0's backlog.
	if got := s.Next(0, 50); got != a1 {
		t.Fatal("third should be terminal 0's second request")
	}
}

func TestGSSGroupsRoundRobin(t *testing.T) {
	s := NewGSS(2)
	// Terminals 0,2 in group 0; terminals 1,3 in group 1.
	g0a := req(10, 0, 0)
	g0b := req(20, 2, 0)
	g1a := req(30, 1, 0)
	g1b := req(40, 3, 0)
	s.Add(g1a)
	s.Add(g0a)
	s.Add(g0b)
	s.Add(g1b)
	got := drain(s, 0, 0)
	// Group 0 batch first (elevator: 10,20) then group 1 (30,40).
	if got[0] != g0a || got[1] != g0b || got[2] != g1a || got[3] != g1b {
		t.Fatalf("gss order = %v", cylinders(got))
	}
}

func TestGSSSkipsEmptyGroups(t *testing.T) {
	s := NewGSS(4)
	r := req(10, 3, 0) // group 3 only
	s.Add(r)
	if got := s.Next(0, 0); got != r {
		t.Fatal("gss must skip empty groups")
	}
	if s.Next(0, 0) != nil {
		t.Fatal("queue should be empty")
	}
}

func TestGSSManyGroupsActsLikeRoundRobin(t *testing.T) {
	// With one terminal per group, GSS is round-robin (paper §5.2.2).
	s := NewGSS(3)
	s.Add(req(10, 2, 0))
	s.Add(req(20, 2, 0))
	s.Add(req(30, 0, 0))
	s.Add(req(40, 1, 0))
	var terms []int
	for _, r := range drain(s, 0, 0) {
		terms = append(terms, r.Terminal)
	}
	if !eqInts(terms, []int{0, 1, 2, 2}) {
		t.Fatalf("terminal order = %v", terms)
	}
}

func TestRealTimeClassAssignment(t *testing.T) {
	// Figure 5: 3 classes, 2s spacing. Cutoffs at 2s and 4s.
	rt := NewRealTime(3, 2*sim.Second)
	now := sim.Time(0)
	if c := rt.ClassOf(now, sim.Time(1*sim.Second)); c != 0 {
		t.Fatalf("1s slack -> class %d, want 0 (highest)", c)
	}
	if c := rt.ClassOf(now, sim.Time(3*sim.Second)); c != 1 {
		t.Fatalf("3s slack -> class %d, want 1", c)
	}
	if c := rt.ClassOf(now, sim.Time(5*sim.Second)); c != 2 {
		t.Fatalf("5s slack -> class %d, want 2 (lowest)", c)
	}
	if c := rt.ClassOf(now, sim.Time(100*sim.Second)); c != 2 {
		t.Fatalf("huge slack -> class %d, want capped at 2", c)
	}
	if c := rt.ClassOf(sim.Time(10*sim.Second), sim.Time(5*sim.Second)); c != 0 {
		t.Fatal("past deadline must be most urgent")
	}
}

// Figure 6's worked example: request 1 at cylinder 10 with priority 2,
// request 2 at cylinder 500 with priority 1. Request 2 is serviced first
// despite the longer seek; afterwards request 1 has drifted into priority
// 1 and is serviced next.
func TestRealTimeFigure6Scenario(t *testing.T) {
	rt := NewRealTime(3, 2*sim.Second)
	r1 := req(10, 0, sim.Time(3*sim.Second))  // slack 3s -> class 1
	r2 := req(500, 1, sim.Time(1*sim.Second)) // slack 1s -> class 0
	rt.Add(r1)
	rt.Add(r2)
	if got := rt.Next(0, 0); got != r2 {
		t.Fatal("urgent request must be serviced first despite seek distance")
	}
	// 1.5s later request 1 is within 2s of its deadline: class 0.
	if got := rt.Next(sim.Time(1500*sim.Millisecond), 500); got != r1 {
		t.Fatal("request 1 should be promoted and serviced next")
	}
}

func TestRealTimeElevatorWithinClass(t *testing.T) {
	rt := NewRealTime(2, 4*sim.Second)
	far := sim.Time(100 * sim.Second)
	a := req(30, 0, far)
	b := req(60, 1, far)
	c := req(10, 2, far)
	rt.Add(a)
	rt.Add(b)
	rt.Add(c)
	got := cylinders(drain(rt, 0, 25))
	if !eqInts(got, []int{30, 60, 10}) {
		t.Fatalf("within-class order = %v, want elevator 30,60,10", got)
	}
}

// Property: real-time never services a request while a strictly more
// urgent class has pending requests.
func TestRealTimeHighestClassFirstProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		rt := NewRealTime(3, 2*sim.Second)
		for i, v := range raw {
			d := sim.Time(v) * sim.Time(sim.Millisecond) * 10 // deadlines 0..655s
			rt.Add(req(int(v%200), i, d))
		}
		now := sim.Time(0)
		head := 0
		for rt.Len() > 0 {
			r := rt.Next(now, head)
			cr := rt.ClassOf(now, r.Deadline)
			// No remaining request may be in a more urgent class.
			for _, o := range rt.reqs {
				if rt.ClassOf(now, o.Deadline) < cr {
					return false
				}
			}
			head = r.Cylinder
			now = now.Add(50 * sim.Millisecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateAndNew(t *testing.T) {
	good := []Config{
		{Kind: KindElevator},
		{Kind: KindFCFS},
		{Kind: KindRoundRobin},
		{Kind: KindGSS, Groups: 1},
		{Kind: KindRealTime, Classes: 3, Spacing: 4 * sim.Second},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if c.New() == nil {
			t.Fatalf("%v: nil scheduler", c)
		}
	}
	bad := []Config{
		{Kind: "bogus"},
		{Kind: KindGSS, Groups: 0},
		{Kind: KindRealTime, Classes: 0, Spacing: sim.Second},
		{Kind: KindRealTime, Classes: 2, Spacing: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("%v: expected validation error", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Kind: KindRealTime, Classes: 3, Spacing: 4 * sim.Second}
	if got := c.String(); got != "real-time(3,4s)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Config{Kind: KindGSS, Groups: 1}).String(); got != "gss(1)" {
		t.Fatalf("String = %q", got)
	}
}

func TestEmptySchedulersReturnNil(t *testing.T) {
	for _, s := range []Scheduler{NewElevator(), NewFCFS(), NewRoundRobin(), NewGSS(2), NewRealTime(3, sim.Second)} {
		if s.Next(0, 0) != nil {
			t.Fatalf("%T: empty Next != nil", s)
		}
		if s.Len() != 0 {
			t.Fatalf("%T: empty Len != 0", s)
		}
	}
}

// kindConfigs holds one buildable Config per scheduler Kind.
var kindConfigs = []Config{
	{Kind: KindElevator},
	{Kind: KindFCFS},
	{Kind: KindRoundRobin},
	{Kind: KindSSTF},
	{Kind: KindCSCAN},
	{Kind: KindGSS, Groups: 2},
	{Kind: KindRealTime, Classes: 3, Spacing: sim.Second},
}

func TestDrainReturnsPendingInSeqOrder(t *testing.T) {
	for _, c := range kindConfigs {
		t.Run(string(c.Kind), func(t *testing.T) {
			s := c.New()
			pending := map[*Request]bool{}
			add := func(cyl, term int, deadline sim.Time) {
				r := req(cyl, term, deadline)
				pending[r] = true
				s.Add(r)
			}
			next := func(now sim.Time, head int) {
				r := s.Next(now, head)
				if r == nil || !pending[r] {
					t.Fatalf("Next = %v, want a pending request", r)
				}
				delete(pending, r)
			}
			add(50, 0, sim.Time(5*sim.Second))
			add(10, 1, sim.Time(1*sim.Second))
			add(90, 2, sim.Time(9*sim.Second))
			add(30, 3, sim.Time(2*sim.Second))
			next(0, 40)
			add(70, 0, sim.Time(3*sim.Second))
			add(20, 1, sim.Time(7*sim.Second))
			next(0, 60)
			next(sim.Time(sim.Second), 20)
			add(60, 4, sim.Time(4*sim.Second))

			got := s.Drain()
			if len(got) != len(pending) {
				t.Fatalf("Drain returned %d requests, want %d", len(got), len(pending))
			}
			for i, r := range got {
				if !pending[r] {
					t.Fatalf("Drain returned seq %d, which is not pending", r.Seq)
				}
				if i > 0 && got[i-1].Seq >= r.Seq {
					t.Fatalf("Drain out of Seq order at %d: %d then %d", i, got[i-1].Seq, r.Seq)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("Len after Drain = %d, want 0", s.Len())
			}
			if again := s.Drain(); len(again) != 0 {
				t.Fatalf("second Drain returned %d requests", len(again))
			}
		})
	}
}
