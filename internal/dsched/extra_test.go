package dsched

import (
	"testing"
	"testing/quick"
)

func TestSSTFPicksNearest(t *testing.T) {
	s := NewSSTF()
	s.Add(req(90, 0, 0))
	s.Add(req(48, 1, 0))
	s.Add(req(52, 2, 0))
	got := cylinders(drain(s, 0, 50))
	// From 50: 48 (d=2) beats 52? No: 52 is d=2 as well; tie -> earlier
	// arrival (90 first... no, 48 arrived before 52). d(48)=2, d(52)=2,
	// tie broken by Seq: 48 wins. Then head=48: 52 (d=4) beats 90.
	if !eqInts(got, []int{48, 52, 90}) {
		t.Fatalf("sstf order = %v", got)
	}
}

func TestSSTFCanStarveFarRequests(t *testing.T) {
	// Feed a stream of near requests; the far one is served last.
	s := NewSSTF()
	far := req(4000, 0, 0)
	s.Add(far)
	for i := 0; i < 5; i++ {
		s.Add(req(10+i, 1, 0))
	}
	var last *Request
	head := 10
	for s.Len() > 0 {
		last = s.Next(0, head)
		head = last.Cylinder
	}
	if last != far {
		t.Fatal("far request should be served last under SSTF")
	}
}

func TestCSCANSweepsOneDirection(t *testing.T) {
	s := NewCSCAN()
	for _, c := range []int{80, 20, 60, 40} {
		s.Add(req(c, 0, 0))
	}
	// Head at 50: up to 60, 80, then wrap to 20, 40.
	got := cylinders(drain(s, 0, 50))
	if !eqInts(got, []int{60, 80, 20, 40}) {
		t.Fatalf("cscan order = %v", got)
	}
}

func TestCSCANServicesHeadPosition(t *testing.T) {
	s := NewCSCAN()
	s.Add(req(50, 0, 0))
	if got := s.Next(0, 50); got == nil || got.Cylinder != 50 {
		t.Fatal("request at head position must be served")
	}
}

// Property: a C-SCAN drain is at most two ascending runs (the sweep and
// the post-wrap sweep).
func TestCSCANTwoAscendingRunsProperty(t *testing.T) {
	f := func(raw []uint8, start uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewCSCAN()
		for i, c := range raw {
			s.Add(req(int(c), i, 0))
		}
		got := cylinders(drain(s, 0, int(start)))
		descents := 0
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				descents++
			}
		}
		return descents <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraKindsConfig(t *testing.T) {
	for _, k := range []Kind{KindSSTF, KindCSCAN} {
		if err := (Config{Kind: k}).Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	if _, ok := (Config{Kind: KindSSTF}).New().(*SSTF); !ok {
		t.Fatal("sstf: factory built the wrong scheduler type")
	}
	if _, ok := (Config{Kind: KindCSCAN}).New().(*CSCAN); !ok {
		t.Fatal("cscan: factory built the wrong scheduler type")
	}
}
