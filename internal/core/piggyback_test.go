package core

import (
	"testing"

	"spiffi/internal/sim"
)

func TestPiggyBatchLeaderAndRiders(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := newPiggyCoordinator(k, 10*sim.Second)
	type outcome struct {
		term   int
		leader bool
		at     sim.Time
	}
	var got []outcome
	// Terminals 0 and 1 ask for video 7 within the window; terminal 2
	// asks for a different video.
	for _, tc := range []struct {
		term, video int
		at          sim.Time
	}{
		{0, 7, 0},
		{1, 7, sim.Time(3 * sim.Second)},
		{2, 9, sim.Time(1 * sim.Second)},
	} {
		tc := tc
		k.At(tc.at, func() {
			var leader bool
			leader = c.JoinOrLead(sim.Func(func() {
				got = append(got, outcome{tc.term, leader, k.Now()})
			}), tc.term, tc.video)
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("outcomes = %d", len(got))
	}
	for _, o := range got {
		switch o.term {
		case 0:
			if !o.leader || o.at != sim.Time(10*sim.Second) {
				t.Fatalf("terminal 0: leader=%v at=%v, want leader at batch close (10s)", o.leader, o.at)
			}
		case 1:
			if o.leader || o.at != sim.Time(10*sim.Second) {
				t.Fatalf("terminal 1: leader=%v at=%v, want rider released with batch", o.leader, o.at)
			}
		case 2:
			if !o.leader || o.at != sim.Time(11*sim.Second) {
				t.Fatalf("terminal 2: leader=%v at=%v, want own batch's leader at 11s", o.leader, o.at)
			}
		}
	}
	if c.Batches != 2 || c.Riders != 3 {
		t.Fatalf("batches=%d riders=%d, want 2/3", c.Batches, c.Riders)
	}
}

func TestPiggyNewBatchAfterClose(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := newPiggyCoordinator(k, 5*sim.Second)
	var leaders int
	for _, at := range []sim.Time{0, sim.Time(20 * sim.Second)} {
		at := at
		k.At(at, func() {
			var leader bool
			leader = c.JoinOrLead(sim.Func(func() {
				if leader {
					leaders++
				}
			}), int(at), 3)
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if leaders != 2 {
		t.Fatalf("leaders = %d, want 2 (separate batches for the same video)", leaders)
	}
}
