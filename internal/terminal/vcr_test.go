package terminal

import (
	"testing"

	"spiffi/internal/sim"
)

func vcrCfg(skim bool) Config {
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	cfg.VCR = &VCRConfig{
		MeanSeeksPerMovie: 6,
		MeanDistanceFrac:  0.2,
		ForwardProb:       0.5,
	}
	if skim {
		cfg.VCR.Skim = true
		cfg.VCR.SkimStrideBlocks = 4
		cfg.VCR.SkimSegmentFrames = 15
	}
	return cfg
}

func TestSeeksExecuteAndMovieCompletes(t *testing.T) {
	r := newRig(t, vcrCfg(false), 10*sim.Millisecond)
	r.term.Start(0)
	if err := r.k.Run(sim.Time(3 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Seeks == 0 {
		t.Fatal("no seeks executed despite VCR workload")
	}
	if st.MoviesCompleted < 1 {
		t.Fatalf("movie never completed across seeks (seeks=%d glitches=%d)",
			st.Seeks, st.Glitches)
	}
	if st.Glitches != 0 {
		t.Fatalf("seeking caused %d glitches with a fast server", st.Glitches)
	}
	if st.SeekRePrimeMax <= 0 {
		t.Fatal("seek re-prime latency not recorded")
	}
	// A few-second re-prime at most, per §8.1's "at most a few seconds".
	if st.SeekRePrimeMax > sim.Duration(5*sim.Second) {
		t.Fatalf("seek re-prime latency %v implausibly high for a 10ms server", st.SeekRePrimeMax)
	}
}

func TestSkimFetchesSampledBlocks(t *testing.T) {
	r := newRig(t, vcrCfg(true), 10*sim.Millisecond)
	r.term.Start(0)
	if err := r.k.Run(sim.Time(5 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Seeks == 0 {
		t.Fatal("no seeks")
	}
	if st.SkimBlocks == 0 {
		t.Fatal("visual search fetched no sampled blocks")
	}
	if st.MoviesCompleted < 1 {
		t.Fatal("movie never completed")
	}
}

func TestStaleRepliesDroppedAfterBackwardSeek(t *testing.T) {
	// Force a deterministic backward seek by slowing delivery so that
	// requests are in flight when the seek fires.
	cfg := baseCfg()
	cfg.RandomInitialPosition = false
	cfg.VCR = &VCRConfig{MeanSeeksPerMovie: 10, MeanDistanceFrac: 0.4, ForwardProb: 0}
	r := newRig(t, cfg, 60*sim.Millisecond)
	r.term.Start(0)
	if err := r.k.Run(sim.Time(4 * sim.Minute)); err != nil {
		t.Fatal(err)
	}
	defer r.k.Close()
	st := r.term.Stats()
	if st.Seeks == 0 {
		t.Fatal("no seeks")
	}
	// The movie must still make progress (backward seeks re-watch data).
	if st.BlocksReceived == 0 {
		t.Fatal("no data flowed")
	}
}

func TestRepositionRestartsStreamCleanly(t *testing.T) {
	// Unit-level check of repositionTo: the buffer is emptied (the §8.1
	// re-prime semantics) and fetching restarts at the target block.
	r := newRig(t, baseCfg(), 10*sim.Millisecond)
	defer r.k.Close()
	term := r.term
	r.k.Spawn("setup", func(p *sim.Proc) {
		term.startMovie(0)
		term.ooo[10] = 256 * 1024
		term.ooo[3] = 256 * 1024
		term.oooBytes = 2 * 256 * 1024
		term.nextReq = 12
		term.repositionTo(10)
		if term.frontierBlocks != 10 {
			t.Errorf("frontier = %d, want 10", term.frontierBlocks)
		}
		if term.nextReq != 10 {
			t.Errorf("nextReq = %d, want 10 (fetch restarts at the target)", term.nextReq)
		}
		if len(term.ooo) != 0 || term.oooBytes != 0 {
			t.Errorf("ooo not cleared: %v (%d bytes)", term.ooo, term.oooBytes)
		}
		if term.BufferedBytes() < 0 {
			t.Errorf("negative buffered bytes")
		}
	})
	if err := r.k.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMean(t *testing.T) {
	r := newRig(t, baseCfg(), sim.Millisecond)
	defer r.k.Close()
	sum := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		sum += r.term.poisson(3.0)
	}
	mean := float64(sum) / draws
	if mean < 2.9 || mean > 3.1 {
		t.Fatalf("poisson(3) sample mean = %v", mean)
	}
}
