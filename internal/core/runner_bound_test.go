package core

import (
	"reflect"
	"testing"
	"time"

	"spiffi/internal/sim"
)

// A search on a 1-worker Runner must run every simulation under the
// Runner's one slot: while something else holds the slot the search
// cannot finish, and once the slot is free it returns exactly what an
// unheld search returns.
func TestOneWorkerSearchHonoursRunnerBound(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Nodes = 2
	cfg.DisksPerNode = 2
	cfg.VideosPerDisk = 4
	cfg.Video.Length = 2 * sim.Minute
	cfg.ServerMemBytes = 64 * MB
	cfg.StartWindow = 10 * sim.Second
	cfg.MeasureTime = 60 * sim.Second
	cfg.StartupGrace = 5 * sim.Minute
	opt := SearchOptions{Lo: 10, Hi: 80, Step: 10, Seeds: []uint64{1}}

	want, err := NewRunner(1).FindMaxTerminals(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(1)
	r.sem <- struct{}{} // hold the only slot
	type outcome struct {
		res SearchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.FindMaxTerminals(cfg, opt)
		done <- outcome{res, err}
	}()
	select {
	case <-done:
		<-r.sem
		t.Fatal("search finished while the runner's only slot was held: it ran simulations outside the runner")
	case <-time.After(300 * time.Millisecond):
	}
	<-r.sem // release the slot
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Fatalf("held search diverged from unheld search:\ngot:  %+v\nwant: %+v", got.res, want)
	}
}
