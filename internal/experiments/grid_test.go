package experiments

import (
	"errors"
	"sync/atomic"
	"testing"

	"spiffi/internal/core"
)

// grid must return every cell's result at its (row, column), run every
// cell on one shared pool, and report the error of the earliest failing
// cell in cell order even when a later cell fails first in wall time.
// No simulation runs, so the race pass exercises the grid's goroutines
// in short mode.
func TestGridByCellAndFirstErrorInCellOrder(t *testing.T) {
	type out struct {
		v   int
		run *core.Runner
	}
	var ran atomic.Int32
	res, err := grid(Fidelity{Workers: 2}, 3, 4, func(f Fidelity, r, c int) (out, error) {
		ran.Add(1)
		return out{10*r + c, f.run}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 12 {
		t.Fatalf("%d cells ran, want 12", n)
	}
	if len(res) != 3 {
		t.Fatalf("%d rows, want 3", len(res))
	}
	pool := res[0][0].run
	if pool == nil || pool.Workers() != 2 {
		t.Fatalf("cells got pool %v, want a 2-worker runner", pool)
	}
	for r, row := range res {
		if len(row) != 4 {
			t.Fatalf("row %d has %d cells, want 4", r, len(row))
		}
		for c, o := range row {
			if o.v != 10*r+c {
				t.Errorf("cell (%d,%d) = %d, want %d", r, c, o.v, 10*r+c)
			}
			if o.run != pool {
				t.Errorf("cell (%d,%d) ran on a different pool", r, c)
			}
		}
	}

	// Cell (0,1) fails only after cell (1,0) has failed, yet it comes
	// first in cell order, so its error is the one returned.
	early, late := errors.New("cell (0,1)"), errors.New("cell (1,0)")
	lateFailed := make(chan struct{})
	ran.Store(0)
	_, err = grid(Fidelity{Workers: 2}, 2, 2, func(_ Fidelity, r, c int) (int, error) {
		ran.Add(1)
		switch {
		case r == 0 && c == 1:
			<-lateFailed
			return 0, early
		case r == 1 && c == 0:
			close(lateFailed)
			return 0, late
		}
		return 0, nil
	})
	if !errors.Is(err, early) {
		t.Fatalf("grid returned %v, want the earlier cell's %v", err, early)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("%d cells ran, want all 4", n)
	}
}
