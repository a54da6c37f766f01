package experiments

import (
	"fmt"
	"sync"

	"spiffi/internal/core"
)

// grid runs cell(f, r, c) for every row r < rows and column c < cols
// concurrently and returns the results by cell. It materializes the
// pool once and hands the pooled fidelity to every cell, so all cells
// share one bound and the goroutines are cheap coordinators. On failure
// it returns the first error in cell order (row by row), the error a
// sequential loop over the cells would have hit first.
func grid[T any](f Fidelity, rows, cols int, cell func(f Fidelity, r, c int) (T, error)) ([][]T, error) {
	f = f.withPool()
	out := make([][]T, rows)
	errs := make([][]error, rows)
	var wg sync.WaitGroup
	for r := range rows {
		out[r] = make([]T, cols)
		errs[r] = make([]error, cols)
		for c := range cols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[r][c], errs[r][c] = cell(f, r, c)
			}()
		}
	}
	wg.Wait()
	for _, row := range errs {
		for _, err := range row {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// variant is one named configuration change a harness compares.
type variant struct {
	name  string
	apply func(*core.Config)
}

// sweep searches the max-terminal count of every (variant, point) cell
// on one grid: point(c) builds column c's configuration and row r's
// variant applies on top of it. Row r's maxima plotted against xs form
// the series named after variant r. The search results come back by
// cell too, for figures that plot a second metric at each maximum.
func sweep(f Fidelity, vs []variant, xs []float64, point func(c int) core.Config) ([]Series, [][]core.SearchResult, error) {
	rs, err := grid(f, len(vs), len(xs), func(f Fidelity, r, c int) (core.SearchResult, error) {
		cfg := point(c)
		vs[r].apply(&cfg)
		res, err := f.search(cfg, 0, 0)
		if err != nil {
			err = fmt.Errorf("%s x=%g: %w", vs[r].name, xs[c], err)
		}
		return res, err
	})
	if err != nil {
		return nil, nil, err
	}
	series := make([]Series, len(vs))
	for r, v := range vs {
		series[r].Name = v.name
		for c, x := range xs {
			series[r].Points = append(series[r].Points, Point{X: x, Y: float64(rs[r][c].MaxTerminals)})
		}
	}
	return series, rs, nil
}

// memorySweep sweeps the base configuration over the fidelity's server
// memory points (MB), as Figures 11–16 and 19 do.
func memorySweep(f Fidelity, vs []variant) ([]Series, [][]core.SearchResult, error) {
	return sweep(f, vs, floats(f.MemoryPointsMB), func(c int) core.Config {
		cfg := base()
		cfg.ServerMemBytes = f.MemoryPointsMB[c] * core.MB
		return cfg
	})
}

// stripeSweep sweeps the base configuration over the fidelity's stripe
// sizes (KB), as Figure 10 and the drive-cache and zoned-disk ablations
// do.
func stripeSweep(f Fidelity, vs []variant) ([]Series, error) {
	series, _, err := sweep(f, vs, floats(f.StripePointsKB), func(c int) core.Config {
		cfg := base()
		cfg.StripeBytes = f.StripePointsKB[c] * core.KB
		return cfg
	})
	return series, err
}

// variantMaxima searches common with each variant applied, all on one
// grid, and adds to res a single series that plots variant i's maximum
// at x = i+1, with an "x=i is <name>" note per variant.
func variantMaxima(f Fidelity, res *Result, common core.Config, vs []variant) error {
	xs := make([]float64, len(vs))
	for i, v := range vs {
		xs[i] = float64(i + 1)
		res.Notes = append(res.Notes, fmt.Sprintf("x=%d is %s", i+1, v.name))
	}
	series, _, err := sweep(f, []variant{{"max terminals", func(*core.Config) {}}}, xs, func(c int) core.Config {
		cfg := common
		vs[c].apply(&cfg)
		return cfg
	})
	res.Series = append(res.Series, series...)
	return err
}

func floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
