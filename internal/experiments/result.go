package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled curve of a figure (or one column of a table).
type Series struct {
	Name   string
	Points []Point
}

// Result is one regenerated figure or table.
type Result struct {
	ID     string // "fig10", "table2", ...
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string

	// Workers and WallClock record how the experiment was executed —
	// provenance only, stamped by Run. The data above is bit-identical
	// for every worker count.
	Workers   int
	WallClock time.Duration
}

// Format renders the result as an aligned text table: the X column
// followed by one column per series, matching how the paper's plots read.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	// Collect the x values in first-series order, then any extras.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range r.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
