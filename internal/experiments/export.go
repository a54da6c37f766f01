package experiments

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Export helpers: experiment results render to CSV (one row per X value,
// one column per series — ready for any plotting tool) and to JSON (the
// full structure, for programmatic consumption).

// WriteCSV writes the result as a CSV table mirroring Format's layout.
func (r Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
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
	for _, x := range xs {
		row := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range r.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = strconv.FormatFloat(p.Y, 'g', -1, 64)
					break
				}
			}
			row = append(row, cell)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// resultJSON is the stable exported JSON shape. Workers and WallMS are
// execution provenance; omitted when unset so results written before the
// parallel runner keep their exact bytes.
type resultJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"x_label"`
	YLabel string       `json:"y_label"`
	Series []seriesJSON `json:"series"`
	Notes  []string     `json:"notes,omitempty"`

	Workers int   `json:"workers,omitempty"`
	WallMS  int64 `json:"wall_ms,omitempty"`
}

type seriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// WriteJSON writes the result as indented JSON.
func (r Result) WriteJSON(w io.Writer) error {
	out := resultJSON{
		ID:      r.ID,
		Title:   r.Title,
		XLabel:  r.XLabel,
		YLabel:  r.YLabel,
		Notes:   r.Notes,
		Workers: r.Workers,
		WallMS:  r.WallClock.Milliseconds(),
	}
	for _, s := range r.Series {
		sj := seriesJSON{Name: s.Name}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, [2]float64{p.X, p.Y})
		}
		out.Series = append(out.Series, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
