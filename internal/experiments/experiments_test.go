package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// seriesY extracts a series' Y value at x.
func (r Result) seriesY(name string, x float64) (float64, bool) {
	for _, s := range r.Series {
		if s.Name != name {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y, true
			}
		}
	}
	return 0, false
}

func TestFig08ZipfAnalytic(t *testing.T) {
	r, err := Fig08Zipf(Bench())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
	// Uniform is flat at 1/64; z=1.5 is the most skewed.
	u, ok := r.seriesY("uniform", 1)
	if !ok || math.Abs(u-1.0/64) > 1e-9 {
		t.Fatalf("uniform P(rank1) = %v", u)
	}
	z15, _ := r.seriesY("z=1.5", 1)
	z10, _ := r.seriesY("z=1.0", 1)
	z05, _ := r.seriesY("z=0.5", 1)
	if !(z15 > z10 && z10 > z05 && z05 > u) {
		t.Fatalf("skew ordering broken: %v %v %v %v", z15, z10, z05, u)
	}
	// Each PMF sums to ~1.
	for _, s := range r.Series {
		sum := 0.0
		for _, p := range s.Points {
			sum += p.Y
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s sums to %v", s.Name, sum)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19",
		"table2", "table3", "piggyback",
		"ablation-rt", "ablation-prefetch", "ablation-cache",
		"ablation-sched", "ablation-zoned", "admission", "vcr",
		"faults", "overload", "failover", "caching", "storms",
	}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d ids, want %d", len(IDs()), len(want))
	}
	if _, err := Run("nope", Bench()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestFidelityByName(t *testing.T) {
	for _, n := range []string{"bench", "quick", "full"} {
		f, ok := ByName(n)
		if !ok || f.Name != n {
			t.Fatalf("fidelity %s unresolvable", n)
		}
		if f.Step <= 0 || len(f.Seeds) == 0 || f.MeasureTime <= 0 {
			t.Fatalf("fidelity %s incomplete: %+v", n, f)
		}
	}
	if _, ok := ByName("hyper"); ok {
		t.Fatal("bogus fidelity resolved")
	}
}

func TestResultFormat(t *testing.T) {
	r := Result{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{1, 10}, {2, 20}}},
			{Name: "b", Points: []Point{{1, 11}}},
		},
		Notes: []string{"hello"},
	}
	out := r.Format()
	for _, want := range []string{"figX", "demo", "a", "b", "10", "20", "11", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestFig09KneeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := Fig09GlitchCurve(Bench())
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) < 4 {
		t.Fatalf("too few points: %d", len(pts))
	}
	// Glitches must be zero at (or below) the reported max and positive
	// at the top of the sweep.
	sawZero, sawPositive := false, false
	for _, p := range pts {
		if p.Y == 0 {
			sawZero = true
		}
		if p.Y > 0 {
			sawPositive = true
		}
	}
	if !sawZero || !sawPositive {
		t.Fatalf("glitch curve has no knee: %+v", pts)
	}
	// The rightmost point must glitch.
	if pts[len(pts)-1].Y <= 0 {
		t.Fatalf("highest terminal count did not glitch: %+v", pts)
	}
}

func TestPiggybackMultiplier(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := Piggyback(Bench())
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Y < 1.3*pts[0].Y {
		t.Fatalf("piggybacking multiplier too small: %v -> %v", pts[0].Y, pts[1].Y)
	}
}

func TestScaleupDataShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	f := Bench()
	f.ScaleFactors = []int{1, 2}
	// Restrict to two configurations' worth of time by using the bench
	// fidelity as-is (RunScaleup runs all four; still the heaviest test).
	d, err := RunScaleup(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 4 || len(d.Max) != 4 {
		t.Fatalf("configs = %d", len(d.Configs))
	}
	for c := range d.Configs {
		if d.Max[c][0] <= 0 {
			t.Fatalf("%s base max = %d", d.Configs[c], d.Max[c][0])
		}
		// Doubling disks must increase capacity substantially.
		if float64(d.Max[c][1]) < 1.3*float64(d.Max[c][0]) {
			t.Fatalf("%s did not scale: %v", d.Configs[c], d.Max[c])
		}
	}
	// Rendering the four outputs must not panic and must carry data.
	for _, r := range []Result{d.Table2(), d.Fig17(), d.Fig18(), d.Table3()} {
		if len(r.Series) == 0 {
			t.Fatalf("%s: empty", r.ID)
		}
	}
}

func TestFailoverExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := Failover(Bench())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(r.Series))
	}
	// Cross-node mirroring with failover recovers essentially every
	// impacted session at every restart time, including never.
	for _, p := range r.Series[0].Points {
		if p.Y < 95 {
			t.Fatalf("cross-node+failover recovered only %.1f%% at restart=%vs", p.Y, p.X)
		}
	}
	// Without failover and without a restart, essentially nothing
	// recovers. (Not exactly zero: the retry storm against the dead node
	// can overload a live node past the watchdog's timeout, and sessions
	// "impacted" by that false suspicion recover once the live node
	// drains. The dead node's own sessions stay lost.)
	noFailover := r.Series[1].Points
	if noFailover[0].X != 0 || noFailover[0].Y >= 5 {
		t.Fatalf("no-failover never-restart point = %+v, want ~0%% recovered", noFailover[0])
	}
	// A restart must help the no-failover variant: later points recover.
	if noFailover[len(noFailover)-1].Y <= 0 {
		t.Fatalf("no-failover with restart recovered nothing: %+v", noFailover)
	}
}

func TestCSVExport(t *testing.T) {
	r := Result{
		ID: "figX", XLabel: "mem", YLabel: "terms",
		Series: []Series{
			{Name: "a", Points: []Point{{128, 190}, {512, 195}}},
			{Name: "b", Points: []Point{{128, 30}}},
		},
	}
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "mem,a,b\n128,190,30\n512,195,\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := Result{
		ID: "fig10", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s", Points: []Point{{1, 2}, {3, 4.5}}}},
		Notes:  []string{"n1"},
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back resultJSON
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID || back.Title != r.Title || len(back.Series) != 1 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Series[0].Points[1] != [2]float64{3, 4.5} {
		t.Fatalf("points corrupted: %+v", back.Series[0].Points)
	}
	if len(back.Notes) != 1 || back.Notes[0] != "n1" {
		t.Fatalf("notes lost: %v", back.Notes)
	}
}
