package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestGolden runs one unit of every workload at the golden seed and
// compares its output with golden.json, so a change to simulated
// behaviour fails here before it reaches a benchmark run.
func TestGolden(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u := w.runUnit(goldenSeed, false)
			if u.err != nil {
				t.Fatal(u.err)
			}
			if err := checkUnit(w, u); err != nil {
				t.Fatal(err)
			}
			if err := checkGolden(g, w, u); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range doc.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why %q, want %q", w.Name, w.Why, workloads[i].why)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var wantE2E []metric
	for _, s := range endToEnd {
		wantE2E = append(wantE2E, metric{s.name, s.unit, s.better, s.bound})
	}
	if !reflect.DeepEqual(doc.EndToEnd, wantE2E) {
		t.Errorf("end_to_end %+v, want %+v", doc.EndToEnd, wantE2E)
	}
	var got, wantLayer []string
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, s := range perLayer() {
		wantLayer = append(wantLayer, s.name+" "+s.unit+" "+s.better)
	}
	if !reflect.DeepEqual(got, wantLayer) {
		t.Errorf("per_layer\n got %v\nwant %v", got, wantLayer)
	}
}

// TestCommandReportsEveryMetric runs the command on the cheapest workload
// in both modes and checks the JSON result line it ends with.
func TestCommandReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command twice (~8 s)")
	}
	for trace, specs := range map[string][]metricSpec{"0": endToEnd, "1": perLayer()} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "churn-cache", "--seed", "2", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minUnits {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, s.name, m, s.unit)
			}
		}
	}
}

// TestUnitSeedsCycle pins the seed mapping the golden check relies on.
func TestUnitSeedsCycle(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		for i := 0; i < 2*seedsPerRun; i++ {
			if got, want := unitSeed(n, i), uint64(1+i%seedsPerRun); got != want {
				t.Errorf("unitSeed(%d, %d) = %d, want %d", n, i, got, want)
			}
		}
	}
	if got := unitSeed(3, 0); got != 2*seedsPerRun+1 {
		t.Errorf("unitSeed(3, 0) = %d, want %d", got, 2*seedsPerRun+1)
	}
}
