// Command bench is the simulator's benchmark: four workloads, each run as
// a closed loop of units (one simulation, or one capacity search), timed
// from outside the simulator, with every unit's simulated output checked.
// It reports end-to-end metrics from untraced units and per-layer metrics
// from a separate traced, CPU-profiled pass plus layer micro-benchmarks.
//
// Run it from the repository root (see README.md):
//
//	bash bench/run.sh [-seed N] [-seconds S]       # all workloads, every metric
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	bash bench/run.sh -aa                          # two timed sets, compared
//	bash bench/run.sh -update-golden               # re-pin golden.json
//
// Every metric prints as "workload metric value unit"; the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. The exit status is non-zero when any unit fails its checks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metricSpec names one reported metric and the direction that is
// better: for the modelled system's counters, the direction the modelled
// system prefers.
type metricSpec struct {
	name, unit, better string
	// bound is how far an end-to-end metric's median may worsen, as a
	// share of the parent commit's median, before a change regresses.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, each the median
// over a set's samples: its units, or for setup_s its set-up repetitions.
// Medians, because a few seeds make a capacity search settle far lower
// and cost half as much as usual.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_unit", "count", "lower", 0.10},
	{"alloc_mb_per_unit", "MB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.25},
}

const mb = 1 << 20

// modelMetrics are per-layer counters of the modelled system, read from
// each untraced unit's Metrics and reported as medians.
var modelMetrics = []struct {
	name, unit, better string
	of                 func(u *unit) float64
}{
	{"terminal.blocks", "count", "higher", func(u *unit) float64 { return float64(u.m.BlocksServed) }},
	{"terminal.resp_p99_ms", "ms", "lower", func(u *unit) float64 { return u.m.RespTimeP99.Seconds() * 1000 }},
	{"network.mb", "MB", "higher", func(u *unit) float64 { return u.m.NetTotalBytes / mb }},
	{"server.requests", "count", "higher", func(u *unit) float64 { return float64(u.m.Nodes.Requests) }},
	{"cpu.util", "frac", "lower", func(u *unit) float64 { return u.m.CPUUtilAvg }},
	{"bufferpool.hit_frac", "frac", "higher", func(u *unit) float64 { return u.m.Pool.HitFraction() }},
	{"bufferpool.evictions", "count", "lower", func(u *unit) float64 { return float64(u.m.Pool.Evictions) }},
	{"prefetch.reads", "count", "lower", func(u *unit) float64 { return float64(u.m.Nodes.Prefetches) }},
	{"disk.util", "frac", "lower", func(u *unit) float64 { return u.m.DiskUtilAvg }},
	{"disk.reads", "count", "lower", func(u *unit) float64 { return float64(u.m.DiskReads) }},
	{"cache.hit_frac", "frac", "higher", func(u *unit) float64 {
		if n := u.m.CacheHits + u.m.CacheMisses; n > 0 {
			return float64(u.m.CacheHits) / float64(n)
		}
		return 0
	}},
	{"cache.merges", "count", "higher", func(u *unit) float64 { return float64(u.m.Merges) }},
	{"runner.runs_executed", "count", "lower", func(u *unit) float64 { return float64(u.totalRuns) }},
	{"runner.spec_waste_frac", "frac", "lower", func(u *unit) float64 { return 1 - float64(u.runs)/float64(u.totalRuns) }},
}

// tracedMetrics come from the trace snapshot of each traced unit.
var tracedMetrics = []struct {
	name, unit, better string
	of                 func(u *unit) float64
}{
	{"disk.wait_ms.p50", "ms", "lower", func(u *unit) float64 { return u.m.Trace.DiskWait.Quantile(0.50) * 1000 }},
	{"disk.wait_ms.p99", "ms", "lower", func(u *unit) float64 { return u.m.Trace.DiskWait.Quantile(0.99) * 1000 }},
	{"disk.service_ms.p50", "ms", "lower", func(u *unit) float64 { return u.m.Trace.DiskService.Quantile(0.50) * 1000 }},
}

// perLayer lists every per-layer metric in report order.
func perLayer() []metricSpec {
	return append(workloadLayer(), microLayer()...)
}

// workloadLayer lists the per-layer metrics measured on a workload's own
// units.
func workloadLayer() []metricSpec {
	specs := []metricSpec{
		{name: "sim.events_per_run", unit: "count", better: "lower"},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "traced_overhead_frac", unit: "frac", better: "lower"},
	}
	for _, m := range modelMetrics {
		specs = append(specs, metricSpec{name: m.name, unit: m.unit, better: m.better})
	}
	for _, m := range tracedMetrics {
		specs = append(specs, metricSpec{name: m.name, unit: m.unit, better: m.better})
	}
	for _, l := range cpuLayers {
		specs = append(specs, metricSpec{name: l + ".cpu_frac", unit: "frac", better: "lower"})
	}
	return specs
}

// microLayer lists the layer micro-benchmarks' metrics, which depend on
// no workload.
func microLayer() []metricSpec {
	var specs []metricSpec
	for _, m := range micros {
		specs = append(specs, metricSpec{name: m.name + ".ns", unit: "ns", better: "lower"})
		if m.allocs {
			specs = append(specs, metricSpec{name: m.name + ".allocs", unit: "count", better: "lower"})
		}
	}
	return specs
}

// minUnits is the fewest units a timed or traced set runs, however long
// they take.
const minUnits = 3

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	aa           bool
	updateGolden bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, interleaved)")
	fs.Uint64Var(&o.seed, "seed", 1, "run seed; units cycle through configuration seeds derived from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of measured work per workload")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	fs.BoolVar(&o.aa, "aa", false, "run two timed sets and compare their medians against the bounds")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden.json from this build's output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.updateGolden {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ws := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []*workload{w}
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace one of 0, 1")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b := &bench{o: o, ws: ws, golden: golden, stdout: stdout, stderr: stderr, digests: map[string]string{}}
	fmt.Fprintf(stdout, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if o.aa {
		return b.runAA()
	}
	return b.runOnce()
}

// bench holds one invocation's state: the checks' tally and the digests
// already seen, so every unit is compared with earlier units of its seed.
type bench struct {
	o      options
	ws     []*workload
	golden map[string]goldenEntry

	stdout, stderr io.Writer

	attempted, failed int
	digests           map[string]string // "workload/seed" -> first digest
}

// checkUnit applies the checks that need no other unit.
func checkUnit(w *workload, u *unit) error {
	if !u.m.Started {
		return fmt.Errorf("seed %d: the run never started measuring", u.seed)
	}
	p := u.m.Pool
	if p.DemandRefs != p.DemandHits+p.InFlightHits+p.Misses {
		return fmt.Errorf("seed %d: pool references %d != hits %d + in-flight %d + misses %d",
			u.seed, p.DemandRefs, p.DemandHits, p.InFlightHits, p.Misses)
	}
	return w.check(u)
}

// record counts a unit and checks it: the unit's own checks, the same
// digest as every earlier unit of its seed (which covers traced against
// untraced units), and the golden output at the golden seed.
func (b *bench) record(w *workload, u *unit) {
	b.attempted++
	err := u.err
	if err == nil {
		err = checkUnit(w, u)
	}
	if err == nil {
		key := fmt.Sprintf("%s/%d", w.name, u.seed)
		if prev, ok := b.digests[key]; !ok {
			b.digests[key] = u.digest
		} else if prev != u.digest {
			err = fmt.Errorf("seed %d: digest %.12s differs from an earlier unit's %.12s", u.seed, u.digest, prev)
		}
	}
	if err == nil && u.seed == goldenSeed {
		err = checkGolden(b.golden, w, u)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "bench: %s: FAILED: %v\n", w.name, err)
	}
}

// fail counts a failed step that is not a unit and reports it.
func (b *bench) fail(w *workload, what string, err error) {
	b.attempted++
	b.failed++
	fmt.Fprintf(b.stderr, "bench: %s: %s FAILED: %v\n", w.name, what, err)
}

// set is what one set of units of a workload measured.
type set struct {
	units  []*unit
	setups []float64 // host seconds of each set-up repetition
	spent  float64   // host seconds spent in units
}

// unitSet runs, for every workload in ws in turn, one set-up repetition
// and then one unit, until each workload has spent budget host seconds
// in units and run minUnits. Host speed drifts over tens of seconds;
// interleaving spreads that drift evenly over the workloads, and over
// set-up as well as units.
func (b *bench) unitSet(ws []*workload, budget float64, traced bool) map[string]*set {
	out := map[string]*set{}
	for _, w := range ws {
		out[w.name] = &set{}
	}
	for {
		active := false
		for _, w := range ws {
			s := out[w.name]
			if len(s.units) >= minUnits && s.spent >= budget {
				continue
			}
			active = true
			seed := unitSeed(b.o.seed, len(s.units))
			if t, err := w.setup(seed); err != nil {
				b.fail(w, "setup", err)
			} else {
				s.setups = append(s.setups, t)
			}
			u := w.runUnit(seed, traced)
			b.record(w, u)
			s.units = append(s.units, u)
			s.spent += u.wall
		}
		if !active {
			return out
		}
	}
}

// endToEndMetrics takes the median of a set's samples for each
// end-to-end metric, and returns the sample count behind each.
func endToEndMetrics(s *set) (values map[string]float64, counts map[string]int) {
	samples := map[string][]float64{"setup_s": s.setups}
	for _, u := range s.units {
		samples["wall_s"] = append(samples["wall_s"], u.wall)
		samples["allocs_per_unit"] = append(samples["allocs_per_unit"], float64(u.mallocs))
		samples["alloc_mb_per_unit"] = append(samples["alloc_mb_per_unit"], float64(u.allocB)/mb)
		samples["live_heap_mb"] = append(samples["live_heap_mb"], float64(u.sim.liveHeap)/mb)
	}
	values, counts = map[string]float64{}, map[string]int{}
	for _, spec := range endToEnd {
		values[spec.name] = median(samples[spec.name])
		counts[spec.name] = len(samples[spec.name])
	}
	return values, counts
}

// row is one reported group of metrics: a workload's, or the
// micro-benchmarks'.
type row struct {
	name   string
	specs  []metricSpec
	values map[string]float64
	counts map[string]int // sample count behind each end-to-end metric
}

// microRow names the row that holds the micro-benchmarks' metrics when
// more than one workload runs. A single-workload run reports them as its
// workload's own, so that it carries every per-layer metric.
const microRow = "micro"

func (b *bench) runOnce() int {
	for _, w := range b.ws {
		// The golden unit also fills the shared library cache.
		b.record(w, w.runUnit(goldenSeed, false))
	}
	wantE2E, wantLayer := b.o.trace != 1, b.o.trace != 0
	var specs []metricSpec
	if wantE2E {
		specs = append(specs, endToEnd...)
	}
	if wantLayer {
		specs = append(specs, workloadLayer()...)
	}
	var rows []*row
	for _, w := range b.ws {
		rows = append(rows, &row{name: w.name, specs: specs, values: map[string]float64{}})
	}

	// Untraced units: the end-to-end metrics, and the per-layer model
	// counters and host cost per event. A per-layer-only run spends less
	// of its budget here, leaving the rest to the traced pass.
	budget := b.o.seconds
	if !wantE2E {
		budget = 0.4 * b.o.seconds
	}
	untraced := b.unitSet(b.ws, budget, false)
	if wantE2E {
		for i, w := range b.ws {
			rows[i].values, rows[i].counts = endToEndMetrics(untraced[w.name])
		}
	}
	if wantLayer {
		for i, w := range b.ws {
			b.layerMetrics(w, untraced[w.name].units, 0.4*b.o.seconds, rows[i].values)
		}
		microBudget := time.Duration(0.2 * b.o.seconds * float64(len(b.ws)) * float64(time.Second))
		micro, failed := runMicros(microBudget)
		b.attempted += len(micros)
		b.failed += len(failed)
		for _, name := range failed {
			fmt.Fprintf(b.stderr, "bench: micro-benchmark %s FAILED\n", name)
		}
		if len(rows) == 1 {
			rows[0].specs = append(rows[0].specs, microLayer()...)
			for k, v := range micro {
				rows[0].values[k] = v
			}
		} else {
			rows = append(rows, &row{name: microRow, specs: microLayer(), values: micro})
		}
	}
	return b.report(rows)
}

// layerMetrics runs the traced, CPU-profiled pass for one workload and
// fills its per-layer metrics.
func (b *bench) layerMetrics(w *workload, untraced []*unit, budget float64, out map[string]float64) {
	// Each traced unit follows a set-up from a cold library, as in a
	// fresh process, so set-up's layers show in the profile too.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.fail(w, "cpu profile", err)
		return
	}
	traced := b.unitSet([]*workload{w}, budget, true)[w.name].units
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		b.fail(w, "cpu profile", err)
	}
	for _, l := range cpuLayers {
		out[l+".cpu_frac"] = shares[l]
	}

	medianOf := func(us []*unit, f func(u *unit) float64) float64 {
		var xs []float64
		for _, u := range us {
			if u.err == nil {
				xs = append(xs, f(u))
			}
		}
		return median(xs)
	}
	for _, m := range modelMetrics {
		out[m.name] = medianOf(untraced, m.of)
	}
	for _, m := range tracedMetrics {
		out[m.name] = medianOf(traced, func(u *unit) float64 {
			if u.m.Trace == nil {
				return 0
			}
			return m.of(u)
		})
	}
	wall := func(u *unit) float64 { return u.wall }
	out["traced_overhead_frac"] = medianOf(traced, wall)/medianOf(untraced, wall) - 1
	out["sim.events_per_run"] = medianOf(untraced, func(u *unit) float64 { return float64(u.sim.m.Events) })
	out["sim.ns_per_event"] = medianOf(untraced, func(u *unit) float64 { return u.sim.wall * 1e9 / float64(u.sim.m.Events) })
}

// report prints every metric line and the final JSON result, and returns
// the exit status. With more than one row, a metric's JSON name is
// "row/metric".
func (b *bench) report(rows []*row) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, r := range rows {
		for _, s := range r.specs {
			v, ok := r.values[s.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				// A metric a failed unit left unmeasured.
				v = 0
			}
			line := fmt.Sprintf("%-15s %-34s %16.6f %s", r.name, s.name, v, s.unit)
			if n, ok := r.counts[s.name]; ok {
				line += fmt.Sprintf("  median n=%d bound=%g%%", n, s.bound*100)
			}
			fmt.Fprintln(b.stdout, line)
			key := s.name
			if len(rows) > 1 {
				key = r.name + "/" + s.name
			}
			metrics[key] = value{v, s.unit}
		}
	}
	failedFrac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Fprintf(b.stdout, "# failed_frac %g (%d of %d checked units and steps)\n", failedFrac, b.failed, b.attempted)

	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(b.stdout, string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// runAA runs two full timed sets of the same code and prints, for every
// end-to-end metric and workload, both medians, their difference, and
// whether it stays within the metric's bound.
func (b *bench) runAA() int {
	var sets [2]map[string]map[string]float64
	for _, w := range b.ws {
		b.record(w, w.runUnit(goldenSeed, false))
	}
	for i := range sets {
		units := b.unitSet(b.ws, b.o.seconds, false)
		sets[i] = map[string]map[string]float64{}
		for _, w := range b.ws {
			sets[i][w.name], _ = endToEndMetrics(units[w.name])
		}
	}
	fmt.Fprintf(b.stdout, "%-15s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "set1", "set2", "diff", "bound", "verdict")
	fails := 0
	for _, w := range b.ws {
		for _, s := range endToEnd {
			a, c := sets[0][w.name][s.name], sets[1][w.name][s.name]
			diff := (c - a) / a
			verdict := "PASS"
			if math.Abs(diff) > s.bound {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(b.stdout, "%-15s %-18s %14.6f %14.6f %+7.2f%% %6.1f%%  %s\n",
				w.name, s.name, a, c, diff*100, s.bound*100, verdict)
		}
	}
	fmt.Fprintf(b.stdout, "# a/a: %d of %d metric-workload pairs outside their bound; %d of %d checks failed\n",
		fails, len(b.ws)*len(endToEnd), b.failed, b.attempted)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// median returns the middle value (the mean of the middle two for an even
// count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
