package experiments

import (
	"fmt"
	"sort"
	"time"
)

// Runner regenerates one or more figures/tables at a fidelity.
type Runner func(f Fidelity) ([]Result, error)

// Registry maps experiment ids (as printed in DESIGN.md's per-experiment
// index) to runners. Combined harnesses (fig13+fig14, table2+fig17+
// fig18+table3) are registered under each id they produce.
func Registry() map[string]Runner {
	single := func(fn func(Fidelity) (Result, error)) Runner {
		return func(f Fidelity) ([]Result, error) {
			r, err := fn(f)
			if err != nil {
				return nil, err
			}
			return []Result{r}, nil
		}
	}
	striping := func(f Fidelity) ([]Result, error) {
		a, b, err := Fig13And14Striping(f)
		if err != nil {
			return nil, err
		}
		return []Result{a, b}, nil
	}
	access := func(f Fidelity) ([]Result, error) {
		a, b, err := Fig15And16AccessFrequencies(f)
		if err != nil {
			return nil, err
		}
		return []Result{a, b}, nil
	}
	scaleup := func(f Fidelity) ([]Result, error) {
		d, err := RunScaleup(f)
		if err != nil {
			return nil, err
		}
		return []Result{d.Table2(), d.Fig17(), d.Fig18(), d.Table3()}, nil
	}
	return map[string]Runner{
		"fig08":     single(Fig08Zipf),
		"fig09":     single(Fig09GlitchCurve),
		"fig10":     single(Fig10SchedStripe),
		"fig11":     single(Fig11MemoryElevator),
		"fig12":     single(Fig12MemoryRealTime),
		"fig13":     striping,
		"fig14":     striping,
		"fig15":     access,
		"fig16":     access,
		"fig19":     single(Fig19Pause),
		"table2":    scaleup,
		"fig17":     scaleup,
		"fig18":     scaleup,
		"table3":    scaleup,
		"piggyback": single(Piggyback),

		// Extensions beyond the paper's published plots.
		"ablation-rt":       single(AblationRTParams),
		"ablation-prefetch": single(AblationPrefetch),
		"ablation-cache":    single(AblationDiskCache),
		"ablation-sched":    single(AblationSchedulerZoo),
		"ablation-zoned":    single(AblationZonedDisks),
		"admission":         single(Admission),
		"vcr":               single(VCRSeek),
		"faults":            single(Faults),
		"overload":          single(Overload),
		"caching":           single(Caching),
		"failover":          single(Failover),
		"storms":            single(Storms),
	}
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment id on the fidelity's worker pool and
// stamps each result with the worker count and wall-clock time.
func Run(id string, f Fidelity) ([]Result, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	f = f.withPool()
	start := time.Now()
	results, err := r(f)
	elapsed := time.Since(start)
	for i := range results {
		results[i].Workers = f.run.Workers()
		results[i].WallClock = elapsed
	}
	return results, err
}
