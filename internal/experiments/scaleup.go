package experiments

import (
	"fmt"

	"spiffi/internal/bufferpool"
	"spiffi/internal/core"
	"spiffi/internal/dsched"
	"spiffi/internal/prefetch"
	"spiffi/internal/sim"
)

// scaleConfig is one of Table 2's four base configurations.
type scaleConfig struct {
	name       string
	sched      dsched.Config
	termMB     float64 // terminal memory, MB
	serverMB   int64   // server memory at the 16-disk base, MB
	delayed    bool    // love prefetch + delayed prefetching (8 s)
	lovePolicy bool
}

// table2Configs are §7.6's four configurations: the tuned elevator and
// real-time systems plus two comparison points.
func table2Configs() []scaleConfig {
	return []scaleConfig{
		{name: "elevator 2MB/128MB", sched: dsched.Config{Kind: dsched.KindElevator},
			termMB: 2, serverMB: 128, lovePolicy: true},
		{name: "elevator 2.5MB/128MB", sched: dsched.Config{Kind: dsched.KindElevator},
			termMB: 2.5, serverMB: 128, lovePolicy: true},
		{name: "elevator 2MB/512MB", sched: dsched.Config{Kind: dsched.KindElevator},
			termMB: 2, serverMB: 512, lovePolicy: true},
		{name: "real-time 2MB/512MB", sched: rt34(),
			termMB: 2, serverMB: 512, lovePolicy: true, delayed: true},
	}
}

// configAtScale builds a scaleConfig's system at a disk multiplier:
// disks, videos and server memory scale together; CPUs stay at 4 (§7.6).
func (sc scaleConfig) configAtScale(factor int) core.Config {
	cfg := base()
	cfg.DisksPerNode = 4 * factor
	cfg.ServerMemBytes = sc.serverMB * int64(factor) * core.MB
	cfg.TerminalMemBytes = int64(sc.termMB * float64(core.MB))
	cfg.Sched = sc.sched
	if sc.lovePolicy {
		cfg.Replacement = bufferpool.PolicyLovePrefetch
	}
	if sc.delayed {
		cfg.Prefetch = prefetch.Config{Mode: prefetch.ModeDelayed, MaxAdvance: 8 * sim.Second}
	}
	return cfg
}

// ScaleupData carries the raw scaleup measurements shared by Table 2,
// Figure 17, Figure 18 and Table 3.
type ScaleupData struct {
	Configs []string
	Factors []int
	// Max[c][i] is config c's max terminals at Factors[i].
	Max [][]int
	// CPUUtil[c][i] and PeakNetMBs[c][i] come from the passing runs.
	CPUUtil    [][]float64
	PeakNetMBs [][]float64
	DiskUtil   [][]float64
}

// RunScaleup executes the §7.6 scaleup experiment for every Table 2
// configuration and scale factor.
func RunScaleup(f Fidelity) (*ScaleupData, error) {
	factors := f.ScaleFactors
	if len(factors) == 0 {
		factors = []int{1, 2, 4}
	}
	configs := table2Configs()
	rs, err := grid(f, len(configs), len(factors), func(f Fidelity, c, i int) (core.SearchResult, error) {
		r, err := f.search(configs[c].configAtScale(factors[i]), 0, 0)
		if err != nil {
			err = fmt.Errorf("%s x%d: %w", configs[c].name, factors[i], err)
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	data := &ScaleupData{Factors: factors}
	for c, sc := range configs {
		data.Configs = append(data.Configs, sc.name)
		data.Max = append(data.Max, make([]int, len(factors)))
		data.CPUUtil = append(data.CPUUtil, make([]float64, len(factors)))
		data.PeakNetMBs = append(data.PeakNetMBs, make([]float64, len(factors)))
		data.DiskUtil = append(data.DiskUtil, make([]float64, len(factors)))
		for i, r := range rs[c] {
			data.Max[c][i] = r.MaxTerminals
			if len(r.AtMax) > 0 {
				m := r.AtMax[0]
				data.CPUUtil[c][i] = m.CPUUtilAvg * 100
				data.PeakNetMBs[c][i] = m.PeakNetBandwidth / 1e6
				data.DiskUtil[c][i] = m.DiskUtilAvg * 100
			}
		}
	}
	return data, nil
}

// Table2 renders the scaleup table: max terminals per configuration and
// scale, with the scaleup fraction relative to a linear extrapolation of
// the base (the parenthesized numbers in the paper's Table 2).
func (d *ScaleupData) Table2() Result {
	res := Result{
		ID:     "table2",
		Title:  "Scaleup",
		XLabel: "disks",
		YLabel: "max terminals",
	}
	for c, name := range d.Configs {
		s := Series{Name: name}
		frac := Series{Name: name + " scaleup"}
		for i, factor := range d.Factors {
			disks := float64(16 * factor)
			s.Points = append(s.Points, Point{X: disks, Y: float64(d.Max[c][i])})
			if i > 0 && d.Max[c][0] > 0 {
				linear := float64(d.Max[c][0]) * float64(factor)
				frac.Points = append(frac.Points, Point{X: disks, Y: float64(d.Max[c][i]) / linear})
			}
		}
		res.Series = append(res.Series, s, frac)
	}
	return res
}

// Fig17 renders CPU utilization vs. system size (Figure 17).
func (d *ScaleupData) Fig17() Result {
	res := Result{
		ID:     "fig17",
		Title:  "CPU utilization during scaleup",
		XLabel: "disks",
		YLabel: "avg CPU utilization (%)",
	}
	for c, name := range d.Configs {
		s := Series{Name: name}
		for i, factor := range d.Factors {
			s.Points = append(s.Points, Point{X: float64(16 * factor), Y: d.CPUUtil[c][i]})
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// Fig18 renders peak aggregate network bandwidth vs. system size
// (Figure 18).
func (d *ScaleupData) Fig18() Result {
	res := Result{
		ID:     "fig18",
		Title:  "Peak aggregate network bandwidth requirements",
		XLabel: "disks",
		YLabel: "peak bandwidth (MB/s)",
	}
	for c, name := range d.Configs {
		s := Series{Name: name}
		for i, factor := range d.Factors {
			s.Points = append(s.Points, Point{X: float64(16 * factor), Y: d.PeakNetMBs[c][i]})
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// diskPricing1995 holds Table 3's price points: capacity (GB) and cost
// per disk for systems of 16, 32 and 64 disks storing the same 64
// videos.
var diskPricing1995 = []struct {
	disks      int
	capacityGB float64
	costPerDsk float64
}{
	{16, 9.0, 4000},
	{32, 4.5, 2500},
	{64, 2.2, 1500},
}

// Table3 combines measured max terminals (the real-time configuration,
// matching the paper's 200/395/760 row sources) with 1995 disk prices to
// compare cost per supported terminal (the paper's Table 3).
func (d *ScaleupData) Table3() Result {
	res := Result{
		ID:     "table3",
		Title:  "Comparison of disk costs per terminal (1995 prices)",
		XLabel: "disks",
	}
	// Use the last configuration (real-time) as the paper does; fall
	// back to the first if absent.
	c := len(d.Configs) - 1
	costS := Series{Name: "total cost ($)"}
	termS := Series{Name: "max terminals"}
	perS := Series{Name: "cost/terminal ($)"}
	cpmS := Series{Name: "cost/MB ($)"}
	for i, factor := range d.Factors {
		disks := 16 * factor
		var price *struct {
			disks      int
			capacityGB float64
			costPerDsk float64
		}
		for j := range diskPricing1995 {
			if diskPricing1995[j].disks == disks {
				price = &diskPricing1995[j]
			}
		}
		if price == nil {
			continue
		}
		total := float64(price.disks) * price.costPerDsk
		terms := float64(d.Max[c][i])
		costS.Points = append(costS.Points, Point{X: float64(disks), Y: total})
		termS.Points = append(termS.Points, Point{X: float64(disks), Y: terms})
		if terms > 0 {
			perS.Points = append(perS.Points, Point{X: float64(disks), Y: total / terms})
		}
		cpmS.Points = append(cpmS.Points, Point{
			X: float64(disks),
			Y: price.costPerDsk / (price.capacityGB * 1024),
		})
	}
	res.Series = []Series{termS, costS, cpmS, perS}
	res.Notes = append(res.Notes,
		"9GB/$4000, 4.5GB/$2500, 2.2GB/$1500 drives (paper's 1995 prices); "+
			"minimizing $/MB does not minimize $/terminal")
	return res
}
