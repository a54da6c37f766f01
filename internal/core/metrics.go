package core

import (
	"fmt"
	"strings"

	"spiffi/internal/bufferpool"
	"spiffi/internal/server"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Metrics is the result of one simulation run, measured over the window
// that begins when every terminal is actively viewing (§6).
type Metrics struct {
	Terminals int

	// Started reports whether measurement began; false means the
	// configuration was so overloaded that terminals never all primed
	// within the startup grace period (treated as failing).
	Started      bool
	MeasureStart sim.Time
	MeasureEnd   sim.Time

	Glitches        int64 // total glitches in the window (the paper's pass/fail signal)
	GlitchTerminals int   // terminals that glitched at least once

	DiskUtilAvg float64
	DiskUtilMin float64
	DiskUtilMax float64
	CPUUtilAvg  float64
	CPUUtilMax  float64

	// PeakNetBandwidth is Figure 18's metric, bytes/second.
	PeakNetBandwidth float64
	NetTotalBytes    float64

	Pool  bufferpool.Stats // aggregated over nodes
	Nodes server.Stats     // aggregated over nodes

	BlocksServed    int64
	MoviesCompleted int64
	RespTimeAvg     sim.Duration
	RespTimeMax     sim.Duration
	RespTimeP50     sim.Duration // histogram upper-edge estimate
	RespTimeP99     sim.Duration // histogram upper-edge estimate

	// Interactive-operation aggregates (§8.1 workloads).
	Seeks          int64
	SkimBlocks     int64
	StaleDrops     int64
	SeekRePrimeAvg sim.Duration
	SeekRePrimeMax sim.Duration

	// Degraded-mode aggregates (fault injection). The per-cause glitch
	// counters partition Glitches by what the viewer experienced: a
	// frozen picture (underrun) versus data played over a hole left by a
	// dead disk or lost messages.
	GlitchesUnderrun int64
	GlitchesDiskFail int64
	GlitchesTimeout  int64
	Nacks            int64 // NACKs received by terminals
	Retries          int64 // requests re-issued by terminals
	Timeouts         int64 // request timeouts fired
	LostBlocks       int64 // blocks abandoned after the final retry
	NetDropped       int64 // messages discarded by network fault injection
	DiskFailStops    int64 // fail-stop events across all disks
	DiskAbandoned    int64 // disk requests drained/killed by fail-stops
	DiskRejects      int64 // submissions rejected by failed disks
	DiskDownTime     sim.Duration
	MTTRAvg          sim.Duration // mean glitch-to-resume recovery
	MTTRMax          sim.Duration
	Recoveries       int64

	// Failover aggregates (node crash → mirror redirection). A session is
	// impacted when a timeout trips node suspicion while it plays; it is
	// recovered once a first-attempt fetch of one of the dead node's
	// primary blocks succeeds again (via a mirror or the restarted node),
	// and lost otherwise (aborted by failover re-admission rejection, or
	// still unresolved at session/run end). Impacted = Recovered + Lost
	// after CloseSessionAccounting. FailoverLat* measure suspicion-to-
	// recovery per session. Redirects count proactively re-resolved
	// fetches; Readmits count failover-priority re-admission attempts,
	// with the Admitted/Rejected pair their outcomes at the controller.
	SessionsImpacted  int64
	SessionsRecovered int64
	SessionsLost      int64
	FailoverLatAvg    sim.Duration
	FailoverLatMax    sim.Duration
	FailoverRedirects int64
	FailoverReadmits  int64
	FailoverAdmitted  int64
	FailoverRejected  int64
	NodeSuspects      int64 // suspicion episodes opened
	NodeRejoins       int64 // suspicion episodes cleared

	// Overload-control aggregates (internal/overload). Admission
	// counters come from the admission controller; shed/restore and
	// the limit floor from the capacity estimator; rebuild counters
	// from the mirror rebuilder. GlitchesProtected restricts Glitches
	// to the protected terminals (ids below ProtectedTerminals) — with
	// no overload config every terminal is protected and it equals
	// Glitches.
	Admitted           int64
	AdmWaited          int64
	AdmRejected        int64
	AdmWaitAvg         sim.Duration
	AdmLimit           int // configured admission limit (0 = off)
	AdmLimitMin        int // lowest adaptive limit reached
	Sheds              int64
	Restores           int64
	ShedPeak           int
	DegradedBlocks     int64
	DegradedFrames     int64
	ProtectedTerminals int
	GlitchesProtected  int64
	// DegradedBlocksProtected restricts DegradedBlocks to the protected
	// terminals; shedding must never pick them, so it stays zero however
	// hard the shed machinery works (the chaos-soak invariant).
	DegradedBlocksProtected int64
	RebuildWindows          int64 // completed rebuilds (closed redundancy windows)
	RebuildWindowAvg        sim.Duration
	RebuildWindowMax        sim.Duration
	RebuiltBlocks           int64
	RebuildIOs              int64 // disk transfers spent on reconstruction
	StaleNacks              int64 // demand reads NACKed awaiting rebuild

	// Prefix-cache and stream-merge aggregates (internal/cache,
	// core/merge.go, CACHING.md). Cache counters sum over node caches
	// and are lifetime (hit ratio is a property of the cache, not of the
	// measurement window); merge counters likewise span the run.
	// DiskReads counts completed disk service operations inside the
	// window — the caching experiment's disk-I/O-per-terminal metric.
	CacheHits      int64
	CacheMisses    int64
	CacheInserts   int64
	CacheEvictions int64
	Merges         int64 // successful stream-merge joins
	MergedBlocks   int64 // block deliveries forwarded off merged streams
	MergeDetaches  int64 // mid-stream exits from merged streams
	DiskReads      int64

	// PhaseStats is the phase-resolved degradation surface, one entry per
	// phase segment entered, populated only when Config.Workload drives
	// the run (WORKLOADS.md).
	PhaseStats []PhaseMetrics `json:",omitempty"`

	Events uint64 // kernel events dispatched (simulator cost)

	// Trace is the structured event snapshot when Config.Trace.Enabled
	// was set, nil otherwise. It rides the Metrics so parallel sweeps
	// surface traces only through consumed results — the same discipline
	// that keeps every other metric bit-identical across worker counts.
	// Excluded from JSON results (experiments marshal a separate view).
	Trace *trace.Data `json:"-"`
}

// PhaseMetrics is one segment of the phase-resolved degradation surface
// produced by a workload scenario. Counters are deltas over [Start, End)
// and are lifetime-based — they accumulate from simulation start rather
// than the measurement window, so phases overlapping startup are covered
// too (the window-relative aggregates remain in the top-level fields).
type PhaseMetrics struct {
	Name  string
	Index int // phase index within the cycle
	Cycle int // 0-based cycle count (always 0 unless the workload repeats)
	Start sim.Time
	End   sim.Time
	Load  float64 // the phase's arrival-rate multiplier

	Glitches         int64
	GlitchesUnderrun int64
	GlitchesDiskFail int64
	GlitchesTimeout  int64
	Sheds            int64
	AdmRejected      int64
	CacheHits        int64
	CacheMisses      int64
	MoviesStarted    int64
}

// CacheHitRate returns the phase's prefix-cache hit fraction (0 when the
// phase saw no cache traffic).
func (p PhaseMetrics) CacheHitRate() float64 {
	if p.CacheHits+p.CacheMisses == 0 {
		return 0
	}
	return float64(p.CacheHits) / float64(p.CacheHits+p.CacheMisses)
}

// GlitchFree reports the paper's pass criterion.
func (m Metrics) GlitchFree() bool { return m.Started && m.Glitches == 0 }

// String renders a compact human-readable report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "terminals=%d started=%v glitches=%d (terminals=%d)\n",
		m.Terminals, m.Started, m.Glitches, m.GlitchTerminals)
	fmt.Fprintf(&b, "disk util avg/min/max = %.1f%%/%.1f%%/%.1f%%  cpu util avg/max = %.1f%%/%.1f%%\n",
		m.DiskUtilAvg*100, m.DiskUtilMin*100, m.DiskUtilMax*100,
		m.CPUUtilAvg*100, m.CPUUtilMax*100)
	fmt.Fprintf(&b, "net peak = %.1f MB/s  pool hits = %.1f%%  shared refs = %.2f%%\n",
		m.PeakNetBandwidth/1e6, m.Pool.HitFraction()*100, m.Pool.SharedFraction()*100)
	fmt.Fprintf(&b, "blocks=%d movies=%d resp avg/max = %v/%v\n",
		m.BlocksServed, m.MoviesCompleted, m.RespTimeAvg, m.RespTimeMax)
	if m.FaultsSeen() {
		fmt.Fprintf(&b, "faults: glitch causes underrun/diskfail/timeout = %d/%d/%d  nacks=%d retries=%d timeouts=%d lost=%d\n",
			m.GlitchesUnderrun, m.GlitchesDiskFail, m.GlitchesTimeout,
			m.Nacks, m.Retries, m.Timeouts, m.LostBlocks)
		fmt.Fprintf(&b, "faults: disk failstops=%d abandoned=%d rejects=%d downtime=%v  node crashes=%d drops=%d (req=%d reply=%d)  netdrop=%d  mttr avg/max = %v/%v\n",
			m.DiskFailStops, m.DiskAbandoned, m.DiskRejects, m.DiskDownTime,
			m.Nodes.Crashes, m.Nodes.Dropped, m.Nodes.DroppedReqs, m.Nodes.DroppedReplies,
			m.NetDropped, m.MTTRAvg, m.MTTRMax)
	}
	if m.FailoverSeen() {
		fmt.Fprintf(&b, "failover: impacted=%d recovered=%d lost=%d lat avg/max = %v/%v  redirects=%d readmits=%d (ok=%d rej=%d)  suspects=%d rejoins=%d\n",
			m.SessionsImpacted, m.SessionsRecovered, m.SessionsLost,
			m.FailoverLatAvg, m.FailoverLatMax,
			m.FailoverRedirects, m.FailoverReadmits, m.FailoverAdmitted, m.FailoverRejected,
			m.NodeSuspects, m.NodeRejoins)
	}
	if m.OverloadSeen() {
		fmt.Fprintf(&b, "overload: admitted=%d waited=%d rejected=%d waitavg=%v limit=%d min=%d\n",
			m.Admitted, m.AdmWaited, m.AdmRejected, m.AdmWaitAvg, m.AdmLimit, m.AdmLimitMin)
		fmt.Fprintf(&b, "overload: sheds=%d restores=%d peak=%d degraded blocks/frames=%d/%d  protected glitches=%d over %d terminals\n",
			m.Sheds, m.Restores, m.ShedPeak, m.DegradedBlocks, m.DegradedFrames,
			m.GlitchesProtected, m.ProtectedTerminals)
		if m.RebuildWindows > 0 || m.RebuiltBlocks > 0 || m.StaleNacks > 0 {
			fmt.Fprintf(&b, "rebuild: windows=%d avg/max=%v/%v blocks=%d ios=%d stalenacks=%d\n",
				m.RebuildWindows, m.RebuildWindowAvg, m.RebuildWindowMax,
				m.RebuiltBlocks, m.RebuildIOs, m.StaleNacks)
		}
	}
	if m.CacheSeen() {
		fmt.Fprintf(&b, "cache: hits=%d misses=%d inserts=%d evictions=%d  merges=%d forwarded=%d detaches=%d  diskreads=%d\n",
			m.CacheHits, m.CacheMisses, m.CacheInserts, m.CacheEvictions,
			m.Merges, m.MergedBlocks, m.MergeDetaches, m.DiskReads)
	}
	if m.WorkloadSeen() {
		for _, p := range m.PhaseStats {
			fmt.Fprintf(&b, "phase %d.%d %-10s [%v..%v) load=%.2f: glitches=%d (u/d/t=%d/%d/%d) sheds=%d rejects=%d cache=%d/%d movies=%d\n",
				p.Cycle, p.Index, p.Name, p.Start, p.End, p.Load,
				p.Glitches, p.GlitchesUnderrun, p.GlitchesDiskFail, p.GlitchesTimeout,
				p.Sheds, p.AdmRejected, p.CacheHits, p.CacheMisses, p.MoviesStarted)
		}
	}
	if t := m.Trace; t != nil {
		fmt.Fprintf(&b, "trace: %d events (%d retained)\n", t.Total, len(t.Events))
		if t.DiskWait != nil && t.DiskWait.Count() > 0 {
			fmt.Fprintf(&b, "trace disk wait (s):    %s\n", t.DiskWait)
		}
		if t.DiskService != nil && t.DiskService.Count() > 0 {
			fmt.Fprintf(&b, "trace disk service (s): %s\n", t.DiskService)
		}
		if t.NetDelay != nil && t.NetDelay.Count() > 0 {
			fmt.Fprintf(&b, "trace net delay (s):    %s\n", t.NetDelay)
		}
	}
	return b.String()
}

// FaultsSeen reports whether any degraded-mode activity occurred.
func (m Metrics) FaultsSeen() bool {
	return m.DiskFailStops > 0 || m.Nodes.Crashes > 0 || m.NetDropped > 0 ||
		m.Nacks > 0 || m.Retries > 0 || m.Timeouts > 0 || m.LostBlocks > 0
}

// FailoverSeen reports whether any node-suspicion or session-failover
// activity occurred.
func (m Metrics) FailoverSeen() bool {
	return m.SessionsImpacted > 0 || m.NodeSuspects > 0 || m.FailoverRedirects > 0
}

// OverloadSeen reports whether the overload-control subsystem was
// active (admission gating, shedding, or rebuild).
func (m Metrics) OverloadSeen() bool {
	return m.AdmLimit > 0 || m.Sheds > 0 || m.DegradedBlocks > 0 ||
		m.RebuiltBlocks > 0 || m.StaleNacks > 0 || m.RebuildWindows > 0
}

// WorkloadSeen reports whether a workload scenario drove the run.
func (m Metrics) WorkloadSeen() bool { return len(m.PhaseStats) > 0 }

// CacheSeen reports whether the prefix-cache tier saw any activity.
func (m Metrics) CacheSeen() bool {
	return m.CacheHits > 0 || m.CacheMisses > 0 || m.CacheInserts > 0 ||
		m.Merges > 0 || m.MergedBlocks > 0
}
