package core

import (
	"spiffi/internal/admission"
	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/cpu"
	"spiffi/internal/disk"
	"spiffi/internal/faults"
	"spiffi/internal/layout"
	"spiffi/internal/mpeg"
	"spiffi/internal/network"
	"spiffi/internal/overload"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/server"
	"spiffi/internal/sim"
	"spiffi/internal/stats"
	"spiffi/internal/terminal"
	"spiffi/internal/trace"
	"spiffi/internal/workload"
)

// Simulation is one assembled run of the SPIFFI system.
type Simulation struct {
	cfg   Config
	k     *sim.Kernel
	lib   *mpeg.Library
	place *layout.Placement
	net   *network.Network
	nodes []*server.Node
	terms []*terminal.Terminal
	piggy *piggyCoordinator
	rec   *trace.Recorder // nil unless cfg.Trace.Enabled

	// deliver holds each node's DeliverRequest, bound once so sending a
	// request allocates no method value.
	deliver []func(*proto.BlockRequest)

	// Prefix-cache tier (CACHING.md); both nil unless cfg.Cache is
	// enabled.
	caches []*cache.Cache // one per node
	merge  *mergeCoordinator

	// Overload-control subsystem; all nil unless cfg.Overload asks for
	// the corresponding mechanism.
	adm  *admission.Controller
	over *overload.Controller
	reb  *overload.Rebuilder

	// health is the shared node-suspicion tracker; nil unless failover
	// timeouts are configured (SuspectThreshold > 0).
	health *terminal.NodeHealth

	// Workload scenario (WORKLOADS.md); wl is nil-safe and disabled
	// unless cfg.Workload has phases. phaseStats accumulates the
	// per-phase degradation surface; phaseOpen is the reading at the
	// open segment's start.
	wl         *workload.Schedule
	phaseStats []PhaseMetrics
	phaseOpen  reading

	startedCount int
	measuring    bool
	measureStart sim.Time
	// open is the reading taken as the measurement window opened; Run
	// folds the window as the difference from it.
	open reading

	// respHist observes every measured block round trip, at millisecond
	// base resolution over 20 power-of-two buckets (1 ms .. ~17 minutes).
	respHist *stats.Histogram
}

// rejoinWarmup is how long, with Failover set, the overload controller
// holds the adaptive admission limit down after a crashed node restarts,
// so the rejoining node is not instantly re-saturated.
const rejoinWarmup = 30 * sim.Second

// NewSimulation validates, normalizes and assembles a simulation.
func NewSimulation(cfg Config) (*Simulation, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:      cfg,
		k:        sim.NewKernel(),
		respHist: stats.NewHistogram(0.001, 20),
	}
	// nil when tracing is off; every emit below is a nil-safe no-op then.
	s.rec = trace.NewRecorder(s.k, cfg.Trace)
	root := rng.New(cfg.Seed)

	// Video library: content depends only on LibrarySeed, so every run
	// of a sweep replays the identical catalog (§6.1) and the generated
	// frame tables are shared process-wide.
	s.lib = mpeg.SharedLibrary(cfg.Video, cfg.NumVideos(), cfg.LibrarySeed)
	sizes := make([]int64, cfg.NumVideos())
	for i := range sizes {
		sizes[i] = s.lib.Get(i).TotalBytes()
	}
	if cfg.Striped {
		s.place = layout.NewStriped(sizes, cfg.StripeBytes, cfg.Nodes, cfg.DisksPerNode)
	} else {
		s.place = layout.NewNonStriped(sizes, cfg.StripeBytes, cfg.Nodes, cfg.DisksPerNode,
			root.Derive("placement"))
	}
	if cfg.ReplicateVideos {
		if cfg.MirrorCrossNode {
			s.place.MirrorWith(layout.MirrorCrossNode)
		} else {
			s.place.Mirror()
		}
	}

	s.net = network.New(s.k, network.DefaultParams())
	s.net.SetTrace(s.rec)

	nodeCfg := server.Config{
		PoolPages:   cfg.PoolPagesPerNode(),
		Replacement: cfg.Replacement,
		Sched:       cfg.Sched,
		Prefetch:    cfg.Prefetch,
		MIPS:        cpu.PaperMIPS,
		CPUCosts:    cpu.DefaultCosts(),
		DiskParams:  cfg.DiskParams,
	}
	if cfg.ZonedDisks {
		zp := disk.DefaultZonedParams()
		zp.Params = cfg.DiskParams
		nodeCfg.ZonedDisks = &zp
	}
	s.nodes = make([]*server.Node, cfg.Nodes)
	s.deliver = make([]func(*proto.BlockRequest), cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		srcs := make([]*rng.Source, cfg.DisksPerNode)
		for d := range srcs {
			srcs[d] = root.DeriveIndexed("disk", n*cfg.DisksPerNode+d)
		}
		s.nodes[n] = server.New(s.k, n, nodeCfg, s.net, s.place, srcs, cfg.StripePlayTime())
		s.deliver[n] = s.nodes[n].DeliverRequest
		s.nodes[n].SetTrace(s.rec)
		s.nodes[n].Pool().SetTrace(s.rec, n)
		for _, d := range s.nodes[n].Disks() {
			d.SetTrace(s.rec)
		}
	}
	if cfg.Cache.Enabled() {
		s.caches = make([]*cache.Cache, cfg.Nodes)
		perNode := cfg.Cache.BudgetBytes / int64(cfg.Nodes)
		for n := range s.nodes {
			s.caches[n] = cache.New(cfg.Cache, perNode, cfg.NumVideos())
			s.caches[n].SetTrace(s.rec, n)
			s.nodes[n].SetCache(s.caches[n])
		}
	}

	if cfg.Faults.Enabled() {
		// The fault plan is drawn from derived streams and scheduled up
		// front, so a run with a given (seed, fault config) is exactly
		// reproducible and the fault-free streams are untouched.
		horizon := sim.Time(0).Add(cfg.StartWindow).Add(cfg.StartupGrace).Add(cfg.MeasureTime)
		s.applyFaultPlan(faults.NewPlan(cfg.Faults, cfg.Nodes, cfg.DisksPerNode, horizon, root))
		if hook := faults.NewNetModel(cfg.Faults, root); hook != nil {
			s.net.SetHook(hook)
		}
	}

	if cfg.SuspectThreshold > 0 && cfg.RequestTimeout > 0 {
		s.health = terminal.NewNodeHealth(s.k, cfg.Nodes, cfg.SuspectThreshold)
		s.health.SetTrace(s.rec)
	}

	ov := cfg.Overload
	if ov.AdmitLimit > 0 {
		s.adm = admission.NewController(s.k, ov.AdmitLimit)
		s.adm.SetPatience(ov.Patience)
		s.adm.SetTrace(s.rec)
		if ov.Adaptive || ov.Shed {
			s.over = overload.NewController(s.k, ov, cfg.TotalDisks(), cfg.StripePlayTime())
			s.over.SetLimiter(s.adm)
			s.over.SetTrace(s.rec)
			if cfg.Failover {
				s.over.SetRejoinWarmup(rejoinWarmup)
			}
			for g := 0; g < cfg.TotalDisks(); g++ {
				g := g
				s.diskByGlobal(g).SetObserver(func(slack sim.Duration, qlen int) {
					s.over.ObserveDispatch(g, slack, qlen)
				})
			}
		}
	}
	if ov.RebuildRate > 0 {
		s.reb = overload.NewRebuilder(s.k, s.place, ov.RebuildRate,
			func(p *sim.Proc, g int, offset, size int64) bool {
				return s.nodes[g/cfg.DisksPerNode].RebuildIO(p, g%cfg.DisksPerNode, offset, size)
			})
		s.reb.SetTrace(s.rec)
		for _, n := range s.nodes {
			n.SetStaleCheck(s.reb.IsStale)
		}
		for g := 0; g < cfg.TotalDisks(); g++ {
			g := g
			s.diskByGlobal(g).SetRepairHook(func(downtime sim.Duration) {
				s.reb.OnRepair(g, downtime)
			})
		}
	}

	if s.health != nil || s.over != nil {
		// A restarted node clears its suspicion directly (redirected
		// terminals stop sending it requests, so they would never observe
		// the OK that normally clears it) and opens the overload
		// controller's rejoin warm-up window.
		for n, nd := range s.nodes {
			n, nd := n, nd
			nd.SetRestartHook(func(downtime sim.Duration) {
				s.health.NoteRestart(n, downtime)
				if s.over != nil {
					s.over.NoteRejoin()
				}
			})
		}
	}

	if cfg.PiggybackDelay > 0 {
		s.piggy = newPiggyCoordinator(s.k, cfg.PiggybackDelay)
	}
	if cfg.Cache.Enabled() {
		s.merge = newMergeCoordinator(
			cfg.Cache.PrefixBlocks,
			cfg.TerminalMemBytes, s.place.BlockSize(),
			s.place.NumBlocks,
			s.place.SizeOfBlock,
			s.cachedPrefix,
			s.forwardMerged,
			s.rec,
		)
	}

	if cfg.Workload.Enabled() {
		// Compiled once from a dedicated derived stream: the churn draws
		// never touch the base streams, so enabling a workload cannot
		// perturb placement, disks or terminal randomness elsewhere.
		s.wl = workload.Compile(cfg.Workload, cfg.NumVideos(), cfg.ZipfZ,
			root.Derive("workload"))
	}

	zipf := rng.NewZipf(cfg.NumVideos(), cfg.ZipfZ)
	costs := cpu.DefaultCosts()
	instr := func(n int64) sim.Duration {
		return sim.DurationOfSeconds(float64(n) / (cpu.PaperMIPS * 1e6))
	}
	tcfg := terminal.Config{
		MemBytes:              cfg.TerminalMemBytes,
		SendLatency:           instr(costs.Send),
		RecvLatency:           instr(costs.Receive),
		Pause:                 cfg.Pause,
		VCR:                   cfg.VCR,
		RandomInitialPosition: cfg.RandomInitialPosition,
		RequestTimeout:        cfg.RequestTimeout,
		MaxRetries:            cfg.MaxRetries,
		RetryBackoff:          cfg.RetryBackoff,
		OnRespTime: func(d sim.Duration) {
			if s.measuring {
				s.respHist.Add(d.Seconds())
			}
		},
	}
	tcfg.Failover = cfg.Failover
	tcfg.Health = s.health // nil is fine: every method is a nil-safe no-op
	if s.adm != nil {
		// Assigned only when non-nil: a typed-nil *Controller in the
		// interface field would pass the != nil checks in the terminal.
		tcfg.Admission = s.adm
	}
	if s.piggy != nil {
		tcfg.Gate = s.piggy
	}
	if s.merge != nil {
		// Assigned only when non-nil (same typed-nil caution as
		// Admission above).
		tcfg.Merger = s.merge
	}
	startSrc := root.Derive("starts")
	s.terms = make([]*terminal.Terminal, cfg.Terminals)
	for i := 0; i < cfg.Terminals; i++ {
		tsrc := root.DeriveIndexed("terminal", i)
		tc := tcfg
		selectVideo := func() int { return zipf.Draw(tsrc) }
		if s.wl.Enabled() {
			// Workload-driven behavior draws from a dedicated per-terminal
			// stream, leaving tsrc's consumption pattern (and with it every
			// workload-free run) untouched.
			wsrc := root.DeriveIndexed("workload", i)
			selectVideo = func() int { return s.wl.SelectVideo(s.k.Now(), wsrc) }
			tc.Think = func() sim.Duration { return s.wl.ThinkTime(s.k.Now(), wsrc) }
			tc.SeekBoost = func() float64 { return s.wl.SeekBoost(s.k.Now()) }
		}
		t := terminal.New(
			s.k, i, tc, s.lib, s.place, tsrc,
			s.sendRequest,
			selectVideo,
			func() bool { return s.measuring },
			s.onTerminalStarted,
		)
		s.terms[i] = t
		t.SetTrace(s.rec)
		t.Start(sim.Duration(startSrc.Float64() * float64(cfg.StartWindow)))
	}
	if s.over != nil {
		streams := make([]overload.Stream, len(s.terms))
		for i, t := range s.terms {
			streams[i] = t
		}
		s.over.SetStreams(streams, ov.ProtectedCount(cfg.Terminals))
	}
	if s.wl.Enabled() {
		// One kernel event per phase entry over the run's whole horizon:
		// it closes the previous accounting segment with a fresh reading
		// of the counters and announces the phase on the trace.
		horizon := cfg.StartWindow + cfg.StartupGrace + cfg.MeasureTime
		for _, b := range s.wl.Boundaries(horizon) {
			b := b
			s.k.At(b.At, func() { s.enterPhase(b) })
		}
	}
	return s, nil
}

// reading is one snapshot of the component counters. Components count
// lifetime totals; the measurement window and each workload phase
// segment are the field-wise difference of two readings.
type reading struct {
	terms    []terminal.Stats
	nodes    []server.Stats
	pools    []bufferpool.Stats
	cpuBusy  []sim.Duration
	disks    []disk.Stats   // by global disk index
	diskBusy []sim.Duration // by global disk index

	sheds, admRejected     int64
	cacheHits, cacheMisses int64
}

// read takes a reading of every component counter.
func (s *Simulation) read() reading {
	r := reading{
		terms:    make([]terminal.Stats, len(s.terms)),
		nodes:    make([]server.Stats, len(s.nodes)),
		pools:    make([]bufferpool.Stats, len(s.nodes)),
		cpuBusy:  make([]sim.Duration, len(s.nodes)),
		disks:    make([]disk.Stats, 0, s.cfg.TotalDisks()),
		diskBusy: make([]sim.Duration, 0, s.cfg.TotalDisks()),
	}
	for i, t := range s.terms {
		r.terms[i] = t.Stats()
	}
	for i, n := range s.nodes {
		r.nodes[i] = n.Stats()
		r.pools[i] = n.Pool().Stats()
		r.cpuBusy[i] = n.CPU().BusyTime()
		for _, d := range n.Disks() {
			r.disks = append(r.disks, d.Stats())
			r.diskBusy = append(r.diskBusy, d.BusyTime())
		}
	}
	if s.over != nil {
		r.sheds = s.over.Stats().Sheds
	}
	if s.adm != nil {
		r.admRejected = s.adm.Rejected
	}
	for _, c := range s.caches {
		cs := c.Stats()
		r.cacheHits += cs.Hits
		r.cacheMisses += cs.Misses
	}
	return r
}

// enterPhase runs (in simulation context) at each phase boundary.
func (s *Simulation) enterPhase(b workload.Boundary) {
	s.closePhaseSegment(s.read())
	s.phaseStats = append(s.phaseStats, PhaseMetrics{
		Name:  b.Phase.Name,
		Index: b.Index,
		Cycle: b.Cycle,
		Start: s.k.Now(),
		Load:  b.Phase.Load,
	})
	promote := int64(-1)
	if b.Phase.Promote {
		promote = int64(b.Phase.PromoteVideo)
	}
	s.rec.WlPhase(b.Index, b.Cycle, int64(b.Phase.Load*1000), promote)
}

// closePhaseSegment finalizes the open phase segment (if any) as the
// difference between cur and the reading at its start.
func (s *Simulation) closePhaseSegment(cur reading) {
	if n := len(s.phaseStats); n > 0 {
		ps, prev := &s.phaseStats[n-1], s.phaseOpen
		ps.End = s.k.Now()
		for i := range cur.terms {
			c, p := &cur.terms[i], &prev.terms[i]
			ps.Glitches += c.Glitches - p.Glitches
			ps.GlitchesUnderrun += c.GlitchesUnderrun - p.GlitchesUnderrun
			ps.GlitchesDiskFail += c.GlitchesDiskFail - p.GlitchesDiskFail
			ps.GlitchesTimeout += c.GlitchesTimeout - p.GlitchesTimeout
			ps.MoviesStarted += c.MoviesStarted - p.MoviesStarted
		}
		ps.Sheds = cur.sheds - prev.sheds
		ps.AdmRejected = cur.admRejected - prev.admRejected
		ps.CacheHits = cur.cacheHits - prev.cacheHits
		ps.CacheMisses = cur.cacheMisses - prev.cacheMisses
	}
	s.phaseOpen = cur
}

// sendRequest routes a terminal's block request over the network to the
// owning node; the request itself rides the wire.
func (s *Simulation) sendRequest(node int, req *proto.BlockRequest) {
	s.net.SendAction(proto.RequestHeaderBytes, req.Via(s.deliver[node]))
}

// cachedPrefix reports whether blocks [0, upto) of video are all
// resident in their owning nodes' prefix caches — the merge
// coordinator's join feasibility check (the follower's catch-up gap
// must be servable without disk I/O).
func (s *Simulation) cachedPrefix(video, upto int) bool {
	for b := 0; b < upto; b++ {
		if !s.caches[s.place.Locate(video, b).Node].Contains(video, b) {
			return false
		}
	}
	return true
}

// forwardMerged ships one block of a merged stream to a follower. The
// transfer is metered on the interconnect like any reply; no server CPU
// is charged — the read was already served once for the leader, and the
// forward models the multicast fan-out of that same buffer.
func (s *Simulation) forwardMerged(fol *terminal.Terminal, video, block int, size int64) {
	s.net.Send(size+proto.ReplyHeaderBytes, func() { fol.DeliverMerged(video, block, size) })
}

// onTerminalStarted is invoked (in simulation context) the first time
// each terminal begins display; once all have, the measurement window
// opens (§6): the component counters are read, and Run reports the
// window as the difference from this reading.
func (s *Simulation) onTerminalStarted() {
	s.startedCount++
	if s.startedCount < s.cfg.Terminals {
		return
	}
	s.measuring = true
	s.measureStart = s.k.Now()
	s.net.ResetStats()
	s.open = s.read()
	if s.over != nil {
		// The estimator starts with the measurement window: warm-up
		// slack (every stream priming at once) would read as overload.
		s.over.Start()
	}
}

// Run executes the simulation and collects metrics. The kernel is closed
// before returning; a Simulation runs once.
func (s *Simulation) Run() (Metrics, error) {
	defer s.k.Close()
	m := Metrics{Terminals: s.cfg.Terminals}

	// Phase 1: wait (in chunks) for every terminal to begin viewing.
	startDeadline := sim.Time(0).Add(s.cfg.StartWindow).Add(s.cfg.StartupGrace)
	for !s.measuring && s.k.Now() < startDeadline {
		if err := s.k.Run(s.k.Now().Add(sim.Second)); err != nil {
			return m, err
		}
	}
	if !s.measuring {
		// Startup never completed: hopeless overload. Report a failing,
		// unstarted run rather than simulating forever.
		m.Started = false
		m.Glitches = -1
		return m, nil
	}

	// Phase 2: the measured window.
	end := s.measureStart.Add(s.cfg.MeasureTime)
	if err := s.k.Run(end); err != nil {
		return m, err
	}

	m.Started = true
	m.MeasureStart = s.measureStart
	m.MeasureEnd = s.k.Now()
	m.Events = s.k.Events()

	// Sessions still impacted when the window closes count as lost.
	for _, t := range s.terms {
		t.CloseSessionAccounting()
	}
	now, open := s.read(), s.open
	s.open = reading{}
	if s.wl.Enabled() {
		s.closePhaseSegment(now)
		s.phaseOpen = reading{}
		m.PhaseStats = s.phaseStats
	}

	// The fold: a window-scoped field adds now - open, a field reported
	// over the whole run adds now. The window maxima are recorded by the
	// components only while measuring.
	var seekLatSum, recoverySum, failoverLatSum sim.Duration
	var respWeight int64
	m.ProtectedTerminals = s.cfg.Overload.ProtectedCount(s.cfg.Terminals)
	for i := range now.terms {
		st, o := &now.terms[i], &open.terms[i]
		glitches := st.Glitches - o.Glitches
		m.Glitches += glitches
		if glitches > 0 {
			m.GlitchTerminals++
		}
		if i < m.ProtectedTerminals {
			m.GlitchesProtected += glitches
			m.DegradedBlocksProtected += st.DegradedBlocks - o.DegradedBlocks
		}
		m.DegradedBlocks += st.DegradedBlocks - o.DegradedBlocks
		m.DegradedFrames += st.DegradedFrames - o.DegradedFrames
		m.MoviesCompleted += st.MoviesCompleted - o.MoviesCompleted
		m.Seeks += st.Seeks - o.Seeks
		m.SkimBlocks += st.SkimBlocks - o.SkimBlocks
		m.StaleDrops += st.StaleDrops - o.StaleDrops
		seekLatSum += st.SeekRePrimeSum - o.SeekRePrimeSum
		m.SeekRePrimeMax = max(m.SeekRePrimeMax, st.SeekRePrimeMax)
		m.GlitchesUnderrun += st.GlitchesUnderrun - o.GlitchesUnderrun
		m.GlitchesDiskFail += st.GlitchesDiskFail - o.GlitchesDiskFail
		m.GlitchesTimeout += st.GlitchesTimeout - o.GlitchesTimeout
		m.Nacks += st.Nacks - o.Nacks
		m.Retries += st.Retries - o.Retries
		m.Timeouts += st.Timeouts - o.Timeouts
		m.LostBlocks += st.LostBlocks - o.LostBlocks
		m.Recoveries += st.Recoveries - o.Recoveries
		recoverySum += st.RecoverySum - o.RecoverySum
		m.MTTRMax = max(m.MTTRMax, st.RecoveryMax)
		m.SessionsImpacted += st.SessionsImpacted
		m.SessionsRecovered += st.SessionsRecovered
		m.SessionsLost += st.SessionsLost
		m.FailoverRedirects += st.FailoverRedirects
		m.FailoverReadmits += st.FailoverReadmits
		failoverLatSum += st.FailoverLatSum
		m.FailoverLatMax = max(m.FailoverLatMax, st.FailoverLatMax)
		m.MergeDetaches += st.MergeDetaches
		// RespTimeAvg is a running weighted average updated once per
		// terminal, in terminal order; the order fixes its rounding.
		if blocks := st.BlocksReceived - o.BlocksReceived; blocks > 0 {
			m.BlocksServed += blocks
			total := m.RespTimeAvg*sim.Duration(respWeight) + st.RespTimeSum - o.RespTimeSum
			respWeight += blocks
			m.RespTimeAvg = total / sim.Duration(respWeight)
		}
		m.RespTimeMax = max(m.RespTimeMax, st.RespTimeMax)
	}
	if m.Seeks > 0 {
		m.SeekRePrimeAvg = seekLatSum / sim.Duration(m.Seeks)
	}
	if m.Recoveries > 0 {
		m.MTTRAvg = recoverySum / sim.Duration(m.Recoveries)
	}
	if m.SessionsRecovered > 0 {
		m.FailoverLatAvg = failoverLatSum / sim.Duration(m.SessionsRecovered)
	}
	m.NodeSuspects = s.health.Suspects()
	m.NodeRejoins = s.health.Rejoins()

	if s.adm != nil {
		m.Admitted = s.adm.Admitted
		m.AdmWaited = s.adm.Waited
		m.AdmRejected = s.adm.Rejected
		m.FailoverAdmitted = s.adm.FailoverAdmitted
		m.FailoverRejected = s.adm.FailoverRejected
		if s.adm.Waited > 0 {
			m.AdmWaitAvg = s.adm.WaitSum / sim.Duration(s.adm.Waited)
		}
		m.AdmLimit = s.cfg.Overload.AdmitLimit
		m.AdmLimitMin = s.adm.Limit()
	}
	if s.over != nil {
		os := s.over.Stats()
		m.Sheds = os.Sheds
		m.Restores = os.Restores
		m.ShedPeak = os.ShedPeak
		m.AdmLimitMin = os.LimitMin
	}
	if s.reb != nil {
		rs := s.reb.Stats()
		m.RebuildWindows = rs.Windows
		if rs.Windows > 0 {
			m.RebuildWindowAvg = rs.WindowSum / sim.Duration(rs.Windows)
		}
		m.RebuildWindowMax = rs.WindowMax
		m.RebuiltBlocks = rs.Rebuilt
	}

	window := float64(m.MeasureEnd.Sub(m.MeasureStart))
	for i := range now.nodes {
		ns, on := &now.nodes[i], &open.nodes[i]
		m.Nodes.Requests += ns.Requests - on.Requests
		m.Nodes.Prefetches += ns.Prefetches - on.Prefetches
		m.Nodes.DeadlineUps += ns.DeadlineUps - on.DeadlineUps
		m.Nodes.Nacks += ns.Nacks - on.Nacks
		m.Nodes.Dropped += ns.Dropped - on.Dropped
		m.Nodes.DroppedReqs += ns.DroppedReqs - on.DroppedReqs
		m.Nodes.DroppedReplies += ns.DroppedReplies - on.DroppedReplies
		m.Nodes.Crashes += ns.Crashes - on.Crashes
		m.Nodes.StaleNacks += ns.StaleNacks - on.StaleNacks
		m.StaleNacks += ns.StaleNacks - on.StaleNacks
		ps, op := &now.pools[i], &open.pools[i]
		m.Pool.DemandRefs += ps.DemandRefs - op.DemandRefs
		m.Pool.DemandHits += ps.DemandHits - op.DemandHits
		m.Pool.InFlightHits += ps.InFlightHits - op.InFlightHits
		m.Pool.Misses += ps.Misses - op.Misses
		m.Pool.SharedRefs += ps.SharedRefs - op.SharedRefs
		m.Pool.PrefetchSkip += ps.PrefetchSkip - op.PrefetchSkip
		m.Pool.Evictions += ps.Evictions - op.Evictions
		m.Pool.AllocWaits += ps.AllocWaits - op.AllocWaits
		m.Pool.FetchFails += ps.FetchFails - op.FetchFails
		cu := float64(now.cpuBusy[i]-open.cpuBusy[i]) / window
		m.CPUUtilAvg += cu
		m.CPUUtilMax = max(m.CPUUtilMax, cu)
	}
	m.DiskUtilMin = 2
	for g := range now.disks {
		du := float64(now.diskBusy[g]-open.diskBusy[g]) / window
		m.DiskUtilAvg += du
		m.DiskUtilMin = min(m.DiskUtilMin, du)
		m.DiskUtilMax = max(m.DiskUtilMax, du)
		ds, od := &now.disks[g], &open.disks[g]
		m.DiskFailStops += ds.FailStops - od.FailStops
		m.DiskAbandoned += ds.Abandoned - od.Abandoned
		m.DiskRejects += ds.Rejects - od.Rejects
		m.DiskDownTime += ds.DownTime - od.DownTime
		m.RebuildIOs += ds.RebuildOps - od.RebuildOps
		m.DiskReads += ds.Served - od.Served
	}
	for _, c := range s.caches {
		cs := c.Stats()
		m.CacheHits += cs.Hits
		m.CacheMisses += cs.Misses
		m.CacheInserts += cs.Inserts
		m.CacheEvictions += cs.Evictions
	}
	if s.merge != nil {
		m.Merges = s.merge.Merges
		m.MergedBlocks = s.merge.MergedBlocks
	}
	m.CPUUtilAvg /= float64(len(s.nodes))
	m.DiskUtilAvg /= float64(s.cfg.TotalDisks())
	if m.DiskUtilMin > 1 {
		m.DiskUtilMin = 0
	}
	m.PeakNetBandwidth = s.net.PeakAggregateBandwidth()
	m.NetTotalBytes = s.net.TotalBytes()
	m.NetDropped = s.net.Dropped()
	m.RespTimeP50 = sim.DurationOfSeconds(s.respHist.Quantile(0.50))
	m.RespTimeP99 = sim.DurationOfSeconds(s.respHist.Quantile(0.99))
	m.Trace = s.rec.Snapshot()
	return m, nil
}

// Run builds and runs a configuration in one call.
func Run(cfg Config) (Metrics, error) {
	s, err := NewSimulation(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return s.Run()
}

// applyFaultPlan schedules every planned fault as a kernel event.
func (s *Simulation) applyFaultPlan(plan []faults.Event) {
	for _, ev := range plan {
		switch ev.Kind {
		case faults.KindDiskSlow:
			s.ScheduleDiskFault(ev.Index, ev.At, ev.Factor, ev.Duration)
		case faults.KindDiskFail:
			s.ScheduleDiskFailStop(ev.Index, ev.At, ev.Duration)
		case faults.KindNodeCrash:
			s.ScheduleNodeCrash(ev.Index, ev.At, ev.Duration)
		}
	}
}

// diskByGlobal resolves a server-wide disk index.
func (s *Simulation) diskByGlobal(g int) *disk.Disk {
	return s.nodes[g/s.cfg.DisksPerNode].Disks()[g%s.cfg.DisksPerNode]
}

// ScheduleDiskFailStop arranges (before Run) for one disk to fail-stop at
// absolute simulated time `at`, repaired after `repair` (<= 0: never).
func (s *Simulation) ScheduleDiskFailStop(diskGlobal int, at sim.Time, repair sim.Duration) {
	d := s.diskByGlobal(diskGlobal)
	s.k.At(at, func() { d.Fail(repair) })
}

// ScheduleNodeCrash arranges (before Run) for one node to crash at
// absolute simulated time `at`, restarting after `restart` (<= 0: never).
func (s *Simulation) ScheduleNodeCrash(node int, at sim.Time, restart sim.Duration) {
	n := s.nodes[node]
	s.k.At(at, func() { n.Crash(restart) })
}

// ScheduleDiskFault arranges (before Run) for one disk to degrade by
// `factor` for `duration`, starting at absolute simulated time `at`.
// Failure-injection tests use it to verify that the closed-loop system
// glitches under degradation and restabilizes afterwards.
func (s *Simulation) ScheduleDiskFault(diskGlobal int, at sim.Time, factor float64, duration sim.Duration) {
	d := s.diskByGlobal(diskGlobal)
	s.k.At(at, func() { d.InjectFault(factor, duration) })
}

// Terminals exposes the simulation's terminals so invariant tests (the
// chaos soak) can audit per-terminal state after a run.
func (s *Simulation) Terminals() []*terminal.Terminal { return s.terms }

// Admission exposes the admission controller (nil when ungated), for the
// same audits: slot conservation against the terminals holding slots.
func (s *Simulation) Admission() *admission.Controller { return s.adm }

// PiggybackStats reports (batches, riders) after a piggybacked run.
func (s *Simulation) PiggybackStats() (batches, riders int64) {
	if s.piggy == nil {
		return 0, 0
	}
	return s.piggy.Batches, s.piggy.Riders
}
