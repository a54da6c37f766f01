// Rate-limited mirror rebuild. When a disk repairs after a fail-stop
// its contents are stale: every block copy it held was frozen at the
// failure and may have been superseded (in a real system the drive is
// replaced outright). With RebuildRate > 0 the rebuilder models this
// window of vulnerability explicitly — repaired copies NACK demand
// reads until a background pass has re-copied them from their healthy
// mirror, paced at the configured byte rate and issued through the
// non-real-time queue class so real-time traffic keeps priority.
package overload

import (
	"spiffi/internal/layout"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// blockRef names one copy of one block.
type blockRef struct{ v, b, c int }

// RebuildStats aggregates rebuild progress for core.Metrics.
type RebuildStats struct {
	Windows   int64        // completed rebuilds (closed redundancy windows)
	WindowSum sim.Duration // total window of vulnerability (downtime + rebuild)
	WindowMax sim.Duration
	Rebuilt   int64 // block copies re-copied
	Aborts    int64 // rebuild passes cut short by the disk re-failing
}

// IOFunc performs one rebuild transfer (a mirror read or a
// reconstruction write) on a disk and reports success. Wired by core
// to Node.RebuildIO; it blocks the calling proc for the disk service
// time and fails when the disk is down.
type IOFunc func(p *sim.Proc, diskGlobal int, offset, size int64) bool

// Rebuilder tracks stale block copies and runs one paced rebuild pass
// per disk repair. Deterministic: block enumeration is in (video,
// block, copy) order and pacing is pure arithmetic.
type Rebuilder struct {
	k     *sim.Kernel
	place *layout.Placement
	rate  int64 // bytes per second
	io    IOFunc
	rec   *trace.Recorder

	stale map[blockRef]bool
	epoch []uint64 // per disk; bumped each repair so superseded passes exit
	stats RebuildStats
}

// NewRebuilder builds a rebuilder over the placement's disks.
func NewRebuilder(k *sim.Kernel, place *layout.Placement, rate int64, io IOFunc) *Rebuilder {
	return &Rebuilder{
		k:     k,
		place: place,
		rate:  rate,
		io:    io,
		stale: make(map[blockRef]bool),
		epoch: make([]uint64, place.TotalDisks()),
	}
}

// SetTrace wires the event recorder (nil is fine).
func (r *Rebuilder) SetTrace(rec *trace.Recorder) { r.rec = rec }

// IsStale reports whether a block copy is awaiting rebuild. The
// server NACKs demand reads of stale copies (unless buffered), which
// the terminals' retry machinery fails over to the healthy mirror.
func (r *Rebuilder) IsStale(video, block, copy int) bool {
	return r.stale[blockRef{video, block, copy}]
}

// Stats returns the rebuild counters.
func (r *Rebuilder) Stats() RebuildStats { return r.stats }

// OnRepair marks every block copy resident on the repaired disk stale
// and spawns the paced rebuild pass. Wired to disk.SetRepairHook;
// downtime is the outage the window of vulnerability started with. A
// repeat failure mid-rebuild bumps the epoch, aborting the old pass —
// the next repair restarts over the full (re-marked) set.
func (r *Rebuilder) OnRepair(diskGlobal int, downtime sim.Duration) {
	r.epoch[diskGlobal]++
	e := r.epoch[diskGlobal]
	refs := r.enumerate(diskGlobal)
	for _, ref := range refs {
		r.stale[ref] = true
	}
	r.rec.RebuildStart(diskGlobal, len(refs))
	start := r.k.Now()
	r.k.Spawn("rebuild", func(p *sim.Proc) {
		r.run(p, diskGlobal, e, refs, downtime, start)
	})
}

// enumerate lists the block copies stored on one disk in deterministic
// (video, block, copy) order.
func (r *Rebuilder) enumerate(diskGlobal int) []blockRef {
	var refs []blockRef
	for v := 0; v < r.place.NumVideos(); v++ {
		for b := 0; b < r.place.NumBlocks(v); b++ {
			for c := 0; c < r.place.Replicas(); c++ {
				if r.place.LocateCopy(v, b, c).DiskGlobal == diskGlobal {
					refs = append(refs, blockRef{v, b, c})
				}
			}
		}
	}
	return refs
}

func (r *Rebuilder) run(p *sim.Proc, diskGlobal int, epoch uint64, refs []blockRef, downtime sim.Duration, start sim.Time) {
	rebuilt := 0
	for _, ref := range refs {
		target := r.place.LocateCopy(ref.v, ref.b, ref.c)
		// The pacing sleep is the rate limit; the disk I/O time rides
		// on top, so the configured rate is an upper bound.
		p.Sleep(sim.DurationOfSeconds(float64(target.Size) / float64(r.rate)))
		if r.epoch[diskGlobal] != epoch {
			return // superseded by a later repair
		}
		srcRef := blockRef{ref.v, ref.b, (ref.c + 1) % r.place.Replicas()}
		src := r.place.LocateCopy(srcRef.v, srcRef.b, srcRef.c)
		for r.stale[srcRef] || !r.io(p, src.DiskGlobal, src.Offset, src.Size) {
			// Mirror source unusable: stale from an overlapping rebuild
			// (copying it would spread frozen data and report the window
			// closed over real loss) or its disk is down. Wait for it to
			// become clean and readable; if both copies of a block are
			// stale — overlapping failures of a mirror pair — the data is
			// genuinely gone, the pass parks here and the window stays
			// open, so demand reads keep NACKing and the loss shows up in
			// StaleNacks/LostBlocks instead of being papered over.
			p.Sleep(sim.Second)
			if r.epoch[diskGlobal] != epoch {
				return
			}
		}
		if r.epoch[diskGlobal] != epoch {
			return
		}
		if !r.io(p, diskGlobal, target.Offset, target.Size) {
			// Target re-failed mid-pass; the next repair starts over.
			r.stats.Aborts++
			return
		}
		if r.epoch[diskGlobal] != epoch {
			return
		}
		delete(r.stale, ref)
		rebuilt++
		r.stats.Rebuilt++
	}
	window := downtime + r.k.Now().Sub(start)
	r.stats.Windows++
	r.stats.WindowSum += window
	if window > r.stats.WindowMax {
		r.stats.WindowMax = window
	}
	r.rec.RebuildDone(diskGlobal, rebuilt, window)
}
