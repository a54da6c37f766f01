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

// IOFunc starts one rebuild transfer (a mirror read or a reconstruction
// write) on a disk and calls done with its success: at the end of the
// disk service, or at once when the disk is down. Wired by core to
// Node.RebuildIO.
type IOFunc func(diskGlobal int, offset, size int64, done func(ok bool))

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
// and schedules the paced rebuild pass. Wired to disk.SetRepairHook;
// downtime is the outage the window of vulnerability started with. A
// repeat failure mid-rebuild bumps the epoch, aborting the old pass —
// the next repair restarts over the full (re-marked) set.
func (r *Rebuilder) OnRepair(diskGlobal int, downtime sim.Duration) {
	r.epoch[diskGlobal]++
	refs := r.enumerate(diskGlobal)
	for _, ref := range refs {
		r.stale[ref] = true
	}
	r.rec.RebuildStart(diskGlobal, len(refs))
	p := &pass{r: r, disk: diskGlobal, epoch: r.epoch[diskGlobal], refs: refs, downtime: downtime, start: r.k.Now()}
	p.sourceRead, p.targetWritten = p.copyToTarget, p.finishCopy
	r.k.Schedule(r.k.Now(), p)
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

// pass is one paced rebuild of a repaired disk's block copies, in refs
// order: for each copy it sleeps the pacing time, reads the mirror
// source, then writes the target. It is the Action of its own sleeps;
// the two transfers resume it through sourceRead and targetWritten.
type pass struct {
	r        *Rebuilder
	disk     int    // the repaired disk, global index
	epoch    uint64 // r.epoch[disk] when the pass began
	refs     []blockRef
	next     int  // index in refs of the copy being rebuilt
	started  bool // the pass has paced its first copy
	rebuilt  int
	downtime sim.Duration
	start    sim.Time

	sourceRead, targetWritten func(ok bool) // copyToTarget and finishCopy, bound once
}

// Fire starts the pass, then resumes it after each pacing or retry
// sleep by reading the current copy's source.
func (p *pass) Fire() {
	if !p.started {
		p.started = true
		p.pace()
		return
	}
	if p.r.epoch[p.disk] != p.epoch {
		return // superseded by a later repair
	}
	p.readSource()
}

// pace sleeps the rate-limit time of the next copy, or closes the
// window once every copy is rebuilt. The disk I/O time rides on top of
// the pacing, so the configured rate is an upper bound.
func (p *pass) pace() {
	r := p.r
	if p.next == len(p.refs) {
		window := p.downtime + r.k.Now().Sub(p.start)
		r.stats.Windows++
		r.stats.WindowSum += window
		if window > r.stats.WindowMax {
			r.stats.WindowMax = window
		}
		r.rec.RebuildDone(p.disk, p.rebuilt, window)
		return
	}
	ref := p.refs[p.next]
	target := r.place.LocateCopy(ref.v, ref.b, ref.c)
	r.k.Schedule(r.k.Now().Add(sim.DurationOfSeconds(float64(target.Size)/float64(r.rate))), p)
}

// readSource reads the current copy's mirror source, unless it is stale.
func (p *pass) readSource() {
	ref := p.refs[p.next]
	src := blockRef{ref.v, ref.b, (ref.c + 1) % p.r.place.Replicas()}
	if p.r.stale[src] {
		p.retrySource()
		return
	}
	at := p.r.place.LocateCopy(src.v, src.b, src.c)
	p.r.io(at.DiskGlobal, at.Offset, at.Size, p.sourceRead)
}

// retrySource waits a second for an unusable mirror source: stale from
// an overlapping rebuild (copying it would spread frozen data and report
// the window closed over real loss) or on a disk that is down. If both
// copies of a block are stale — overlapping failures of a mirror pair —
// the data is genuinely gone, the pass retries here forever and the
// window stays open, so demand reads keep NACKing and the loss shows up
// in StaleNacks/LostBlocks instead of being papered over.
func (p *pass) retrySource() {
	p.r.k.Schedule(p.r.k.Now().Add(sim.Second), p)
}

// copyToTarget is the end of the source read: it writes the target copy.
func (p *pass) copyToTarget(ok bool) {
	if !ok {
		p.retrySource()
		return
	}
	if p.r.epoch[p.disk] != p.epoch {
		return
	}
	ref := p.refs[p.next]
	target := p.r.place.LocateCopy(ref.v, ref.b, ref.c)
	p.r.io(p.disk, target.Offset, target.Size, p.targetWritten)
}

// finishCopy is the end of the target write: the copy is clean, and the
// pass paces the next one.
func (p *pass) finishCopy(ok bool) {
	r := p.r
	if !ok {
		// Target re-failed mid-pass; the next repair starts over.
		r.stats.Aborts++
		return
	}
	if r.epoch[p.disk] != p.epoch {
		return
	}
	delete(r.stale, p.refs[p.next])
	p.rebuilt++
	r.stats.Rebuilt++
	p.next++
	p.pace()
}
