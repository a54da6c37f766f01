package dsched

import "spiffi/internal/sim"

// GSS implements the group sweeping scheme of Yu et al. [Yu92] as
// described in §5.2.2: terminals are statically assigned to one of a
// fixed set of groups; groups are processed in round-robin order; to
// process a group, up to one pending request from each terminal in that
// group is selected, and the batch is serviced in elevator order.
//
// With one group GSS is nearly the elevator algorithm (but each terminal
// is serviced at most once per sweep); with as many groups as terminals
// it degenerates to round-robin.
type GSS struct {
	groups   int
	curGroup int
	batch    []*Request // requests selected for the current group's sweep
	pending  []*Request // not yet selected
	dir      int
}

// NewGSS returns an empty GSS queue with the given number of groups.
func NewGSS(groups int) *GSS {
	if groups <= 0 {
		panic("dsched: GSS needs at least one group")
	}
	return &GSS{groups: groups, dir: 1}
}

// groupOf maps a terminal to its group.
func (g *GSS) groupOf(terminal int) int {
	if terminal < 0 {
		return 0 // requests without a terminal ride with group 0
	}
	return terminal % g.groups
}

// Add implements Scheduler.
func (g *GSS) Add(r *Request) { g.pending = append(g.pending, r) }

// Len implements Scheduler.
func (g *GSS) Len() int { return len(g.batch) + len(g.pending) }

// Drain implements Scheduler.
func (g *GSS) Drain() []*Request { return drainSorted(&g.batch, &g.pending) }

// Next implements Scheduler.
func (g *GSS) Next(_ sim.Time, headCyl int) *Request {
	if len(g.batch) == 0 {
		g.formBatch()
	}
	if len(g.batch) == 0 {
		return nil
	}
	i, dir := pickElevator(g.batch, headCyl, g.dir)
	g.dir = dir
	r := g.batch[i]
	g.batch = removeAt(g.batch, i)
	return r
}

// formBatch advances through groups (starting with the current one) until
// it finds a group with pending work, then moves up to one request per
// terminal of that group — the oldest per terminal — into the batch.
func (g *GSS) formBatch() {
	if len(g.pending) == 0 {
		return
	}
	for scanned := 0; scanned < g.groups; scanned++ {
		grp := (g.curGroup + scanned) % g.groups
		taken := map[int]int{} // terminal -> index in batch
		for i := 0; i < len(g.pending); {
			r := g.pending[i]
			if g.groupOf(r.Terminal) != grp {
				i++
				continue
			}
			if bi, ok := taken[r.Terminal]; ok {
				// Keep only the oldest request per terminal.
				if r.Seq < g.batch[bi].Seq {
					g.pending[i] = g.batch[bi]
					g.batch[bi] = r
				}
				i++
				continue
			}
			taken[r.Terminal] = len(g.batch)
			g.batch = append(g.batch, r)
			g.pending = removeAt(g.pending, i)
		}
		if len(g.batch) > 0 {
			g.curGroup = (grp + 1) % g.groups
			return
		}
	}
}
