package dsched

import "spiffi/internal/sim"

// SSTF (shortest seek time first) always services the pending request
// nearest the head. It minimizes per-access seek time more greedily than
// the elevator but is unfair: requests at the platter edges can starve
// under load. It is not in the paper's comparison; it is included as an
// additional classic baseline for ablation studies.
type SSTF struct {
	queue
}

// NewSSTF returns an empty SSTF queue.
func NewSSTF() *SSTF { return &SSTF{} }

// Next implements Scheduler.
func (s *SSTF) Next(_ sim.Time, headCyl int) *Request {
	if len(s.reqs) == 0 {
		return nil
	}
	best := 0
	for i, r := range s.reqs {
		b := s.reqs[best]
		di, db := absInt(r.Cylinder-headCyl), absInt(b.Cylinder-headCyl)
		if di < db || (di == db && r.Seq < b.Seq) {
			best = i
		}
	}
	return s.take(best)
}

// CSCAN is the circular elevator: the head sweeps in one direction only,
// jumping back to the lowest pending cylinder when nothing lies ahead.
// Compared with the plain elevator it trades a little seek efficiency
// for lower service-time variance. Also an ablation baseline.
type CSCAN struct {
	queue
}

// NewCSCAN returns an empty C-SCAN queue.
func NewCSCAN() *CSCAN { return &CSCAN{} }

// Next implements Scheduler.
func (c *CSCAN) Next(_ sim.Time, headCyl int) *Request {
	if len(c.reqs) == 0 {
		return nil
	}
	// Nearest request at or above the head; else wrap to the lowest.
	best := -1
	for i, r := range c.reqs {
		if r.Cylinder < headCyl {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := c.reqs[best]
		if r.Cylinder < b.Cylinder || (r.Cylinder == b.Cylinder && r.Seq < b.Seq) {
			best = i
		}
	}
	if best == -1 {
		for i, r := range c.reqs {
			if best == -1 {
				best = i
				continue
			}
			b := c.reqs[best]
			if r.Cylinder < b.Cylinder || (r.Cylinder == b.Cylinder && r.Seq < b.Seq) {
				best = i
			}
		}
	}
	return c.take(best)
}
