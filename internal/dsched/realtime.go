package dsched

import "spiffi/internal/sim"

// RealTime is the paper's real-time disk scheduling algorithm (§5.2.2,
// Figures 5 and 6): every request carries a completion deadline; the
// remaining slack maps the request into one of a fixed set of priority
// classes with uniformly spaced cutoffs; the highest-priority class with
// pending requests is serviced in elevator order. Priorities are
// recomputed from the current time at every selection, so a request
// drifts into higher classes as its deadline approaches.
//
// A request with slack below Spacing is in the highest class (class 0);
// one with slack of at least (Classes-1)*Spacing is in the lowest.
// Prefetch requests carry estimated deadlines (real-time prefetching,
// §5.2.3) or, if none was estimated, an infinitely late deadline that
// pins them to the lowest class.
type RealTime struct {
	queue
	classes int
	spacing sim.Duration
	dir     int
	scratch []*Request
}

// NewRealTime builds the scheduler with the given number of priority
// classes and the spacing between priority cutoffs. The paper's tuned
// configuration is 3 classes with 4-second spacing.
func NewRealTime(classes int, spacing sim.Duration) *RealTime {
	if classes < 1 {
		panic("dsched: real-time needs at least one priority class")
	}
	if spacing <= 0 {
		panic("dsched: real-time needs positive priority spacing")
	}
	return &RealTime{classes: classes, spacing: spacing, dir: 1}
}

// ClassOf returns the priority class (0 = most urgent) a request with the
// given deadline occupies at time now.
func (rt *RealTime) ClassOf(now, deadline sim.Time) int {
	slack := deadline.Sub(now)
	if slack < 0 {
		return 0
	}
	c := int(slack / rt.spacing)
	if c >= rt.classes {
		c = rt.classes - 1
	}
	return c
}

// Next implements Scheduler.
func (rt *RealTime) Next(now sim.Time, headCyl int) *Request {
	if len(rt.reqs) == 0 {
		return nil
	}
	// Find the most urgent class present, then elevator among its members.
	best := rt.classes
	for _, r := range rt.reqs {
		if c := rt.ClassOf(now, r.Deadline); c < best {
			best = c
			if best == 0 {
				break
			}
		}
	}
	rt.scratch = rt.scratch[:0]
	for _, r := range rt.reqs {
		if rt.ClassOf(now, r.Deadline) == best {
			rt.scratch = append(rt.scratch, r)
		}
	}
	i, dir := pickElevator(rt.scratch, headCyl, rt.dir)
	rt.dir = dir
	chosen := rt.scratch[i]
	j := 0
	for rt.reqs[j] != chosen {
		j++
	}
	return rt.take(j)
}
