package core

import (
	"spiffi/internal/sim"
)

// piggyCoordinator implements §8.2 piggybacking: the first terminal to
// request a video opens a batch that closes after the configured delay
// ("playing a few commercials"); terminals requesting the same video
// meanwhile join the batch. When the batch closes, its first member
// leads (actually streams) and the rest ride along, placing no demands
// on the server.
type piggyCoordinator struct {
	k     *sim.Kernel
	delay sim.Duration
	open  map[int]*piggyBatch

	// Batches and Riders count completed batches and total members, for
	// the experiment's "effective multiplier" statistic.
	Batches int64
	Riders  int64
}

type piggyBatch struct {
	leader  int
	members int
	closed  sim.Queue // every member, scheduled when the batch closes
}

func newPiggyCoordinator(k *sim.Kernel, delay sim.Duration) *piggyCoordinator {
	return &piggyCoordinator{k: k, delay: delay, open: make(map[int]*piggyBatch)}
}

// JoinOrLead implements terminal.StartCoordinator.
func (c *piggyCoordinator) JoinOrLead(a sim.Action, term, video int) bool {
	b, ok := c.open[video]
	if !ok {
		b = &piggyBatch{leader: term}
		c.open[video] = b
		c.k.After(c.delay, func() {
			delete(c.open, video)
			c.Batches++
			c.Riders += int64(b.members)
			b.closed.Broadcast()
		})
	}
	b.members++
	b.closed.Add(c.k, a)
	return term == b.leader
}
