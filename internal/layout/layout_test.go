package layout

import (
	"testing"
	"testing/quick"

	"spiffi/internal/rng"
)

func sizes(n int, each int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = each
	}
	return s
}

func TestFigure3Ordering(t *testing.T) {
	// Figure 3: 2 nodes, 2 disks per node. Block A.0 -> node0 disk0,
	// A.1 -> node1 disk0, A.2 -> node0 disk1, A.3 -> node1 disk1,
	// A.4 -> node0 disk0 again.
	p := NewStriped(sizes(2, 100*512), 512, 2, 2)
	want := []struct{ node, disk int }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 0}, {1, 0},
	}
	for b, w := range want {
		a := p.Locate(0, b)
		if a.Node != w.node || a.Disk != w.disk {
			t.Fatalf("block %d at node%d disk%d, want node%d disk%d",
				b, a.Node, a.Disk, w.node, w.disk)
		}
	}
}

func TestFragmentsContiguous(t *testing.T) {
	p := NewStriped(sizes(2, 64*512), 512, 2, 2)
	// Successive blocks on the same disk must be adjacent on disk.
	prev := map[int]Address{}
	for b := 0; b < p.NumBlocks(0); b++ {
		a := p.Locate(0, b)
		if pa, ok := prev[a.DiskGlobal]; ok {
			if a.Offset != pa.Offset+pa.Size {
				t.Fatalf("fragment not contiguous on disk %d: %d then %d",
					a.DiskGlobal, pa.Offset, a.Offset)
			}
		}
		prev[a.DiskGlobal] = a
	}
}

func TestStripedBalancesBlocks(t *testing.T) {
	p := NewStriped(sizes(1, 160*512), 512, 4, 4)
	counts := make([]int, 16)
	for b := 0; b < p.NumBlocks(0); b++ {
		counts[p.Locate(0, b).DiskGlobal]++
	}
	for d, c := range counts {
		if c != 10 {
			t.Fatalf("disk %d holds %d blocks, want 10", d, c)
		}
	}
}

func TestVideosDoNotOverlapOnDisk(t *testing.T) {
	p := NewStriped(sizes(3, 40*512), 512, 2, 2)
	type span struct{ lo, hi int64 }
	occupied := map[int][]span{}
	for v := 0; v < 3; v++ {
		for b := 0; b < p.NumBlocks(v); b++ {
			a := p.Locate(v, b)
			for _, s := range occupied[a.DiskGlobal] {
				if a.Offset < s.hi && a.Offset+a.Size > s.lo {
					t.Fatalf("video %d block %d overlaps on disk %d", v, b, a.DiskGlobal)
				}
			}
			occupied[a.DiskGlobal] = append(occupied[a.DiskGlobal], span{a.Offset, a.Offset + a.Size})
		}
	}
}

func TestFinalPartialBlock(t *testing.T) {
	p := NewStriped([]int64{10*512 + 100}, 512, 2, 2)
	if p.NumBlocks(0) != 11 {
		t.Fatalf("blocks = %d, want 11", p.NumBlocks(0))
	}
	if got := p.SizeOfBlock(0, 10); got != 100 {
		t.Fatalf("final block size %d, want 100", got)
	}
	if got := p.SizeOfBlock(0, 9); got != 512 {
		t.Fatalf("full block size %d, want 512", got)
	}
	if got := p.Locate(0, 10).Size; got != 100 {
		t.Fatalf("located final size %d, want 100", got)
	}
}

func TestNextBlockOnSameDiskStriped(t *testing.T) {
	p := NewStriped(sizes(1, 100*512), 512, 4, 4)
	next, ok := p.NextBlockOnSameDisk(0, 3)
	if !ok || next != 19 {
		t.Fatalf("next = %d,%v want 19,true", next, ok)
	}
	a, b := p.Locate(0, 3), p.Locate(0, 19)
	if a.DiskGlobal != b.DiskGlobal {
		t.Fatal("next block not on same disk")
	}
	if _, ok := p.NextBlockOnSameDisk(0, 99); ok {
		t.Fatal("expected no next block near end")
	}
}

func TestNonStripedPlacement(t *testing.T) {
	src := rng.New(42)
	p := NewNonStriped(sizes(16, 20*512), 512, 2, 2, src)
	perDisk := make(map[int]int)
	for v := 0; v < 16; v++ {
		a0 := p.Locate(v, 0)
		perDisk[a0.DiskGlobal]++
		// All blocks of one video on the same disk and contiguous.
		for b := 0; b < p.NumBlocks(v); b++ {
			a := p.Locate(v, b)
			if a.DiskGlobal != a0.DiskGlobal {
				t.Fatalf("video %d spans disks", v)
			}
			if a.Offset != a0.Offset+int64(b)*512 {
				t.Fatalf("video %d not contiguous", v)
			}
		}
	}
	for d := 0; d < 4; d++ {
		if perDisk[d] != 4 {
			t.Fatalf("disk %d holds %d videos, want 4", d, perDisk[d])
		}
	}
}

func TestNonStripedNextBlock(t *testing.T) {
	p := NewNonStriped(sizes(4, 10*512), 512, 2, 2, rng.New(1))
	next, ok := p.NextBlockOnSameDisk(2, 5)
	if !ok || next != 6 {
		t.Fatalf("next = %d,%v want 6,true", next, ok)
	}
}

func TestNonStripedAssignmentIsSeeded(t *testing.T) {
	a := NewNonStriped(sizes(16, 512), 512, 2, 2, rng.New(5))
	b := NewNonStriped(sizes(16, 512), 512, 2, 2, rng.New(5))
	c := NewNonStriped(sizes(16, 512), 512, 2, 2, rng.New(6))
	sameAsA := true
	sameAsC := true
	for v := 0; v < 16; v++ {
		if a.Locate(v, 0).DiskGlobal != b.Locate(v, 0).DiskGlobal {
			sameAsA = false
		}
		if a.Locate(v, 0).DiskGlobal != c.Locate(v, 0).DiskGlobal {
			sameAsC = false
		}
	}
	if !sameAsA {
		t.Fatal("same seed produced different assignment")
	}
	if sameAsC {
		t.Fatal("different seeds improbably identical")
	}
}

// Property: every block of every video maps to a valid address.
func TestLocateRoundTripProperty(t *testing.T) {
	p := NewStriped(sizes(4, 33*512+17), 512, 4, 4)
	f := func(rv, rb uint16) bool {
		v := int(rv) % 4
		b := int(rb) % p.NumBlocks(v)
		a := p.Locate(v, b)
		if a.Node < 0 || a.Node >= 4 || a.Disk < 0 || a.Disk >= 4 {
			return false
		}
		if a.DiskGlobal != a.Node*4+a.Disk {
			return false
		}
		return a.Size > 0 && a.Size <= 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossNodeMirrorAlwaysOffNode(t *testing.T) {
	shapes := []struct{ nodes, disks int }{{2, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 3}}
	for _, sh := range shapes {
		p := NewStriped(sizes(3, int64(sh.nodes*sh.disks)*8*512), 512, sh.nodes, sh.disks)
		p.MirrorWith(MirrorCrossNode)
		for v := 0; v < 3; v++ {
			for b := 0; b < p.NumBlocks(v); b++ {
				pri := p.LocateCopy(v, b, 0)
				rep := p.LocateCopy(v, b, 1)
				if rep.Node == pri.Node {
					t.Fatalf("%d nodes x %d disks: video %d block %d replica on primary's node %d",
						sh.nodes, sh.disks, v, b, pri.Node)
				}
			}
		}
	}
}

func TestCrossNodeMirrorInterleavesRows(t *testing.T) {
	// Interleaved declustering: sweeping the stripe rows of one primary
	// disk, the replica target must cycle through every other node, so a
	// dead disk's redirected read load spreads across all survivors
	// instead of doubling a single mirror disk.
	p := NewStriped(sizes(1, 4*4*8*512), 512, 4, 4)
	p.MirrorWith(MirrorCrossNode)
	targets := map[int]bool{}
	for row := 0; row < 8; row++ {
		b := row * 16 // row-th block on disk 0 (node 0, slot 0)
		if pri := p.Locate(0, b); pri.DiskGlobal != 0 {
			t.Fatalf("row %d: block %d not on disk 0 (got %d)", row, b, pri.DiskGlobal)
		}
		rep := p.LocateCopy(0, b, 1)
		if rep.Node == 0 {
			t.Fatalf("row %d replica on primary's node", row)
		}
		if rep.Disk != 0 {
			t.Fatalf("row %d replica left local slot 0 (disk %d)", row, rep.Disk)
		}
		targets[rep.Node] = true
	}
	if len(targets) != 3 {
		t.Fatalf("replica targets span %d nodes, want all 3 survivors: %v", len(targets), targets)
	}
}

func TestMirrorDiskBijection(t *testing.T) {
	shapes := []struct{ nodes, disks int }{{2, 2}, {3, 2}, {4, 4}, {5, 3}}
	for _, pol := range []MirrorPolicy{MirrorChainedDisk, MirrorCrossNode} {
		for _, sh := range shapes {
			p := NewStriped(sizes(1, 512), 512, sh.nodes, sh.disks)
			p.MirrorWith(pol)
			seen := make([]bool, p.TotalDisks())
			for d := 0; d < p.TotalDisks(); d++ {
				m := p.mirrorDisk(d)
				if m < 0 || m >= p.TotalDisks() || m == d {
					t.Fatalf("policy %d shape %dx%d: mirrorDisk(%d) = %d", pol, sh.nodes, sh.disks, d, m)
				}
				if seen[m] {
					t.Fatalf("policy %d shape %dx%d: two disks mirror onto %d", pol, sh.nodes, sh.disks, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestCrossNodeReplicasDoNotOverlap(t *testing.T) {
	// Striped: all copies of all blocks of all videos must occupy
	// disjoint (disk, byte-range) spans under the cross-node policy.
	p := NewStriped(sizes(3, 40*512), 512, 3, 2)
	p.MirrorWith(MirrorCrossNode)
	type span struct{ lo, hi int64 }
	occupied := map[int][]span{}
	place := func(a Address, what string) {
		for _, s := range occupied[a.DiskGlobal] {
			if a.Offset < s.hi && a.Offset+a.Size > s.lo {
				t.Fatalf("%s overlaps on disk %d at offset %d", what, a.DiskGlobal, a.Offset)
			}
		}
		occupied[a.DiskGlobal] = append(occupied[a.DiskGlobal], span{a.Offset, a.Offset + a.Size})
	}
	for v := 0; v < 3; v++ {
		for b := 0; b < p.NumBlocks(v); b++ {
			place(p.LocateCopy(v, b, 0), "primary")
			place(p.LocateCopy(v, b, 1), "replica")
		}
	}

	// Non-striped: same invariant.
	np := NewNonStriped(sizes(12, 20*512), 512, 3, 2, rng.New(7))
	np.MirrorWith(MirrorCrossNode)
	occupied = map[int][]span{}
	for v := 0; v < 12; v++ {
		for b := 0; b < np.NumBlocks(v); b++ {
			pri, rep := np.LocateCopy(v, b, 0), np.LocateCopy(v, b, 1)
			place(pri, "primary")
			place(rep, "replica")
			if pri.Node == rep.Node {
				t.Fatalf("video %d block %d replica on primary's node", v, b)
			}
		}
	}
}

func TestMirrorWithFirstPolicyWins(t *testing.T) {
	p := NewStriped(sizes(1, 16*512), 512, 2, 2)
	p.MirrorWith(MirrorCrossNode)
	p.Mirror() // no-op: already mirrored
	if p.Policy() != MirrorCrossNode {
		t.Fatalf("policy = %d, want MirrorCrossNode", p.Policy())
	}
	if p.Replicas() != 2 {
		t.Fatalf("replicas = %d, want 2", p.Replicas())
	}
}
