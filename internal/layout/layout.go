// Package layout implements SPIFFI's video placement (§5.2, Figure 3 of
// the paper): every video is declustered across all disks, alternating
// first between nodes and then between the disks at each node, with the
// per-disk portion of a video (its "fragment") laid out contiguously.
// A non-striped placement (whole video on one disk, §7.4) is provided as
// the paper's comparison baseline.
//
// Beyond the paper, a placement can mirror every block onto a second
// disk (Mirror/MirrorWith) so reads survive a dead disk or node. Two
// replica policies exist: chained declustering (MirrorChainedDisk, the
// classic next-disk-in-the-chain placement) and cross-node interleaved
// declustering (MirrorCrossNode), which sends each node's replicas to
// rotated *other* nodes — a whole-node crash then leaves every block
// reachable, and the dead node's read load spreads across all
// survivors instead of doubling one mirror into a hotspot. FAULTS.md
// covers how the server and terminals use the replicas (NACK fallback,
// session failover); LocateCopy is the lookup the retry and failover
// paths drive.
package layout

import (
	"fmt"

	"spiffi/internal/rng"
)

// Address locates one stripe block on the server.
type Address struct {
	Node       int   // node index
	Disk       int   // disk index within the node
	DiskGlobal int   // disk index across the whole server
	Offset     int64 // byte offset on the disk where the block starts
	Size       int64 // block length in bytes
}

// Placement maps (video, block) pairs to disk addresses. Blocks are
// stripe blocks for the striped layout and read-size chunks for the
// non-striped layout; in both cases block data is contiguous on its disk.
type Placement struct {
	striped      bool
	nodes        int
	disksPerNode int
	totalDisks   int
	blockSize    int64 // stripe size (striped) or read size (non-striped)

	videoSizes []int64
	numBlocks  []int // per video

	// Striped: every disk reserves regionBytes per video, so video v's
	// fragment on any disk starts at v*regionBytes.
	regionBytes int64

	// Non-striped: video -> disk, and byte offset of the video's start.
	videoDisk  []int
	videoStart []int64

	// Mirroring (Mirror): replicas is 1 (no redundancy) or 2. policy
	// selects which disk holds each block's replica (see MirrorPolicy).
	replicas int
	policy   MirrorPolicy

	// Non-striped mirroring: primary bytes stored per disk, so replicas
	// can be stacked above each disk's primary data.
	diskPrimary []int64
}

// NewStriped builds the paper's fully striped placement.
func NewStriped(videoSizes []int64, stripeSize int64, nodes, disksPerNode int) *Placement {
	p := newPlacement(videoSizes, stripeSize, nodes, disksPerNode)
	p.striped = true
	// Largest per-disk fragment across videos determines the per-video
	// region reserved on every disk.
	var maxBlocks int
	for _, nb := range p.numBlocks {
		if nb > maxBlocks {
			maxBlocks = nb
		}
	}
	fragBlocks := (maxBlocks + p.totalDisks - 1) / p.totalDisks
	p.regionBytes = int64(fragBlocks) * stripeSize
	return p
}

// NewNonStriped builds the §7.4 baseline: each video is stored
// contiguously on one disk, with videos dealt to disks in a random
// order so that every disk holds the same number of videos (the paper
// stores "each video on a single, randomly chosen disk and each disk
// held exactly 4 videos").
func NewNonStriped(videoSizes []int64, readSize int64, nodes, disksPerNode int, src *rng.Source) *Placement {
	p := newPlacement(videoSizes, readSize, nodes, disksPerNode)
	p.striped = false
	n := len(videoSizes)
	if n%p.totalDisks != 0 {
		panic(fmt.Sprintf("layout: %d videos do not divide evenly over %d disks", n, p.totalDisks))
	}
	// Random permutation of videos, dealt round-robin to disks.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	p.videoDisk = make([]int, n)
	p.videoStart = make([]int64, n)
	diskTop := make([]int64, p.totalDisks)
	for i, v := range perm {
		d := i % p.totalDisks
		p.videoDisk[v] = d
		p.videoStart[v] = diskTop[d]
		diskTop[d] += videoSizes[v]
	}
	return p
}

func newPlacement(videoSizes []int64, blockSize int64, nodes, disksPerNode int) *Placement {
	if blockSize <= 0 {
		panic("layout: non-positive block size")
	}
	if nodes <= 0 || disksPerNode <= 0 {
		panic("layout: need at least one node and one disk")
	}
	p := &Placement{
		nodes:        nodes,
		disksPerNode: disksPerNode,
		totalDisks:   nodes * disksPerNode,
		blockSize:    blockSize,
		videoSizes:   videoSizes,
		numBlocks:    make([]int, len(videoSizes)),
		replicas:     1,
	}
	for i, sz := range videoSizes {
		if sz <= 0 {
			panic("layout: non-positive video size")
		}
		p.numBlocks[i] = int((sz + blockSize - 1) / blockSize)
	}
	return p
}

// DisksPerNode returns the per-node disk count.
func (p *Placement) DisksPerNode() int { return p.disksPerNode }

// TotalDisks returns nodes*disksPerNode.
func (p *Placement) TotalDisks() int { return p.totalDisks }

// BlockSize returns the stripe size (striped) or read size (non-striped).
func (p *Placement) BlockSize() int64 { return p.blockSize }

// NumVideos returns the catalog size.
func (p *Placement) NumVideos() int { return len(p.videoSizes) }

// NumBlocks returns the number of blocks of video v.
func (p *Placement) NumBlocks(v int) int { return p.numBlocks[v] }

// SizeOfBlock returns the byte length of block b of video v (the final
// block may be short).
func (p *Placement) SizeOfBlock(v, b int) int64 {
	if b == p.numBlocks[v]-1 {
		if rem := p.videoSizes[v] - int64(b)*p.blockSize; rem < p.blockSize {
			return rem
		}
	}
	return p.blockSize
}

// Locate maps (video, block) to a disk address. Figure 3 ordering:
// block b lives on node b%N, disk (b/N)%D within that node, at stripe
// index b/(N*D) within the video's contiguous fragment on that disk.
func (p *Placement) Locate(v, b int) Address {
	if b < 0 || b >= p.numBlocks[v] {
		panic(fmt.Sprintf("layout: block %d out of range for video %d (%d blocks)", b, v, p.numBlocks[v]))
	}
	size := p.SizeOfBlock(v, b)
	if !p.striped {
		d := p.videoDisk[v]
		return Address{
			Node:       d / p.disksPerNode,
			Disk:       d % p.disksPerNode,
			DiskGlobal: d,
			Offset:     p.videoStart[v] + int64(b)*p.blockSize,
			Size:       size,
		}
	}
	node := b % p.nodes
	disk := (b / p.nodes) % p.disksPerNode
	stripeIdx := b / p.totalDisks
	return Address{
		Node:       node,
		Disk:       disk,
		DiskGlobal: node*p.disksPerNode + disk,
		Offset:     int64(v)*p.regionBytes + int64(stripeIdx)*p.blockSize,
		Size:       size,
	}
}

// MirrorPolicy selects where a block's replica lives relative to its
// primary. Both policies are bijections on disks, so replica data
// stacks cleanly and exactly one source disk mirrors onto each target.
type MirrorPolicy int

const (
	// MirrorChainedDisk is classic chained declustering: the replica
	// lives on the next global disk ((diskGlobal+1) mod totalDisks).
	// With several disks per node most replicas stay on the primary's
	// own node, so a whole-node crash can take out both copies.
	MirrorChainedDisk MirrorPolicy = iota

	// MirrorCrossNode keeps the replica in the same local disk slot but
	// rotates it onto another node, guaranteeing every replica is
	// off-node. Striped placements interleave the rotation per stripe row
	// (interleaved declustering): consecutive rows of one primary disk
	// mirror onto different surviving nodes, so a dead disk's read load
	// spreads across every survivor at 1/(nodes-1) extra each instead of
	// doubling one mirror disk into a hotspot. Non-striped placements
	// keep a fixed disk-to-disk map (disk i of node n mirrors onto disk i
	// of node (n + 1 + i mod (nodes-1)) mod nodes) because whole-video
	// replica regions must stack contiguously. Needs at least two nodes.
	MirrorCrossNode
)

// Mirror adds a second, declustered copy of every video under the
// chained-disk policy (see MirrorWith). Striped replicas occupy a
// mirror region stacked above all primary regions; non-striped replicas
// are stacked above each disk's primary videos. Call before sizing
// disks: mirroring doubles MaxDiskBytes.
func (p *Placement) Mirror() { p.MirrorWith(MirrorChainedDisk) }

// MirrorWith adds a second copy of every video under the given replica
// placement policy. Calling it again is a no-op (the first policy wins).
func (p *Placement) MirrorWith(pol MirrorPolicy) {
	if p.totalDisks < 2 {
		panic("layout: mirroring needs at least two disks")
	}
	if pol == MirrorCrossNode && p.nodes < 2 {
		panic("layout: cross-node mirroring needs at least two nodes")
	}
	if p.replicas == 2 {
		return
	}
	p.replicas = 2
	p.policy = pol
	if !p.striped {
		p.diskPrimary = make([]int64, p.totalDisks)
		for v, sz := range p.videoSizes {
			p.diskPrimary[p.videoDisk[v]] += sz
		}
	}
}

// Policy returns the active mirror placement policy (meaningful only
// when Replicas() == 2).
func (p *Placement) Policy() MirrorPolicy { return p.policy }

// mirrorDisk maps a primary disk to the disk holding its replicas
// (non-striped placements; striped placements use mirrorDiskAt).
func (p *Placement) mirrorDisk(d int) int {
	if p.policy == MirrorCrossNode {
		n, i := d/p.disksPerNode, d%p.disksPerNode
		shift := 1 + i%(p.nodes-1)
		return ((n+shift)%p.nodes)*p.disksPerNode + i
	}
	return (d + 1) % p.totalDisks
}

// mirrorDiskAt maps a primary disk to the disk holding its replica of
// stripe row `stripeIdx`. Under MirrorCrossNode the target node is
// interleaved per row: the replica stays in the primary's local disk
// slot i but the node shift cycles through 1..nodes-1 as rows advance,
// so the rows of one dead disk redirect to every surviving node in turn.
// Within one row the shift is constant per slot (it depends only on
// i+stripeIdx), so row targets are a permutation of the disks — each
// disk receives exactly one replica per row, which keeps the mirror
// region's (video, row) offset slot collision-free.
func (p *Placement) mirrorDiskAt(d, stripeIdx int) int {
	if p.policy == MirrorCrossNode {
		n, i := d/p.disksPerNode, d%p.disksPerNode
		shift := 1 + (i+stripeIdx)%(p.nodes-1)
		return ((n+shift)%p.nodes)*p.disksPerNode + i
	}
	return (d + 1) % p.totalDisks
}

// Replicas returns the number of stored copies of every block (1 or 2).
func (p *Placement) Replicas() int { return p.replicas }

// LocateCopy maps (video, block, copy) to a disk address. Copy 0 is the
// primary placement (identical to Locate); copy 1 is the mirrored replica
// and requires Mirror to have been called.
func (p *Placement) LocateCopy(v, b, copy int) Address {
	switch copy {
	case 0:
		return p.Locate(v, b)
	case 1:
		if p.replicas < 2 {
			panic("layout: replica requested from unmirrored placement")
		}
	default:
		panic(fmt.Sprintf("layout: copy %d out of range", copy))
	}
	primary := p.Locate(v, b)
	var d int
	if p.striped {
		d = p.mirrorDiskAt(primary.DiskGlobal, b/p.totalDisks)
	} else {
		d = p.mirrorDisk(primary.DiskGlobal)
	}
	addr := Address{
		Node:       d / p.disksPerNode,
		Disk:       d % p.disksPerNode,
		DiskGlobal: d,
		Size:       primary.Size,
	}
	if p.striped {
		// The mirror region mirrors the primary region layout, relocated
		// by the policy's per-row disk map and stacked above all primary
		// regions. The offset depends only on (video, stripe index):
		// same-row blocks sit on distinct primary disks, and mirrorDiskAt
		// permutes each row's disks, so their replicas land on distinct
		// disks too — every disk uses each (video, row) slot at most once.
		stripeIdx := b / p.totalDisks
		addr.Offset = int64(len(p.videoSizes))*p.regionBytes +
			int64(v)*p.regionBytes + int64(stripeIdx)*p.blockSize
	} else {
		// Exactly one source disk's videos mirror onto disk d; their
		// replicas stack above d's primaries in the same disjoint byte
		// ranges they occupy at home, so the primary's start offset is
		// reused.
		addr.Offset = p.diskPrimary[d] + p.videoStart[v] + int64(b)*p.blockSize
	}
	return addr
}

// NextBlockOnSameDisk returns the next block of video v that lives on the
// same disk as block b, for sequential prefetching. ok is false when no
// such block exists (end of the video's data on that disk).
func (p *Placement) NextBlockOnSameDisk(v, b int) (next int, ok bool) {
	step := 1
	if p.striped {
		step = p.totalDisks
	}
	next = b + step
	if next >= p.numBlocks[v] {
		return 0, false
	}
	return next, true
}
