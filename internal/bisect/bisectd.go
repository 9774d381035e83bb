package bisect

import (
	"omtree/internal/geom"
)

// CtxD carries the shared state of a d-dimensional Bisection run: the flat
// hyperspherical coordinates of every node (node i at Pts[i*D:(i+1)*D],
// see geom.Hyperspherical) and the attachment sink of the tree under
// construction. Each recursion node partitions its index slice in place and
// keeps its scratch on the call stack, so disjoint index slices may run
// concurrently against a concurrency-tolerant Attacher.
type CtxD struct {
	B   Attacher
	D   int
	Pts []float64
}

func (c *CtxD) radius(id int32) float64 { return c.Pts[int(id)*c.D] }

// nodeScratch is one recursion node's scratch: the split points of its
// cell, the bounds of the sub-cell being recursed into, and the offsets of
// the buckets its points are partitioned into.
type nodeScratch struct {
	splits [geom.StackDim]float64
	sub    [2 * geom.StackDim]float64
	start  [1<<geom.StackDim + 1]int32
}

// split partitions idx, the points of cell, into the cell's 2^d sub-cells
// and returns the sub-cell bucket offsets — bucket q is
// idx[start[q]:start[q+1]], in geom.CellD.SubcellInto index order — together with
// the split points and a sub-cell buffer for the recursion.
func (c *CtxD) split(s *nodeScratch, idx []int32, cell geom.CellD) (splits []float64, sub geom.CellD, start []int32) {
	d, pts := c.D, c.Pts
	if d <= geom.StackDim {
		splits, sub, start = s.splits[:d], s.sub[:2*d], s.start[:1<<uint(d)+1]
	} else {
		splits, sub, start = make([]float64, d), make(geom.CellD, 2*d), make([]int32, 1<<uint(d)+1)
	}
	for a := range splits {
		splits[a] = cell.SplitPoint(a)
	}
	// Split the radial axis first, then the angular axes from the last
	// polar angle down to Theta: each pass halves every run in place, so
	// the buckets come out contiguous, most significant index bit first.
	start[0], start[1] = 0, int32(len(idx))
	for runs, a := 1, 0; runs < 1<<uint(d); runs *= 2 {
		for q := runs - 1; q >= 0; q-- {
			lo, hi := start[q], start[q+1]
			at := splits[a]
			mid := lo + int32(partition2(idx[lo:hi], func(id int32) bool { return pts[int(id)*d+a] >= at }))
			start[2*q], start[2*q+1], start[2*q+2] = lo, mid, hi
		}
		if a == geom.AxisR {
			a = d
		}
		a--
	}
	return splits, sub, start
}

// ConnectFull runs the natural out-degree-2^d Bisection over the points idx
// inside cell, attaching everything under src (already attached). Together
// with the two core links of a representative this yields trees of
// out-degree 2^d + 2. idx is clobbered.
func (c *CtxD) ConnectFull(idx []int32, src int32, cell geom.CellD) {
	c.connectFull(idx, src, cell, 0)
}

func (c *CtxD) connectFull(idx []int32, src int32, cell geom.CellD, depth int) {
	switch len(idx) {
	case 0:
		return
	case 1:
		c.B.MustAttach(int(idx[0]), int(src))
		return
	}
	if cell.Degenerate() || depth > maxDepth {
		attachKary(c.B, idx, src, 1<<uint(c.D))
		return
	}
	var s nodeScratch
	splits, sub, start := c.split(&s, idx, cell)
	srcR := c.radius(src)
	for q := 0; q+1 < len(start); q++ {
		bucket := idx[start[q]:start[q+1]]
		if len(bucket) == 0 {
			continue
		}
		rep, rest := takeRep(bucket, c.radius, srcR)
		c.B.MustAttach(int(rep), int(src))
		cell.SubcellInto(sub, q, splits)
		c.connectFull(rest, rep, sub, depth+1)
	}
}

// Connect2 runs the out-degree-2 d-dimensional Bisection, relaying the 2^d
// sub-cell representatives through a binary helper tree of depth d-1 that
// halves the sub-cell index range per level. idx is clobbered.
func (c *CtxD) Connect2(idx []int32, src int32, cell geom.CellD) {
	c.connect2(idx, src, cell, 0)
}

func (c *CtxD) connect2(idx []int32, src int32, cell geom.CellD, depth int) {
	switch len(idx) {
	case 0:
		return
	case 1:
		c.B.MustAttach(int(idx[0]), int(src))
		return
	case 2:
		c.B.MustAttach(int(idx[0]), int(src))
		c.B.MustAttach(int(idx[1]), int(src))
		return
	}
	if cell.Degenerate() || depth > maxDepth {
		attachKary(c.B, idx, src, 2)
		return
	}
	var s nodeScratch
	splits, sub, start := c.split(&s, idx, cell)
	var small [1 << geom.StackDim][]int32
	buckets := small[:0]
	if len(start)-1 > len(small) {
		buckets = make([][]int32, 0, len(start)-1)
	}
	for q := 0; q+1 < len(start); q++ {
		buckets = append(buckets, idx[start[q]:start[q+1]])
	}
	c.relayAt(buckets, 0, src, func(rest []int32, rep int32, q int) {
		cell.SubcellInto(sub, q, splits)
		c.connect2(rest, rep, sub, depth+1)
	})
}

// relayAt mirrors Ctx2.relayAt for hyperspherical coordinates.
func (c *CtxD) relayAt(buckets [][]int32, base int, src int32,
	recurse func(rest []int32, rep int32, bucket int)) {
	srcR := c.radius(src)
	if countNonEmpty(buckets) <= 2 {
		for bi, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			rep, rest := takeRep(bucket, c.radius, srcR)
			c.B.MustAttach(int(rep), int(src))
			recurse(rest, rep, base+bi)
		}
		return
	}
	h1 := c.takeHelper(buckets, srcR)
	h2 := c.takeHelper(buckets, srcR)
	c.B.MustAttach(int(h1), int(src))
	c.B.MustAttach(int(h2), int(src))
	mid := len(buckets) / 2
	c.relayAt(buckets[:mid], base, h1, recurse)
	c.relayAt(buckets[mid:], base+mid, h2, recurse)
}

func (c *CtxD) takeHelper(buckets [][]int32, srcR float64) int32 {
	ref := pickHelper(buckets, c.radius, srcR)
	id, shorter := removeAt(buckets[ref.bucket], ref.pos)
	buckets[ref.bucket] = shorter
	return id
}
