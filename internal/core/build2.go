package core

import (
	"fmt"
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// naturalDegree2D is 2 core links + the 4-way Bisection fan-out.
const naturalDegree2D = 6

// conn2 adapts the 2-D grid and Bisection context to the wiring interface.
type conn2 struct {
	ctx *bisect.Ctx2
	g   grid.PolarGrid
}

// nearestArc scores members by the squared distance to the arc center at
// radius RMin (inner) or RMax (outer) and the segment's mid-angle, computed
// in polar coordinates via the law of cosines.
func (c *conn2) nearestArc(cellID int, outer bool, members []int32) int {
	ring, j := grid.RingIdx(cellID)
	seg := c.g.Segment(ring, j)
	r, mid := seg.RMin, seg.MidTheta()
	if outer {
		r = seg.RMax
	}
	pts := c.ctx.Pts
	return argmin(members, func(id int32) float64 {
		p := pts[id]
		return p.R*p.R + r*r - 2*p.R*r*math.Cos(p.Theta-mid)
	})
}

func (c *conn2) pointDist2(a, b int32) float64 {
	pa, pb := c.ctx.Pts[a], c.ctx.Pts[b]
	return pa.R*pa.R + pb.R*pb.R - 2*pa.R*pb.R*math.Cos(pa.Theta-pb.Theta)
}

func (c *conn2) connectNatural(idx []int32, src int32, cellID int) {
	ring, j := grid.RingIdx(cellID)
	c.ctx.Connect4(idx, src, c.g.Segment(ring, j))
}

func (c *conn2) connectBinary(idx []int32, src int32, cellID int) {
	ring, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Segment(ring, j))
}

// Build2 runs Algorithm Polar_Grid over planar receivers with the given
// source. Node 0 of the resulting tree is the source and node i >= 1 is
// receivers[i-1]. The default (no options) builds the natural out-degree-6
// variant; WithMaxOutDegree(2) or (3) selects the binary variant.
//
// The construction works for any receiver layout (§IV-C): coordinates are
// taken relative to the source and the grid is scaled to the farthest
// receiver. Asymptotic optimality additionally needs the receivers to fill
// a convex region around the source with density bounded below.
//
// WithParallelism fans the construction over a worker pool; every worker
// count produces the identical tree.
func Build2(source geom.Point2, receivers []geom.Point2, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree2D)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, 2, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	polars := make([]geom.Polar, n+1)
	scale := convertCoords(workers, receivers, polars,
		func(p geom.Point2) geom.Polar { return p.PolarAround(source) },
		func(c geom.Polar) float64 { return c.R })
	endConv()
	dist := func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}

	res := &Result{Dim: 2, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if _, _, err := buildPolar(res, o, workers, polars, dist, in); err != nil {
		return nil, err
	}
	return res, nil
}

// buildPolar is the 2-D Polar_Grid pipeline after coordinate conversion,
// shared by Build2 and BuildState's full rebuild: the ring-count search,
// cell bucketing, representatives, and the ring-ordered wiring with its
// fused eq. 7 metrics. polars[i] is node i around the source (polars[0] is
// the source itself) and dist is the tree's edge length; res arrives with
// Variant, MaxOutDegree and Scale set and leaves filled in. It returns each
// receiver's cell (cellOf[i] is node i+1's) and each cell's representative
// node, or nil slices when the geometry is degenerate.
func buildPolar(res *Result, o options, workers int, polars []geom.Polar, dist tree.DistFunc, in instr) (cellOf, reps []int32, err error) {
	n, scale := len(polars)-1, res.Scale
	if n == 0 || scale == 0 {
		// No receivers, or all coincident with the source: geometry is
		// degenerate and any balanced tree is optimal (zero-length edges).
		res.Tree, err = buildDegenerate(n, res.MaxOutDegree)
		return nil, nil, err
	}

	endGrid := in.phase("build/grid")
	k, err := pickK(o, n, func(k int) bool {
		return grid.PolarGrid{K: k, Scale: scale}.InteriorOccupied(polars[1:])
	}, func(kMax int) int {
		return grid.MaxFeasibleKAnalytic(polars[1:], scale, kMax, workers)
	})
	endGrid()
	if err != nil {
		return nil, nil, err
	}
	g := grid.PolarGrid{K: k, Scale: scale}

	endBucket := in.phase("build/bucketing")
	cellOf = make([]int32, n)
	assignCells(workers, cellOf, func(i int) int32 { return int32(g.CellOf(polars[i+1])) })
	groups := groupByCellParallel(cellOf, g.NumCells(), workers)
	endBucket()
	res.K = k
	res.Bound = g.UpperBound(arcCoeff(res.Variant))
	reps, err = wireParallel(res, k, workers, groups, dist, func(a bisect.Attacher) connector {
		return &conn2{ctx: &bisect.Ctx2{B: a, Pts: polars}, g: g}
	}, in)
	if err != nil {
		return nil, nil, err
	}
	return cellOf, reps, nil
}

// arcCoeff is the Delta_0 coefficient of upper bound (7): 2 for the natural
// variant, doubled to 4 when the in-cell Bisection spends two links per
// level (§IV-A) — which both the binary and the hybrid variants do.
func arcCoeff(v Variant) float64 {
	if v == VariantNatural {
		return 2
	}
	return 4
}

// attachAllKary attaches receivers 1..n under the source as a balanced
// k-ary tree (degenerate-geometry fallback).
func attachAllKary(b *tree.Builder, n, k int) {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i + 1)
	}
	bisect.AttachKary(b, idx, 0, k)
}

// buildDegenerate handles the no-receivers / all-coincident-with-source case
// shared by every dimension: geometry is useless and any balanced tree is
// optimal (all edges have zero length).
func buildDegenerate(n, degCap int) (*tree.Tree, error) {
	b, err := tree.NewBuilder(n+1, 0, degCap)
	if err != nil {
		return nil, err
	}
	attachAllKary(b, n, degCap)
	return b.Build()
}

// pickK resolves the ring count: a forced value (validated for interior
// occupancy) or the largest feasible value up to the search ceiling.
func pickK(o options, n int, feasible func(k int) bool, search func(kMax int) int) (int, error) {
	if o.forceK > 0 {
		if !feasible(o.forceK) {
			return 0, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", o.forceK)
		}
		return o.forceK, nil
	}
	kMax := o.kMax
	if kMax <= 0 {
		kMax = grid.DefaultKMax(n)
	}
	return search(kMax), nil
}
