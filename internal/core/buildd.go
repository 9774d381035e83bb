package core

import (
	"fmt"
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// scratchD returns k length-d vectors of per-call scratch, backed by buf
// when they fit.
func scratchD(buf []float64, k, d int) []float64 {
	if k*d <= len(buf) {
		return buf[:k*d]
	}
	return make([]float64, k*d)
}

// connD adapts the d-dimensional grid and Bisection context to the wiring
// interface. Cell bounds and reconstructed points live in per-call stack
// scratch, so scoring and wiring a cell allocate nothing.
type connD struct {
	ctx *bisect.CtxD
	g   *grid.GridD
}

// cell writes the bounds of grid cell cellID into s[:2d].
func (c *connD) cell(s []float64, cellID int) geom.CellD {
	cell := geom.CellD(s[:2*c.g.D])
	shell, j := grid.RingIdx(cellID)
	c.g.CellInto(cell, shell, j)
	return cell
}

// point writes node id's Cartesian position relative to the source into v.
func (c *connD) point(v geom.Vec, id int32) {
	d := c.g.D
	geom.Hyperspherical(c.ctx.Pts[int(id)*d : (int(id)+1)*d]).VecInto(v)
}

// nearestArc scores members by the squared distance to the arc center at
// radius RMin (inner) or RMax (outer) in the middle of every angular
// interval — of the U interval, the middle of the polar angle it spans.
func (c *connD) nearestArc(cellID int, outer bool, members []int32) int {
	d := c.g.D
	var buf [4 * geom.StackDim]float64
	s := scratchD(buf[:], 4, d)
	cell := c.cell(s, cellID)
	mid, center := geom.Hyperspherical(s[2*d:3*d]), geom.Vec(s[3*d:])
	p := geom.Vec(mid) // scoring reuses mid's storage once center is known
	mid[geom.AxisR] = cell.Lo(geom.AxisR)
	if outer {
		mid[geom.AxisR] = cell.Hi(geom.AxisR)
	}
	for a := 1; a < d; a++ {
		mid[a] = (cell.Lo(a) + cell.Hi(a)) / 2
	}
	if d > 2 {
		mid[geom.AxisU] = math.Cos((math.Acos(cell.Hi(geom.AxisU)) + math.Acos(cell.Lo(geom.AxisU))) / 2)
	}
	mid.VecInto(center)
	return argmin(members, func(id int32) float64 {
		c.point(p, id)
		return p.Dist2(center)
	})
}

func (c *connD) pointDist2(a, b int32) float64 {
	d := c.g.D
	var buf [2 * geom.StackDim]float64
	s := scratchD(buf[:], 2, d)
	pa, pb := geom.Vec(s[:d]), geom.Vec(s[d:])
	c.point(pa, a)
	c.point(pb, b)
	return pa.Dist2(pb)
}

func (c *connD) connectNatural(idx []int32, src int32, cellID int) {
	var buf [2 * geom.StackDim]float64
	c.ctx.ConnectFull(idx, src, c.cell(scratchD(buf[:], 2, c.g.D), cellID))
}

func (c *connD) connectBinary(idx []int32, src int32, cellID int) {
	var buf [2 * geom.StackDim]float64
	c.ctx.Connect2(idx, src, c.cell(scratchD(buf[:], 2, c.g.D), cellID))
}

// finiteSource rejects a source with a NaN or infinite coordinate, which
// would put every receiver at a non-finite distance.
func finiteSource(xs ...float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: source coordinate %v is not finite", x)
		}
	}
	return nil
}

// nodeDist is the tree edge length over a source and its receivers: node 0
// is the source and node i >= 1 is receivers[i-1].
func nodeDist[P interface{ Dist(P) float64 }](source P, receivers []P) tree.DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

// Build3 runs Algorithm Polar_Grid in three dimensions (§IV-B, Figure 8's
// experiment): BuildDFunc at d = 3 over the receivers as given. Node 0 is
// the source; node i >= 1 is receivers[i-1]. The default builds the natural
// out-degree-10 variant; WithMaxOutDegree(d) for d in [2, 10) selects the
// hybrid or binary variant.
func Build3(source geom.Point3, receivers []geom.Point3, opts ...Option) (*Result, error) {
	if err := finiteSource(source.X, source.Y, source.Z); err != nil {
		return nil, err
	}
	return BuildDFunc(3, len(receivers), func(i int, v []float64) {
		p := receivers[i]
		v[0], v[1], v[2] = p.X-source.X, p.Y-source.Y, p.Z-source.Z
	}, nodeDist(source, receivers), opts...)
}

// BuildD runs Algorithm Polar_Grid in general dimension d >= 2 (§IV-B):
// BuildDFunc over the receivers as given. The source and all receivers must
// share dimension d; node 0 is the source.
func BuildD(source geom.Vec, receivers []geom.Vec, opts ...Option) (*Result, error) {
	d := len(source)
	if d < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", d)
	}
	for i, p := range receivers {
		if len(p) != d {
			return nil, fmt.Errorf("core: receiver %d has dimension %d, want %d", i, len(p), d)
		}
	}
	if err := finiteSource(source...); err != nil {
		return nil, err
	}
	return BuildDFunc(d, len(receivers), func(i int, v []float64) {
		for a, x := range receivers[i] {
			v[a] = x - source[a]
		}
	}, nodeDist(source, receivers), opts...)
}

// BuildDFunc is the Polar_Grid pipeline in dimension d >= 2 (§IV-B), shared
// by BuildD, Build3 and multi-group substrates. The n receivers come
// through accessors: offset(i, v) writes receiver i's position minus the
// source's into v (len(v) == d), from which each receiver is converted in
// place into one flat hyperspherical coordinate array, and dist(i, j) is the
// Euclidean edge length between nodes (node 0 the source, node i >= 1
// receiver i-1). The natural variant has out-degree 2^d + 2; WithMaxOutDegree
// in [2, 2^d+2) selects the hybrid or binary variant. A receiver at a
// non-finite distance from the source fails the build.
func BuildDFunc(d, n int, offset func(i int, v []float64), dist tree.DistFunc, opts ...Option) (*Result, error) {
	if d < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", d)
	}
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, 1<<uint(d)+2)
	if err != nil {
		return nil, err
	}
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, d, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	coords := make([]float64, (n+1)*d) // node i at [i*d, (i+1)*d)
	geom.Vec(coords[:d]).HypersphericalInto(coords[:d])
	scale, err := convertCoords(workers, n, func(i int) float64 {
		h := coords[(i+1)*d : (i+2)*d]
		offset(i, h)
		geom.Vec(h).HypersphericalInto(h)
		return h[geom.AxisR]
	})
	endConv()
	if err != nil {
		return nil, err
	}

	res := &Result{Dim: d, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	k, err := pickK(o, n, func(k int) bool {
		g, err := grid.NewGridD(d, k, scale)
		return err == nil && g.InteriorOccupied(coords[d:])
	}, func(kMax int) (int, error) {
		g, err := grid.MaxFeasibleKDAnalytic(d, coords[d:], scale, kMax, workers)
		if err != nil {
			return 0, err
		}
		return g.K, nil
	})
	var g *grid.GridD
	if err == nil {
		g, err = grid.NewGridD(d, k, scale)
	}
	endGrid()
	if err != nil {
		return nil, err
	}

	endBucket := in.phase("build/bucketing")
	cellOf := make([]int32, n)
	assignCells(workers, cellOf, func(i int) int32 { return int32(g.CellOf(coords[(i+1)*d : (i+2)*d])) })
	groups := groupByCellParallel(cellOf, g.NumCells(), workers)
	endBucket()
	res.K = g.K
	res.Bound = g.UpperBound(arcCoeff(variant))
	if _, err := wireParallel(res, g.K, workers, groups, dist, func(a bisect.Attacher) connector {
		return &connD{ctx: &bisect.CtxD{B: a, D: d, Pts: coords}, g: g}
	}, in); err != nil {
		return nil, err
	}
	return res, nil
}
