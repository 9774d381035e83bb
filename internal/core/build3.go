package core

import (
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

// naturalDegree3D is 2 core links + the 8-way Bisection fan-out (§V: "the
// straightforward extension of our algorithm builds a tree of out-degree
// 10").
const naturalDegree3D = 10

// conn3 adapts the 3-D grid and Bisection context to the wiring interface.
type conn3 struct {
	ctx *bisect.Ctx3
	g   grid.SphereGrid3
}

// nearestArc scores members by the squared distance to the arc center at
// radius RMin (inner) or RMax (outer) in the middle of the cell's angular
// box.
func (c *conn3) nearestArc(cellID int, outer bool, members []int32) int {
	shell, j := grid.RingIdx(cellID)
	cell := c.g.Cell(shell, j)
	r := cell.RMin
	if outer {
		r = cell.RMax
	}
	// Middle of the polar-angle interval (arc-length midpoint), not of the
	// u interval, so the generic BuildD path agrees exactly.
	phiMid := (math.Acos(clampUnit(cell.UMax)) + math.Acos(clampUnit(cell.UMin))) / 2
	center := geom.Spherical{
		R:     r,
		Theta: (cell.ThetaMin + cell.ThetaMax) / 2,
		U:     math.Cos(phiMid),
	}.ToPoint()
	pts := c.ctx.Pts
	return argmin(members, func(id int32) float64 { return pts[id].ToPoint().Dist2(center) })
}

func (c *conn3) pointDist2(a, b int32) float64 {
	return c.ctx.Pts[a].ToPoint().Dist2(c.ctx.Pts[b].ToPoint())
}

func (c *conn3) connectNatural(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect8(idx, src, c.g.Cell(shell, j))
}

func (c *conn3) connectBinary(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Cell(shell, j))
}

func clampUnit(x float64) float64 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

// Build3 runs Algorithm Polar_Grid in three dimensions (§IV-B, Figure 8's
// experiment). Node 0 is the source; node i >= 1 is receivers[i-1]. The
// default builds the natural out-degree-10 variant; WithMaxOutDegree(d) for
// d in [2, 10) selects the binary out-degree-2 variant.
func Build3(source geom.Point3, receivers []geom.Point3, opts ...Option) (*Result, error) {
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree3D)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, 3, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	sph := make([]geom.Spherical, n+1)
	sph[0] = geom.Spherical{U: 1}
	scale := convertCoords(workers, receivers, sph,
		func(p geom.Point3) geom.Spherical { return p.SphericalAround(source) },
		func(c geom.Spherical) float64 { return c.R })
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

	res := &Result{Dim: 3, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	k, err := pickK(o, n, func(k int) bool {
		return grid.SphereGrid3{K: k, Scale: scale}.InteriorOccupied(sph[1:])
	}, func(kMax int) int {
		return grid.MaxFeasibleK3Analytic(sph[1:], scale, kMax, workers)
	})
	endGrid()
	if err != nil {
		return nil, err
	}
	g := grid.SphereGrid3{K: k, Scale: scale}

	endBucket := in.phase("build/bucketing")
	cellOf := make([]int32, n)
	assignCells(workers, cellOf, func(i int) int32 { return int32(g.CellOf(sph[i+1])) })
	groups := groupByCellParallel(cellOf, g.NumCells(), workers)
	endBucket()
	res.K = k
	res.Bound = g.UpperBound(arcCoeff(variant))
	if _, err := wireParallel(res, k, workers, groups, dist, func(a bisect.Attacher) connector {
		return &conn3{ctx: &bisect.Ctx3{B: a, Pts: sph}, g: g}
	}, in); err != nil {
		return nil, err
	}
	return res, nil
}
