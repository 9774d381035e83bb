package core

import (
	"fmt"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

// connD adapts the d-dimensional grid and Bisection context to the wiring
// interface.
type connD struct {
	ctx *bisect.CtxD
	g   *grid.GridD
}

// nearestArc scores members by the squared distance to the arc center at
// radius RMin (inner) or RMax (outer) in the middle of every angular
// interval.
func (c *connD) nearestArc(cellID int, outer bool, members []int32) int {
	shell, j := grid.RingIdx(cellID)
	cell := c.g.Cell(shell, j)
	center := geom.Hyperspherical{
		R:     cell.RMin,
		Theta: (cell.ThetaMin + cell.ThetaMax) / 2,
		Phi:   make([]float64, len(cell.PhiMin)),
	}
	if outer {
		center.R = cell.RMax
	}
	for m := range center.Phi {
		center.Phi[m] = (cell.PhiMin[m] + cell.PhiMax[m]) / 2
	}
	cv := center.ToVec()
	pts := c.ctx.Pts
	return argmin(members, func(id int32) float64 { return pts[id].ToVec().Dist2(cv) })
}

func (c *connD) pointDist2(a, b int32) float64 {
	return c.ctx.Pts[a].ToVec().Dist2(c.ctx.Pts[b].ToVec())
}

func (c *connD) connectNatural(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.ConnectFull(idx, src, c.g.Cell(shell, j))
}

func (c *connD) connectBinary(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Cell(shell, j))
}

// BuildD runs Algorithm Polar_Grid in general dimension d >= 2 (§IV-B).
// The source and all receivers must share dimension d; node 0 is the
// source. The natural variant has out-degree 2^d + 2; WithMaxOutDegree in
// [2, 2^d+2) selects the binary variant. For heavy 2-D or 3-D workloads
// prefer Build2 / Build3, which use specialized coordinates.
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
	o := buildOptions(opts)
	natural := 1<<uint(d) + 2
	variant, degCap, err := variantFor(o.maxOutDegree, natural)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, d, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	hs := make([]geom.Hyperspherical, n+1)
	hs[0] = geom.Hyperspherical{Phi: make([]float64, d-2)}
	scale := convertCoords(workers, receivers, hs,
		func(p geom.Vec) geom.Hyperspherical { return p.Sub(source).ToHyperspherical() },
		func(c geom.Hyperspherical) float64 { return c.R })
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

	res := &Result{Dim: d, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	var g *grid.GridD
	if o.forceK > 0 {
		g, err = grid.NewGridD(d, o.forceK, scale)
		if err != nil {
			endGrid()
			return nil, err
		}
		if o.forceK > 1 && !g.InteriorOccupied(hs[1:]) {
			endGrid()
			return nil, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", o.forceK)
		}
	} else {
		kMax := o.kMax
		if kMax <= 0 {
			kMax = grid.DefaultKMax(n)
		}
		g, err = grid.MaxFeasibleKDAnalytic(d, hs[1:], scale, kMax, workers)
		if err != nil {
			endGrid()
			return nil, err
		}
	}
	endGrid()

	endBucket := in.phase("build/bucketing")
	cellOf := make([]int32, n)
	assignCells(workers, cellOf, func(i int) int32 { return int32(g.CellOf(hs[i+1])) })
	groups := groupByCellParallel(cellOf, g.NumCells(), workers)
	endBucket()
	res.K = g.K
	res.Bound = g.UpperBound(arcCoeff(variant))
	if _, err := wireParallel(res, g.K, workers, groups, dist, func(a bisect.Attacher) connector {
		return &connD{ctx: &bisect.CtxD{B: a, Pts: hs}, g: g}
	}, in); err != nil {
		return nil, err
	}
	return res, nil
}
