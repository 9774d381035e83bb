package bisect

import (
	"fmt"
	"math"

	"omtree/internal/geom"
	"omtree/internal/tree"
)

// originFactor controls how far away the covering segment's polar origin is
// placed, as a multiple of the point set's covering radius h. At distance
// 5h the segment satisfies the factor-5 preconditions with margin: the
// angular width a <= 2*atan(h/(5h-h)) ~ 0.49 < 0.97 (where sin a > 5a/6
// holds) and r/R >= (5h-h)/(5h+h) = 2/3 > 0.6.
const originFactor = 5

// Report carries the certificate quantities of a standalone Bisection
// build: the covering segment, its polar origin, the inequality (1)/(2)
// upper bound on every tree path, and a sound lower bound on the optimum
// (the largest direct source-to-point distance — no tree can beat a direct
// link).
type Report struct {
	Segment    geom.RingSegment
	OriginDist float64 // distance from the point cloud's center to the polar origin
	SourceR    float64 // the source's polar radius q
	PathBound  float64
	LowerBound float64
}

// PathBound4 evaluates inequality (1): the upper bound on any path of the
// out-degree-4 Bisection tree over segment seg with source radius q.
func PathBound4(seg geom.RingSegment, q float64) float64 {
	return math.Max(seg.RMax-q, q-seg.RMin) + 2*seg.RMax*seg.Angle()
}

// PathBound2 evaluates inequality (2): the out-degree-2 version, whose
// angular term doubles because two links are spent per level.
func PathBound2(seg geom.RingSegment, q float64) float64 {
	return math.Max(seg.RMax-q, q-seg.RMin) + 4*seg.RMax*seg.Angle()
}

// BuildTree runs the standalone 2-D Bisection over an arbitrary planar
// point set: it covers the points with a thin, nearly-flat ring segment
// whose polar origin lies far below the cloud, then runs the degree-4 (for
// maxOutDegree >= 4) or degree-2 (for maxOutDegree in {2, 3}) recursion.
// source indexes into points; maxOutDegree must be at least 2.
func BuildTree(points []geom.Point2, source, maxOutDegree int) (*tree.Tree, Report, error) {
	if maxOutDegree < 2 {
		return nil, Report{}, fmt.Errorf("bisect: out-degree %d < 2 cannot span arbitrary point sets", maxOutDegree)
	}
	n := len(points)
	if source < 0 || source >= n {
		return nil, Report{}, fmt.Errorf("bisect: source %d out of range [0, %d)", source, n)
	}
	b, err := tree.NewBuilder(n, source, maxOutDegree)
	if err != nil {
		return nil, Report{}, err
	}
	if n == 1 {
		t, err := b.Build()
		return t, Report{}, err
	}

	// Cover the cloud: center of the minimum enclosing circle, radius h.
	cover := geom.EnclosingCircle(points)
	center, h := cover.Center, cover.Radius

	idx := make([]int32, 0, n-1)
	for i := 0; i < n; i++ {
		if i != source {
			idx = append(idx, int32(i))
		}
	}

	if h == 0 {
		// All points coincide; geometry is useless and any balanced tree is
		// optimal (all edges are zero-length).
		attachKary(b, idx, int32(source), maxOutDegree)
		t, err := b.Build()
		return t, Report{}, err
	}

	origin := geom.Point2{X: center.X, Y: center.Y - originFactor*h}
	polars := make([]geom.Polar, n)
	seg := geom.RingSegment{
		RMin: math.Inf(1), RMax: math.Inf(-1),
		ThetaMin: math.Inf(1), ThetaMax: math.Inf(-1),
	}
	var lower float64
	for i, p := range points {
		c := p.PolarAround(origin)
		polars[i] = c
		seg.RMin = math.Min(seg.RMin, c.R)
		seg.RMax = math.Max(seg.RMax, c.R)
		seg.ThetaMin = math.Min(seg.ThetaMin, c.Theta)
		seg.ThetaMax = math.Max(seg.ThetaMax, c.Theta)
		if d := p.Dist(points[source]); d > lower {
			lower = d
		}
	}

	ctx := &Ctx2{B: b, Pts: polars}
	rep := Report{
		Segment:    seg,
		OriginDist: originFactor * h,
		SourceR:    polars[source].R,
		LowerBound: lower,
	}
	if maxOutDegree >= 4 {
		ctx.Connect4(idx, int32(source), seg)
		rep.PathBound = PathBound4(seg, polars[source].R)
	} else {
		ctx.Connect2(idx, int32(source), seg)
		rep.PathBound = PathBound2(seg, polars[source].R)
	}
	t, err := b.Build()
	if err != nil {
		return nil, Report{}, err
	}
	return t, rep, nil
}

// ReportD is the certificate of a standalone d-dimensional build.
type ReportD struct {
	Cell       geom.CellD
	PathBound  float64
	LowerBound float64
}

// BuildTreeD is the standalone d-dimensional Bisection (d >= 2); all points
// must share dimension d. The points are covered with a thin hyperspherical
// cell whose origin lies far from the cloud along -x_2. maxOutDegree >= 2^d
// runs the natural recursion; anything in [2, 2^d) runs the degree-2 relay
// variant.
func BuildTreeD(points []geom.Vec, source, maxOutDegree int) (*tree.Tree, ReportD, error) {
	if maxOutDegree < 2 {
		return nil, ReportD{}, fmt.Errorf("bisect: out-degree %d < 2 cannot span arbitrary point sets", maxOutDegree)
	}
	n := len(points)
	if source < 0 || source >= n {
		return nil, ReportD{}, fmt.Errorf("bisect: source %d out of range [0, %d)", source, n)
	}
	if n == 0 {
		return nil, ReportD{}, fmt.Errorf("bisect: no points")
	}
	d := len(points[0])
	if d < 2 {
		return nil, ReportD{}, fmt.Errorf("bisect: dimension %d < 2", d)
	}
	for i, p := range points {
		if len(p) != d {
			return nil, ReportD{}, fmt.Errorf("bisect: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	b, err := tree.NewBuilder(n, source, maxOutDegree)
	if err != nil {
		return nil, ReportD{}, err
	}
	if n == 1 {
		t, err := b.Build()
		return t, ReportD{}, err
	}

	center := make(geom.Vec, d)
	for _, p := range points {
		for j := range center {
			center[j] += p[j]
		}
	}
	inv := 1 / float64(n) // scale, not divide: TestFrozenBuildTree3 pins these bits
	for j := range center {
		center[j] *= inv
	}
	_, h := geom.FarthestFromVec(center, points)

	idx := make([]int32, 0, n-1)
	for i := 0; i < n; i++ {
		if i != source {
			idx = append(idx, int32(i))
		}
	}
	if h == 0 {
		attachKary(b, idx, int32(source), maxOutDegree)
		t, err := b.Build()
		return t, ReportD{}, err
	}

	// Offset along -x_2: the cloud then sits near azimuth pi/2 (far from the
	// atan2 branch cut at 0/2pi) and near the equator of every polar angle
	// (far from the poles, where the azimuth degenerates), keeping every
	// angular coordinate in a thin interval.
	origin := center.Clone()
	origin[1] -= originFactor * h
	hs := make([]float64, n*d)
	cell := make(geom.CellD, 2*d)
	for a := 0; a < d; a++ {
		cell[2*a], cell[2*a+1] = math.Inf(1), math.Inf(-1)
	}
	var lower float64
	for i, p := range points {
		c := geom.Hyperspherical(hs[i*d : (i+1)*d])
		for a := range c {
			c[a] = p[a] - origin[a]
		}
		geom.Vec(c).HypersphericalInto(c)
		for a, x := range c {
			cell[2*a] = math.Min(cell[2*a], x)
			cell[2*a+1] = math.Max(cell[2*a+1], x)
		}
		if dd := p.Dist(points[source]); dd > lower {
			lower = dd
		}
	}

	ctx := &CtxD{B: b, D: d, Pts: hs}
	rep := ReportD{Cell: cell, LowerBound: lower}
	q, rMin, rMax := hs[source*d], cell.Lo(geom.AxisR), cell.Hi(geom.AxisR)
	radial := math.Max(rMax-q, q-rMin)
	angle := cell.MaxAngle()
	if maxOutDegree >= 1<<uint(d) {
		ctx.ConnectFull(idx, int32(source), cell)
		rep.PathBound = radial + 2*rMax*angle
	} else {
		ctx.Connect2(idx, int32(source), cell)
		// Each relay level multiplies the per-level angular spend by the
		// helper-tree depth; 2^(d-1) links bound d-1 relay levels.
		rep.PathBound = radial + float64(int(1)<<uint(d))*rMax*angle
	}
	t, err := b.Build()
	if err != nil {
		return nil, ReportD{}, err
	}
	return t, rep, nil
}
