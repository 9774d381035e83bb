package bisect

import (
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

func dist2(pts []geom.Point2) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func dist3(pts []geom.Point3) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func distD(pts []geom.Vec) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func TestBuildTreeInvalidArgs(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}}
	if _, _, err := BuildTree(pts, 0, 1); err == nil {
		t.Error("accepted out-degree 1")
	}
	if _, _, err := BuildTree(pts, 5, 4); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, _, err := BuildTree(pts, -1, 4); err == nil {
		t.Error("accepted negative source")
	}
}

func TestBuildTreeSingle(t *testing.T) {
	tr, _, err := BuildTree([]geom.Point2{{X: 3, Y: 4}}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 1 {
		t.Errorf("N = %d", tr.N())
	}
}

func TestBuildTreePair(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}}
	tr, rep, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Radius(dist2(pts)); math.Abs(got-1) > 1e-12 {
		t.Errorf("radius = %v, want 1", got)
	}
	if rep.LowerBound != 1 {
		t.Errorf("lower bound = %v", rep.LowerBound)
	}
}

func TestBuildTreeDegreesAndValidity(t *testing.T) {
	r := rng.New(1)
	for _, deg := range []int{2, 3, 4, 6} {
		for _, n := range []int{2, 5, 17, 200, 1000} {
			pts := r.UniformDiskN(n, 1)
			tr, rep, err := BuildTree(pts, 0, deg)
			if err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			capDeg := 4
			if deg < 4 {
				capDeg = 2
			}
			if err := tr.Validate(capDeg); err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			radius := tr.Radius(dist2(pts))
			if radius > rep.PathBound+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v exceeds path bound %v", deg, n, radius, rep.PathBound)
			}
			if radius < rep.LowerBound-1e-9 {
				t.Errorf("deg=%d n=%d: radius %v below lower bound %v", deg, n, radius, rep.LowerBound)
			}
		}
	}
}

func TestBuildTreeSegmentPreconditions(t *testing.T) {
	// The covering segment must satisfy the factor-5 preconditions:
	// sin(a) > (5/6) a and r > 0.6 R.
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		pts := r.UniformDiskN(100, 1)
		_, rep, err := BuildTree(pts, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		a := rep.Segment.Angle()
		if !(math.Sin(a) > 5.0/6.0*a) {
			t.Errorf("angle %v violates sin(a) > 5a/6", a)
		}
		if !(rep.Segment.RMin > 0.6*rep.Segment.RMax) {
			t.Errorf("r/R = %v <= 0.6", rep.Segment.RMin/rep.Segment.RMax)
		}
	}
}

func TestBuildTreeApproximationQuality(t *testing.T) {
	// Theorem 1: radius <= 5*OPT for degree 4 (9*OPT for degree 2). OPT is
	// at least the max direct distance from the source (rep.LowerBound), so
	// radius/LowerBound <= 5 (resp. 9) must hold a fortiori... only when
	// LowerBound ~ OPT. Check the certificate chain instead: radius <=
	// PathBound, and PathBound <= 5 (resp. 9) * the segment-derived OPT
	// lower bound max(R-q, q-r, r*sin(a)).
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(300)
		pts := r.UniformDiskN(n, 1)
		src := r.Intn(n)

		for _, tc := range []struct {
			deg    int
			factor float64
		}{{4, 5}, {2, 9}} {
			tr, rep, err := BuildTree(pts, src, tc.deg)
			if err != nil {
				t.Fatal(err)
			}
			seg, q := rep.Segment, rep.SourceR
			optLB := math.Max(math.Max(seg.RMax-q, q-seg.RMin), seg.RMin*math.Sin(seg.Angle()))
			if optLB <= 0 {
				continue
			}
			radius := tr.Radius(dist2(pts))
			if radius > tc.factor*optLB+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v > %v * segment lower bound %v",
					tc.deg, n, radius, tc.factor, optLB)
			}
		}
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	r := rng.New(4)
	pts := r.UniformDiskN(300, 1)
	t1, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < t1.N(); i++ {
		if t1.Parent(i) != t2.Parent(i) {
			t.Fatal("non-deterministic tree")
		}
	}
}

func TestBuildTreeCoincidentPoints(t *testing.T) {
	pts := make([]geom.Point2, 20)
	for i := range pts {
		pts[i] = geom.Point2{X: 1, Y: 2}
	}
	tr, _, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Radius(dist2(pts)); got != 0 {
		t.Errorf("radius = %v, want 0", got)
	}
}

func TestBuildTreeNearCoincidentClusters(t *testing.T) {
	// Two tight clusters exercise deep recursion before degeneration.
	var pts []geom.Point2
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point2{X: 0, Y: float64(i) * 1e-15})
		pts = append(pts, geom.Point2{X: 1, Y: float64(i) * 1e-15})
	}
	tr, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeCollinear(t *testing.T) {
	pts := make([]geom.Point2, 50)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(i), Y: 0}
	}
	tr, rep, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	if radius := tr.Radius(dist2(pts)); radius > rep.PathBound+1e-9 {
		t.Errorf("radius %v > bound %v", radius, rep.PathBound)
	}
}

func TestConnect4InCell(t *testing.T) {
	// Drive the cell-level API directly, as the core algorithm does.
	r := rng.New(5)
	seg := geom.RingSegment{RMin: 0.5, RMax: 0.8, ThetaMin: 1.0, ThetaMax: 1.4}
	n := 64
	polars := make([]geom.Polar, n)
	for i := range polars {
		polars[i] = geom.Polar{
			R:     seg.RMin + r.Float64()*(seg.RMax-seg.RMin),
			Theta: seg.ThetaMin + r.Float64()*(seg.ThetaMax-seg.ThetaMin),
		}
	}
	b, err := tree.NewBuilder(n, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx2{B: b, Pts: polars}
	idx := make([]int32, 0, n-1)
	for i := 1; i < n; i++ {
		idx = append(idx, int32(i))
	}
	ctx.Connect4(idx, 0, seg)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Inequality (1) holds for the realized tree.
	pts := make([]geom.Point2, n)
	for i, c := range polars {
		pts[i] = c.ToPoint()
	}
	if radius := tr.Radius(dist2(pts)); radius > PathBound4(seg, polars[0].R)+1e-9 {
		t.Errorf("radius %v > bound %v", radius, PathBound4(seg, polars[0].R))
	}
}

func TestConnect2InCell(t *testing.T) {
	r := rng.New(6)
	seg := geom.RingSegment{RMin: 0.9, RMax: 1.0, ThetaMin: 0.2, ThetaMax: 0.5}
	for _, n := range []int{1, 2, 3, 4, 5, 9, 33, 100} {
		polars := make([]geom.Polar, n)
		for i := range polars {
			polars[i] = geom.Polar{
				R:     seg.RMin + r.Float64()*(seg.RMax-seg.RMin),
				Theta: seg.ThetaMin + r.Float64()*(seg.ThetaMax-seg.ThetaMin),
			}
		}
		b, err := tree.NewBuilder(n, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Ctx2{B: b, Pts: polars}
		idx := make([]int32, 0, n-1)
		for i := 1; i < n; i++ {
			idx = append(idx, int32(i))
		}
		ctx.Connect2(idx, 0, seg)
		tr, err := b.Build()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tr.Validate(2); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		pts := make([]geom.Point2, n)
		for i, c := range polars {
			pts[i] = c.ToPoint()
		}
		if radius := tr.Radius(dist2(pts)); radius > PathBound2(seg, polars[0].R)+1e-9 {
			t.Errorf("n=%d: radius %v > bound %v", n, radius, PathBound2(seg, polars[0].R))
		}
	}
}

// vecs3 converts 3-D points to the d-dimensional representation.
func vecs3(pts []geom.Point3) []geom.Vec {
	out := make([]geom.Vec, len(pts))
	for i, p := range pts {
		out[i] = p.Vec()
	}
	return out
}

// TestBuildTree3 covers the standalone 3-D Bisection: BuildTreeD at d = 3.
func TestBuildTree3(t *testing.T) {
	r := rng.New(7)
	for _, deg := range []int{2, 8, 10} {
		for _, n := range []int{1, 2, 3, 10, 200} {
			pts := r.UniformBall3N(n, 1)
			tr, rep, err := BuildTreeD(vecs3(pts), 0, deg)
			if err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			capDeg := 8
			if deg < 8 {
				capDeg = 2
			}
			if err := tr.Validate(capDeg); err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			if n > 1 {
				radius := tr.Radius(dist3(pts))
				if radius > rep.PathBound+1e-9 {
					t.Errorf("deg=%d n=%d: radius %v > bound %v", deg, n, radius, rep.PathBound)
				}
				if radius < rep.LowerBound-1e-9 {
					t.Errorf("deg=%d n=%d: radius %v < lower %v", deg, n, radius, rep.LowerBound)
				}
			}
		}
	}
}

func TestBuildTree3Coincident(t *testing.T) {
	tr, _, err := BuildTreeD(vecs3(make([]geom.Point3, 9)), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeD(t *testing.T) {
	r := rng.New(8)
	for _, d := range []int{2, 3, 4, 5} {
		for _, deg := range []int{2, 1 << uint(d)} {
			n := 150
			pts := r.UniformBallDN(n, d, 1)
			tr, rep, err := BuildTreeD(pts, 0, deg)
			if err != nil {
				t.Fatalf("d=%d deg=%d: %v", d, deg, err)
			}
			capDeg := deg
			if deg < 1<<uint(d) {
				capDeg = 2
			}
			if err := tr.Validate(capDeg); err != nil {
				t.Fatalf("d=%d deg=%d: %v", d, deg, err)
			}
			radius := tr.Radius(distD(pts))
			if radius > rep.PathBound+1e-9 {
				t.Errorf("d=%d deg=%d: radius %v > bound %v", d, deg, radius, rep.PathBound)
			}
		}
	}
}

func TestBuildTreeDValidation(t *testing.T) {
	if _, _, err := BuildTreeD([]geom.Vec{{1}}, 0, 2); err == nil {
		t.Error("accepted dimension 1")
	}
	if _, _, err := BuildTreeD([]geom.Vec{{1, 2}, {1, 2, 3}}, 0, 2); err == nil {
		t.Error("accepted mixed dimensions")
	}
	if _, _, err := BuildTreeD(nil, 0, 2); err == nil {
		t.Error("accepted empty input")
	}
}

func TestBuildTreeDMatches2DQualitatively(t *testing.T) {
	// The d=2 generic path and the specialized 2-D path won't build
	// byte-identical trees (different covering cells), but both must beat
	// the same bound scale.
	r := rng.New(9)
	pts2 := r.UniformDiskN(200, 1)
	vecs := make([]geom.Vec, len(pts2))
	for i, p := range pts2 {
		vecs[i] = p.Vec()
	}
	t2, _, err := BuildTree(pts2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	td, _, err := BuildTreeD(vecs, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2 := t2.Radius(dist2(pts2))
	rd := td.Radius(distD(vecs))
	if rd > 3*r2+1e-9 && r2 > 3*rd+1e-9 {
		t.Errorf("radii wildly inconsistent: 2-D %v, d-D %v", r2, rd)
	}
}

func TestAttachKary(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		n := 20
		b, err := tree.NewBuilder(n, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int32, 0, n-1)
		for i := 1; i < n; i++ {
			idx = append(idx, int32(i))
		}
		attachKary(b, idx, 0, k)
		tr, err := b.Build()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := tr.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Depth must be logarithmic-ish, not linear, for k >= 2.
		if k >= 2 && tr.Height() > 3+int(math.Ceil(math.Log(float64(n))/math.Log(float64(k)))) {
			t.Errorf("k=%d: height %d too large", k, tr.Height())
		}
	}
}

func TestPickRepTieBreak(t *testing.T) {
	radius := func(id int32) float64 { return 1 }
	idx := []int32{5, 3, 9}
	if p := pickRep(idx, radius, 1); idx[p] != 3 {
		t.Errorf("tie-break picked %d, want 3", idx[p])
	}
}
