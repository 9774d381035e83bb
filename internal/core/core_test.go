package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func dist2For(source geom.Point2, receivers []geom.Point2) func(i, j int) float64 {
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

func TestBuild2NaturalBasics(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 10, 100, 2000} {
		recv := r.UniformDiskN(n, 1)
		res, err := Build2(geom.Point2{}, recv)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Tree.N() != n+1 {
			t.Fatalf("n=%d: tree has %d nodes", n, res.Tree.N())
		}
		if res.Variant != VariantNatural || res.MaxOutDegree != 6 {
			t.Fatalf("n=%d: variant %v degree %d", n, res.Variant, res.MaxOutDegree)
		}
		if err := res.Tree.Validate(6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The radius can never beat the farthest receiver...
		if res.Radius < res.Scale-1e-9 {
			t.Errorf("n=%d: radius %v < scale %v", n, res.Radius, res.Scale)
		}
		// ...and the paper's bound (7) must dominate it.
		if n >= 2 && res.Radius > res.Bound+1e-9 {
			t.Errorf("n=%d: radius %v > bound %v", n, res.Radius, res.Bound)
		}
		if res.CoreDelay > res.Radius+1e-9 {
			t.Errorf("n=%d: core %v > radius %v", n, res.CoreDelay, res.Radius)
		}
		// Cross-check Radius against an independent metric pass.
		got := res.Tree.Radius(dist2For(geom.Point2{}, recv))
		if math.Abs(got-res.Radius) > 1e-9 {
			t.Errorf("n=%d: reported radius %v, recomputed %v", n, res.Radius, got)
		}
	}
}

func TestBuild2BinaryBasics(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 2, 3, 4, 5, 10, 100, 2000} {
		recv := r.UniformDiskN(n, 1)
		res, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Variant != VariantBinary || res.MaxOutDegree != 2 {
			t.Fatalf("n=%d: variant %v degree %d", n, res.Variant, res.MaxOutDegree)
		}
		if err := res.Tree.Validate(2); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 2 && res.Radius > res.Bound+1e-9 {
			t.Errorf("n=%d: radius %v > bound %v", n, res.Radius, res.Bound)
		}
	}
}

func TestBuild2VariantMapping(t *testing.T) {
	recv := rng.New(3).UniformDiskN(50, 1)
	cases := []struct {
		req     int
		variant Variant
		cap     int
	}{
		{0, VariantNatural, 6},
		{6, VariantNatural, 6},
		{10, VariantNatural, 6},
		{2, VariantBinary, 2},
		{3, VariantBinary, 2},
		{4, VariantHybrid, 4},
		{5, VariantHybrid, 4},
	}
	for _, tc := range cases {
		res, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(tc.req))
		if err != nil {
			t.Fatalf("req=%d: %v", tc.req, err)
		}
		if res.Variant != tc.variant || res.MaxOutDegree != tc.cap {
			t.Errorf("req=%d: got (%v, %d), want (%v, %d)",
				tc.req, res.Variant, res.MaxOutDegree, tc.variant, tc.cap)
		}
	}
	if _, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(1)); err == nil {
		t.Error("accepted out-degree 1")
	}
}

func TestBuild2HybridBasics(t *testing.T) {
	r := rng.New(21)
	for _, n := range []int{1, 2, 5, 100, 2000} {
		recv := r.UniformDiskN(n, 1)
		res, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(4))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Variant != VariantHybrid || res.MaxOutDegree != 4 {
			t.Fatalf("n=%d: variant %v degree %d", n, res.Variant, res.MaxOutDegree)
		}
		if err := res.Tree.Validate(4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 2 && res.Radius > res.Bound+1e-9 {
			t.Errorf("n=%d: radius %v > bound %v", n, res.Radius, res.Bound)
		}
	}
	// Hybrid sits between natural and binary in quality (spot check at a
	// size where the ordering is stable).
	recv := r.UniformDiskN(5000, 1)
	nat, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(4))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	if !(nat.Radius <= hyb.Radius+1e-9 && hyb.Radius <= bin.Radius+1e-9) {
		t.Errorf("ordering violated: natural %v, hybrid %v, binary %v",
			nat.Radius, hyb.Radius, bin.Radius)
	}
}

func TestBuild2DegenerateInputs(t *testing.T) {
	// No receivers.
	res, err := Build2(geom.Point2{X: 1, Y: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.N() != 1 || res.K != 0 {
		t.Errorf("empty build: N=%d K=%d", res.Tree.N(), res.K)
	}
	// All receivers coincide with the source.
	coincident := make([]geom.Point2, 25)
	for i := range coincident {
		coincident[i] = geom.Point2{X: 1, Y: 1}
	}
	res, err = Build2(geom.Point2{X: 1, Y: 1}, coincident, WithMaxOutDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(2); err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Errorf("coincident radius = %v", res.Radius)
	}
}

func TestBuild2KGrowsWithN(t *testing.T) {
	r := rng.New(4)
	var prevK int
	for _, n := range []int{100, 1000, 10000} {
		res, err := Build2(geom.Point2{}, r.UniformDiskN(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.K < prevK {
			t.Errorf("k decreased: %d after %d", res.K, prevK)
		}
		// Paper eq. (5): k >= 1/2 log2 n with high probability.
		if float64(res.K) < 0.5*math.Log2(float64(n)) {
			t.Errorf("n=%d: k=%d below 1/2 log2 n", n, res.K)
		}
		prevK = res.K
	}
}

func TestBuild2Convergence(t *testing.T) {
	// Table I: at n=5000 the average delay is ~1.14 (deg 6) and ~1.29
	// (deg 2). Allow generous slack for a single trial.
	r := rng.New(5)
	recv := r.UniformDiskN(5000, 1)
	res6, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res6.Radius / res6.Scale; ratio > 1.35 {
		t.Errorf("deg-6 delay ratio %v, expected ~1.14", ratio)
	}
	res2, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res2.Radius / res2.Scale; ratio > 1.6 {
		t.Errorf("deg-2 delay ratio %v, expected ~1.29", ratio)
	}
	// Degree 2 pays more than degree 6.
	if res2.Radius < res6.Radius-1e-9 {
		t.Errorf("deg-2 radius %v below deg-6 radius %v", res2.Radius, res6.Radius)
	}
}

func TestBuild2ForceK(t *testing.T) {
	r := rng.New(6)
	recv := r.UniformDiskN(2000, 1)
	auto, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	// A smaller forced k must work and still satisfy its own bound.
	forced, err := Build2(geom.Point2{}, recv, WithForceK(auto.K-2))
	if err != nil {
		t.Fatal(err)
	}
	if forced.K != auto.K-2 {
		t.Errorf("forced K = %d, want %d", forced.K, auto.K-2)
	}
	if forced.Radius > forced.Bound+1e-9 {
		t.Errorf("forced radius %v > bound %v", forced.Radius, forced.Bound)
	}
	// An infeasibly large forced k must error.
	if _, err := Build2(geom.Point2{}, recv, WithForceK(auto.K+3)); err == nil {
		t.Error("accepted infeasible forced k")
	}
}

// TestForceKBeyondPointCount forces depths whose 2^k - 2 interior cells
// outnumber the receivers: every dimension must fail with the occupancy
// error before building a grid, so even k = 62 allocates next to nothing.
func TestForceKBeyondPointCount(t *testing.T) {
	r := rng.New(6)
	disk, ball := r.UniformDiskN(2000, 1), r.UniformBall3N(2000, 1)
	vecs := r.UniformBallDN(2000, 4, 1)
	builds := map[string]func(k int) (*Result, error){
		"2d": func(k int) (*Result, error) { return Build2(geom.Point2{}, disk, WithForceK(k)) },
		"3d": func(k int) (*Result, error) { return Build3(geom.Point3{}, ball, WithForceK(k)) },
		"4d": func(k int) (*Result, error) { return BuildD(make(geom.Vec, 4), vecs, WithForceK(k)) },
	}
	for name, build := range builds {
		for _, k := range []int{12, 40, 62, 63, 100} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := build(k)
			runtime.ReadMemStats(&after)
			want := fmt.Sprintf("core: forced k = %d leaves an interior grid cell empty", k)
			if res != nil || err == nil || err.Error() != want {
				t.Fatalf("%s k=%d: result %v, error %v, want %q", name, k, res != nil, err, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s k=%d: allocated %d bytes before failing", name, k, got)
			}
		}
	}
}

func TestBuild2KMaxCap(t *testing.T) {
	r := rng.New(7)
	recv := r.UniformDiskN(2000, 1)
	res, err := Build2(geom.Point2{}, recv, WithKMax(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Errorf("K = %d exceeds cap 3", res.K)
	}
}

func TestBuild2OffCenterSource(t *testing.T) {
	// §IV-C: arbitrary source placement inside a general convex region
	// (unit square).
	r := rng.New(8)
	square := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	recv := r.UniformConvexPolygonN(3000, square)
	source := geom.Point2{X: 0.3, Y: 0.7}
	for _, deg := range []int{6, 2} {
		res, err := Build2(source, recv, WithMaxOutDegree(deg))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Tree.Validate(res.MaxOutDegree); err != nil {
			t.Fatal(err)
		}
		if res.Radius > res.Bound+1e-9 {
			t.Errorf("deg=%d: radius %v > bound %v", deg, res.Radius, res.Bound)
		}
		// The scaled lower bound still applies.
		if res.Radius < res.Scale-1e-9 {
			t.Errorf("deg=%d: radius %v < scale %v", deg, res.Radius, res.Scale)
		}
	}
}

func TestBuild2NonUniformDensity(t *testing.T) {
	// The epsilon-floor mixed density of the paper's extension.
	r := rng.New(9)
	clusters := []rng.Cluster{
		{Center: geom.Point2{X: 0.5, Y: 0.2}, Sigma: 0.05, Weight: 2},
		{Center: geom.Point2{X: -0.4, Y: -0.4}, Sigma: 0.1, Weight: 1},
	}
	recv := r.MixedDensityDiskN(3000, 1, 0.3, clusters)
	res, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(6); err != nil {
		t.Fatal(err)
	}
	if res.Radius > res.Bound+1e-9 {
		t.Errorf("radius %v > bound %v", res.Radius, res.Bound)
	}
}

func TestBuild2Deterministic(t *testing.T) {
	recv := rng.New(10).UniformDiskN(500, 1)
	a, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build2(geom.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Tree.N(); i++ {
		if a.Tree.Parent(i) != b.Tree.Parent(i) {
			t.Fatal("non-deterministic build")
		}
	}
}

func TestBuild2CoreDelayMeaningful(t *testing.T) {
	// The core delay must cover most of the radius for large n (Table I:
	// core 1.00 vs delay 1.14 at n=5000) but be positive and below it.
	r := rng.New(11)
	res, err := Build2(geom.Point2{}, r.UniformDiskN(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreDelay <= 0 || res.CoreDelay > res.Radius {
		t.Errorf("core delay %v vs radius %v", res.CoreDelay, res.Radius)
	}
	if res.CoreDelay < 0.5*res.Radius {
		t.Errorf("core delay %v suspiciously small vs radius %v", res.CoreDelay, res.Radius)
	}
}

func TestBuild3Basics(t *testing.T) {
	r := rng.New(12)
	for _, tc := range []struct {
		deg, cap int
		variant  Variant
	}{{0, 10, VariantNatural}, {10, 10, VariantNatural}, {2, 2, VariantBinary}} {
		for _, n := range []int{1, 3, 50, 2000} {
			recv := r.UniformBall3N(n, 1)
			res, err := Build3(geom.Point3{}, recv, WithMaxOutDegree(tc.deg))
			if err != nil {
				t.Fatalf("deg=%d n=%d: %v", tc.deg, n, err)
			}
			if res.Variant != tc.variant || res.MaxOutDegree != tc.cap {
				t.Fatalf("deg=%d: got (%v, %d)", tc.deg, res.Variant, res.MaxOutDegree)
			}
			if err := res.Tree.Validate(tc.cap); err != nil {
				t.Fatalf("deg=%d n=%d: %v", tc.deg, n, err)
			}
			if n >= 2 && res.Radius > res.Bound+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v > bound %v", tc.deg, n, res.Radius, res.Bound)
			}
			if res.Radius < res.Scale-1e-9 {
				t.Errorf("deg=%d n=%d: radius %v < scale %v", tc.deg, n, res.Radius, res.Scale)
			}
		}
	}
}

func TestBuild3SlowerConvergenceThan2D(t *testing.T) {
	// §V / Figure 8: at equal n, the 3-D delay exceeds the 2-D delay.
	r := rng.New(13)
	n := 5000
	res2, err := Build2(geom.Point2{}, r.UniformDiskN(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Build3(geom.Point3{}, r.UniformBall3N(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Radius <= res2.Radius {
		t.Errorf("3-D radius %v not above 2-D radius %v", res3.Radius, res2.Radius)
	}
}

func TestBuildDBasics(t *testing.T) {
	r := rng.New(14)
	for _, d := range []int{2, 3, 4, 5} {
		natural := 1<<uint(d) + 2
		for _, deg := range []int{0, 2} {
			recv := r.UniformBallDN(500, d, 1)
			src := make(geom.Vec, d)
			res, err := BuildD(src, recv, WithMaxOutDegree(deg))
			if err != nil {
				t.Fatalf("d=%d deg=%d: %v", d, deg, err)
			}
			wantCap := natural
			if deg == 2 {
				wantCap = 2
			}
			if res.MaxOutDegree != wantCap {
				t.Fatalf("d=%d deg=%d: cap %d, want %d", d, deg, res.MaxOutDegree, wantCap)
			}
			if err := res.Tree.Validate(wantCap); err != nil {
				t.Fatalf("d=%d deg=%d: %v", d, deg, err)
			}
			if res.Radius > res.Bound+1e-9 {
				t.Errorf("d=%d deg=%d: radius %v > bound %v", d, deg, res.Radius, res.Bound)
			}
		}
	}
}

func TestBuildDValidation(t *testing.T) {
	if _, err := BuildD(geom.Vec{1}, nil); err == nil {
		t.Error("accepted dimension 1")
	}
	if _, err := BuildD(geom.Vec{0, 0}, []geom.Vec{{1, 2, 3}}); err == nil {
		t.Error("accepted mixed dimensions")
	}
}

func TestBuildDAgreesWithBuild2(t *testing.T) {
	// Same points, same grid family: the 2-D specialized and generic paths
	// must produce identical trees.
	r := rng.New(15)
	recv2 := r.UniformDiskN(800, 1)
	recvD := make([]geom.Vec, len(recv2))
	for i, p := range recv2 {
		recvD[i] = p.Vec()
	}
	a, err := Build2(geom.Point2{}, recv2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildD(geom.Vec{0, 0}, recvD, WithMaxOutDegree(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatalf("K mismatch: %d vs %d", a.K, b.K)
	}
	if math.Abs(a.Radius-b.Radius) > 1e-9 {
		t.Errorf("radius mismatch: %v vs %v", a.Radius, b.Radius)
	}
	for i := 0; i < a.Tree.N(); i++ {
		if a.Tree.Parent(i) != b.Tree.Parent(i) {
			t.Fatalf("tree mismatch at node %d", i)
		}
	}
}

func TestVariantString(t *testing.T) {
	if VariantNatural.String() != "natural" || VariantBinary.String() != "binary" {
		t.Error("variant names wrong")
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should stringify")
	}
}
