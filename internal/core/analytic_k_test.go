package core

import (
	"bytes"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
)

// assertSameBuild runs one build with the analytic k search and requires
// its k to equal trialK — the reference trial loop's answer over the same
// converted coordinates, 0 for degenerate geometry — and its tree and
// metrics to equal a build forced to that k.
func assertSameBuild(t *testing.T, name string, trialK int, build func(extra ...Option) (*Result, error)) {
	t.Helper()
	analytic, err := build()
	if err != nil {
		t.Fatalf("%s analytic: %v", name, err)
	}
	if analytic.K != trialK {
		t.Fatalf("%s: analytic k=%d, trial k=%d", name, analytic.K, trialK)
	}
	if trialK == 0 {
		return // degenerate geometry: no grid to force
	}
	forced, err := build(WithForceK(trialK))
	if err != nil {
		t.Fatalf("%s forced k=%d: %v", name, trialK, err)
	}
	if !bytes.Equal(treeBytes(t, analytic.Tree), treeBytes(t, forced.Tree)) {
		t.Fatalf("%s: trees differ at k=%d", name, trialK)
	}
	if analytic.Radius != forced.Radius || analytic.Bound != forced.Bound {
		t.Fatalf("%s: metrics differ: radius %v vs %v, bound %v vs %v",
			name, analytic.Radius, forced.Radius, analytic.Bound, forced.Bound)
	}
}

// trialKMax resolves the search ceiling a build uses for n receivers.
func trialKMax(kMax, n int) int {
	if kMax <= 0 {
		return grid.DefaultKMax(n)
	}
	return kMax
}

// trialK2 is the trial-loop k over Build2's polar conversion of pts.
func trialK2(source geom.Point2, pts []geom.Point2, kMax int) int {
	polars := make([]geom.Polar, len(pts))
	var scale float64
	for i, p := range pts {
		polars[i] = p.PolarAround(source)
		scale = max(scale, polars[i].R)
	}
	if scale == 0 {
		return 0
	}
	return grid.MaxFeasibleK(polars, scale, trialKMax(kMax, len(pts)))
}

// trialK3 is the trial-loop k over Build3's spherical conversion of pts.
func trialK3(source geom.Point3, pts []geom.Point3) int {
	sph := make([]geom.Spherical, len(pts))
	var scale float64
	for i, p := range pts {
		sph[i] = p.SphericalAround(source)
		scale = max(scale, sph[i].R)
	}
	if scale == 0 {
		return 0
	}
	return grid.MaxFeasibleK3(sph, scale, trialKMax(0, len(pts)))
}

// trialKD is the trial-loop k over BuildD's hyperspherical conversion of pts.
func trialKD(t *testing.T, source geom.Vec, pts []geom.Vec) int {
	hs := make([]geom.Hyperspherical, len(pts))
	var scale float64
	for i, p := range pts {
		hs[i] = p.Sub(source).ToHyperspherical()
		scale = max(scale, hs[i].R)
	}
	if scale == 0 {
		return 0
	}
	g, err := grid.MaxFeasibleKD(len(source), hs, scale, trialKMax(0, len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	return g.K
}

func TestAnalyticKMatchesTrial2D(t *testing.T) {
	sizes := []int{0, 1, 2, 5, 50, 500, 5000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		for _, seed := range []uint64{1, 2} {
			r := rng.New(seed*1000 + uint64(n))
			for _, scale := range []float64{1, 250} {
				pts := r.UniformDiskN(n, scale)
				want := trialK2(geom.Point2{}, pts, 0)
				for _, deg := range []int{2, 4, 6} {
					build := func(extra ...Option) (*Result, error) {
						return Build2(geom.Point2{}, pts, append([]Option{WithMaxOutDegree(deg)}, extra...)...)
					}
					assertSameBuild(t, "2d", want, build)
				}
			}
		}
	}
}

func TestAnalyticKMatchesTrial3D(t *testing.T) {
	sizes := []int{1, 10, 200, 3000}
	if !testing.Short() {
		sizes = append(sizes, 30000)
	}
	for _, n := range sizes {
		r := rng.New(uint64(77 + n))
		pts := r.UniformBall3N(n, 1)
		build := func(extra ...Option) (*Result, error) {
			return Build3(geom.Point3{}, pts, extra...)
		}
		assertSameBuild(t, "3d", trialK3(geom.Point3{}, pts), build)
	}
}

func TestAnalyticKMatchesTrialD(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		for _, n := range []int{1, 30, 800} {
			r := rng.New(uint64(10*d + n))
			pts := r.UniformBallDN(n, d, 3)
			build := func(extra ...Option) (*Result, error) {
				return BuildD(geom.NewVec(d), pts, extra...)
			}
			assertSameBuild(t, "dD", trialKD(t, geom.NewVec(d), pts), build)
		}
	}
}

// Clustered layouts stress the estimate: the analytic cap undershoots or
// overshoots the verified k, exercising the escalation path end to end.
func TestAnalyticKMatchesTrialClustered(t *testing.T) {
	r := rng.New(31)
	pts := r.ClusteredDiskN(2000, 1, []rng.Cluster{
		{Center: geom.Point2{X: 0.1, Y: 0}, Sigma: 0.01, Weight: 0.8},
		{Center: geom.Point2{X: -0.5, Y: 0.5}, Sigma: 0.3, Weight: 0.2},
	})
	build := func(extra ...Option) (*Result, error) {
		return Build2(geom.Point2{}, pts, extra...)
	}
	assertSameBuild(t, "clustered", trialK2(geom.Point2{}, pts, 0), build)
}

// The kMax cap must bound the analytic search exactly as it bounds the
// trial loop, and an infeasible forced depth must fail.
func TestAnalyticKOptionParity(t *testing.T) {
	r := rng.New(8)
	pts := r.UniformDiskN(1000, 1)
	for _, kMax := range []int{1, 3, 20} {
		build := func(extra ...Option) (*Result, error) {
			return Build2(geom.Point2{}, pts, append([]Option{WithKMax(kMax)}, extra...)...)
		}
		assertSameBuild(t, "kmax", trialK2(geom.Point2{}, pts, kMax), build)
	}
	const want = "core: forced k = 15 leaves an interior grid cell empty"
	if _, err := Build2(geom.Point2{}, pts, WithForceK(15)); err == nil || err.Error() != want {
		t.Fatalf("forceK error = %v, want %q", err, want)
	}
}
