package core

import (
	"fmt"
	"sync"
	"testing"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

// metricsCase is one input of TestBuildMetricsMatchTreeDelays: a build
// closure over fixed receivers, the tree's edge length, and a recomputation
// of the build's representatives from the grid it reports.
type metricsCase struct {
	name    string
	degrees []int // natural, hybrid, binary
	build   func(opts ...Option) (*Result, error)
	dist    tree.DistFunc
	reps    func(res *Result) []int32
}

// freshReps re-derives every cell's representative from scratch: bucket the
// receivers with cellOf, then pick each cell's representative with conn.
func freshReps(n, numCells int, cellOf func(node int) int, conn connector) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(cellOf(i + 1))
	}
	g := groupByCell(ids, numCells)
	reps := make([]int32, numCells)
	for c := range reps {
		reps[c] = repOf(g.order[g.start[c]:g.start[c+1]], c, conn)
	}
	reps[0] = -1
	return reps
}

func disk2Case(name string, source geom.Point2, recv []geom.Point2) metricsCase {
	return metricsCase{
		name:    name,
		degrees: []int{6, 4, 2},
		build: func(opts ...Option) (*Result, error) {
			return Build2(source, recv, opts...)
		},
		dist: dist2For(source, recv),
		reps: func(res *Result) []int32 {
			pts := make([]geom.Polar, len(recv)+1)
			for i, p := range recv {
				pts[i+1] = p.PolarAround(source)
			}
			g := grid.PolarGrid{K: res.K, Scale: res.Scale}
			conn := &conn2{ctx: &bisect.Ctx2{Pts: pts}, g: g}
			return freshReps(len(recv), g.NumCells(), func(i int) int { return g.CellOf(pts[i]) }, conn)
		},
	}
}

// state2Case builds through a BuildState over recv in slot order: one full
// rebuild, or, when incremental, a full rebuild without every 50th receiver
// followed by an incremental rebuild once they join. WithParallelism is
// ignored (the state is serial).
func state2Case(t *testing.T, name string, source geom.Point2, recv []geom.Point2, incremental bool) metricsCase {
	tc := disk2Case(name, source, recv)
	tc.build = func(opts ...Option) (*Result, error) {
		bs, err := NewBuildState(source, opts...)
		if err != nil {
			return nil, err
		}
		var late []int
		for i, p := range recv {
			if incremental && i%50 == 1 {
				late = append(late, i)
				continue
			}
			bs.Add(i+1, p)
		}
		res, _, err := bs.Rebuild()
		if err != nil || !incremental {
			return res, err
		}
		for _, i := range late {
			bs.Add(i+1, recv[i])
		}
		res, full, err := bs.Rebuild()
		if err == nil && full {
			t.Fatalf("%s: rebuild after %d joins fell back to a full rebuild", name, len(late))
		}
		return res, err
	}
	return tc
}

func ball3Case(name string, recv []geom.Point3) metricsCase {
	var source geom.Point3
	return metricsCase{
		name:    name,
		degrees: []int{10, 4, 2},
		build: func(opts ...Option) (*Result, error) {
			return Build3(source, recv, opts...)
		},
		dist: dist3For(source, recv),
		reps: func(res *Result) []int32 {
			pts := make([]geom.Spherical, len(recv)+1)
			pts[0] = geom.Spherical{U: 1}
			for i, p := range recv {
				pts[i+1] = p.SphericalAround(source)
			}
			g := grid.SphereGrid3{K: res.K, Scale: res.Scale}
			conn := &conn3{ctx: &bisect.Ctx3{Pts: pts}, g: g}
			return freshReps(len(recv), g.NumCells(), func(i int) int { return g.CellOf(pts[i]) }, conn)
		},
	}
}

func ballDCase(t *testing.T, name string, d int, recv []geom.Vec) metricsCase {
	source := make(geom.Vec, d)
	return metricsCase{
		name:    name,
		degrees: []int{1<<uint(d) + 2, 4, 2},
		build: func(opts ...Option) (*Result, error) {
			return BuildD(source, recv, opts...)
		},
		dist: distDFor(source, recv),
		reps: func(res *Result) []int32 {
			pts := make([]geom.Hyperspherical, len(recv)+1)
			pts[0] = geom.Hyperspherical{Phi: make([]float64, d-2)}
			for i, p := range recv {
				pts[i+1] = p.Sub(source).ToHyperspherical()
			}
			g, err := grid.NewGridD(d, res.K, res.Scale)
			if err != nil {
				t.Fatal(err)
			}
			conn := &connD{ctx: &bisect.CtxD{Pts: pts}, g: g}
			return freshReps(len(recv), g.NumCells(), func(i int) int { return g.CellOf(pts[i]) }, conn)
		},
	}
}

// TestBuildMetricsMatchTreeDelays: the Radius and CoreDelay a build records
// while wiring are bitwise equal to the maxima of a fresh tree.Delays walk
// of the finished tree — for every dimension, variant and worker count, on
// uniform, off-center, clustered, forced-depth, degenerate and small inputs,
// and for BuildState's full and incremental rebuilds.
func TestBuildMetricsMatchTreeDelays(t *testing.T) {
	r := rng.New(77)
	square := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}}
	clusters := []rng.Cluster{
		{Center: geom.Point2{X: 0.5, Y: 0.2}, Sigma: 0.05, Weight: 2},
		{Center: geom.Point2{X: -0.4, Y: -0.4}, Sigma: 0.1, Weight: 1},
	}
	// Coincident receivers away from the source: the in-cell Bisection
	// falls back to its balanced k-ary attachment.
	stacked := append(r.UniformDiskN(300, 1), make([]geom.Point2, 200)...)
	for i := 300; i < len(stacked); i++ {
		stacked[i] = geom.Point2{X: 0.4, Y: -0.3}
	}

	cases := []metricsCase{
		disk2Case("2d/uniform", geom.Point2{}, r.UniformDiskN(4000, 1)),
		disk2Case("2d/off-center", geom.Point2{X: 0.3, Y: 0.7}, r.UniformConvexPolygonN(3000, square)),
		disk2Case("2d/non-uniform", geom.Point2{}, r.MixedDensityDiskN(3000, 1, 0.3, clusters)),
		disk2Case("2d/stacked", geom.Point2{}, stacked),
		disk2Case("2d/below-threshold", geom.Point2{}, r.UniformDiskN(parallelBuildThreshold/4, 1)),
		disk2Case("2d/empty", geom.Point2{}, nil),
		disk2Case("2d/at-source", geom.Point2{X: 1, Y: 1}, []geom.Point2{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}),
		ball3Case("3d/uniform", r.UniformBall3N(3000, 1)),
		ball3Case("3d/below-threshold", r.UniformBall3N(300, 1)),
		ballDCase(t, "d2/uniform", 2, r.UniformBallDN(1500, 2, 1)),
		ballDCase(t, "d3/uniform", 3, r.UniformBallDN(1500, 3, 1)),
		ballDCase(t, "d5/uniform", 5, r.UniformBallDN(2500, 5, 1)),
		state2Case(t, "2d/state-full", geom.Point2{X: 0.3, Y: 0.7}, r.UniformConvexPolygonN(3000, square), false),
		state2Case(t, "2d/state-incremental", geom.Point2{}, r.MixedDensityDiskN(3000, 1, 0.3, clusters), true),
	}
	for _, tc := range cases {
		for _, deg := range tc.degrees {
			auto, err := tc.build(WithMaxOutDegree(deg))
			if err != nil {
				t.Fatalf("%s deg=%d: %v", tc.name, deg, err)
			}
			extras := [][]Option{nil}
			if auto.K > 2 {
				extras = append(extras, []Option{WithForceK(auto.K - 1)})
			}
			for _, extra := range extras {
				for _, w := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s deg=%d workers=%d forceK=%v", tc.name, deg, w, extra != nil)
					opts := append([]Option{WithMaxOutDegree(deg), WithParallelism(w)}, extra...)
					res, err := tc.build(opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					delays := res.Tree.Delays(tc.dist)
					if want := maxOf(delays); res.Radius != want {
						t.Errorf("%s: Radius %v, fresh walk %v", name, res.Radius, want)
					}
					var wantCore float64
					if res.K > 0 {
						wantCore = coreDelay(delays, tc.reps(res))
					}
					if res.CoreDelay != wantCore {
						t.Errorf("%s: CoreDelay %v, fresh walk %v", name, res.CoreDelay, wantCore)
					}
				}
			}
		}
	}
}

// TestSharedTreeAfterPrepare: a built tree, prepared once, serves
// concurrent walks — the pattern any consumer sharing a Result across
// goroutines must follow now that builds no longer walk the tree
// themselves. Run under -race.
func TestSharedTreeAfterPrepare(t *testing.T) {
	recv := rng.New(78).UniformDiskN(3000, 1)
	dist := dist2For(geom.Point2{}, recv)
	res, err := Build2(geom.Point2{}, recv, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	res.Tree.Prepare()
	const readers = 8
	radii := make([]float64, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kids int
			for v := 0; v < res.Tree.N(); v++ {
				kids += len(res.Tree.Children(v))
			}
			if kids != res.Tree.N()-1 || len(res.Tree.BFSOrder()) != res.Tree.N() {
				t.Errorf("reader %d: %d child links, BFS order of %d", g, kids, len(res.Tree.BFSOrder()))
			}
			radii[g] = res.Tree.Radius(dist)
		}()
	}
	wg.Wait()
	for g, r := range radii {
		if r != res.Radius {
			t.Errorf("reader %d: radius %v, build recorded %v", g, r, res.Radius)
		}
	}
}
