package main

import (
	"fmt"
	"math"
	"runtime"

	"omtree"
	"omtree/internal/invariant"
)

// rowWorkload is one paper table row: the same receivers built at the
// natural out-degree, then at out-degree 2, with the source at the centre.
// disk_table1 is a Table I row over the unit disk, ball_fig8 a Fig. 8 row
// over the unit ball.
type rowWorkload struct {
	kind    callKind
	n       int
	degrees [2]int // natural, binary
	wantK   int    // required ring count of both builds; 0 = unchecked
	build   func(opts ...omtree.Option) (*omtree.Result, error)
	dist    omtree.DistFunc
	input   uint64 // checksum of the generated receivers

	last [2]*omtree.Result // the most recent iteration's rows
}

// diskRingsAt1M is the ring count Table I's 1M row keeps.
const diskRingsAt1M = 15

func newDiskRow(n int, seed uint64) *rowWorkload {
	pts := omtree.NewRand(seed).UniformDiskN(n, 1)
	var src omtree.Point2
	h := newSum()
	for _, p := range pts {
		h.floats(p.X, p.Y)
	}
	w := &rowWorkload{
		kind: kBuild, n: n, degrees: [2]int{6, 2},
		build: func(opts ...omtree.Option) (*omtree.Result, error) { return omtree.Build(src, pts, opts...) },
		dist:  omtree.Dist(src, pts),
		input: uint64(h),
	}
	if n == 1_000_000 {
		w.wantK = diskRingsAt1M
	}
	return w
}

func newBallRow(n int, seed uint64) *rowWorkload {
	pts := omtree.NewRand(seed).UniformBall3N(n, 1)
	var src omtree.Point3
	h := newSum()
	for _, p := range pts {
		h.floats(p.X, p.Y, p.Z)
	}
	return &rowWorkload{
		kind: kBuild3D, n: n, degrees: [2]int{10, 2},
		build: func(opts ...omtree.Option) (*omtree.Result, error) { return omtree.Build3D(src, pts, opts...) },
		dist:  omtree.Dist3D(src, pts),
		input: uint64(h),
	}
}

func (w *rowWorkload) nodes() int            { return w.n }
func (w *rowWorkload) inputChecksum() uint64 { return w.input }

func (w *rowWorkload) callsPerIteration() [numKinds]int {
	var c [numKinds]int
	c[w.kind] = len(w.degrees)
	return c
}

// iterate builds both variants. Traced, each build gets a fresh registry
// so its build/* phases attach to its own span, and the allocation count
// and wiring utilization are read around the call.
func (w *rowWorkload) iterate(r *recorder) error {
	for i, deg := range w.degrees {
		opts := []omtree.Option{omtree.WithMaxOutDegree(deg)}
		var reg *omtree.Observer
		var m0 runtime.MemStats
		if r.traced {
			reg = omtree.NewObserver()
			opts = append(opts, omtree.WithObserver(reg))
			runtime.ReadMemStats(&m0)
		}
		t := r.begin(w.kind)
		res, err := w.build(opts...)
		r.end(w.kind, t)
		if err != nil {
			r.failed++
			return fmt.Errorf("%s at out-degree %d: %w", kindNames[w.kind], deg, err)
		}
		if r.traced {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			r.attach(t, phaseTotals(reg))
			r.extra("core.allocs_per_build", float64(m1.Mallocs-m0.Mallocs))
			if i == 0 {
				r.extra("bisect.worker_utilization", gauge(reg, "build/wire/worker_utilization"))
			}
		}
		w.last[i] = res
	}
	return nil
}

func (w *rowWorkload) release() { w.last = [2]*omtree.Result{} }

// verify runs the full output checks on the most recent rows: every tree
// passes the independent invariant audit (spanning, acyclic, degree cap,
// recomputed radius), its radius is within the eq. 7 bound, and the ring
// count is the one the paper's row keeps.
func (w *rowWorkload) verify() error {
	for i, res := range w.last {
		deg := w.degrees[i]
		if err := invariant.Check(res.Tree, w.n+1, 0, deg, w.dist, res.Radius).Err(); err != nil {
			return fmt.Errorf("out-degree %d: %w", deg, err)
		}
		if !(res.Radius > 0 && res.Radius <= res.Bound) {
			return fmt.Errorf("out-degree %d: radius %v outside (0, eq. 7 bound %v]", deg, res.Radius, res.Bound)
		}
		if w.wantK > 0 && res.K != w.wantK {
			return fmt.Errorf("out-degree %d: %d rings, the row keeps %d", deg, res.K, w.wantK)
		}
	}
	return nil
}

// checksum fingerprints the most recent rows: every parent pointer plus
// the reported metrics. Identical inputs must give identical rows.
func (w *rowWorkload) checksum() uint64 {
	h := newSum()
	for _, res := range w.last {
		h.floats(res.Radius, res.Bound, res.CoreDelay, float64(res.K))
		t := res.Tree
		for i := 0; i < t.N(); i++ {
			h.word(uint64(t.Parent(i)))
		}
	}
	return uint64(h)
}

// outputs reports the deterministic results of the most recent rows.
func (w *rowWorkload) outputs() map[string]float64 {
	return map[string]float64{
		"radius":        w.last[0].Radius,
		"radius_binary": w.last[1].Radius,
		"grid.rings":    float64(w.last[0].K),
	}
}

// sum is an FNV-1a style checksum taken over whole 64-bit words.
type sum uint64

func newSum() sum { return 14695981039346656037 }

func (s *sum) word(u uint64) { *s = (*s ^ sum(u)) * 1099511628211 }

// floats adds the exact bit patterns of xs.
func (s *sum) floats(xs ...float64) {
	for _, x := range xs {
		s.word(math.Float64bits(x))
	}
}

// gauge reads one gauge from a registry (0 when absent).
func gauge(reg *omtree.Observer, name string) float64 {
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
