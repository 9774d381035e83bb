package core

import (
	"bytes"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/rng"
)

// buildPhaseSpans is the span taxonomy every observed build must emit.
var buildPhaseSpans = []string{
	"build/convert",
	"build/grid",
	"build/bucketing",
	"build/reps",
	"build/wire",
	"build/wire/bisect",
	"build/metrics",
}

// TestObserverDoesNotChangeTrees: instrumented and uninstrumented builds of
// the same input are byte-identical, serial and parallel alike, and the
// parallel-equals-serial guarantee holds with metrics enabled — the
// observability layer is strictly read-only with respect to the result.
func TestObserverDoesNotChangeTrees(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct{ n, deg int }{{64, 2}, {500, 0}, {3000, 2}} {
		recv := r.UniformDiskN(tc.n, 1)
		plain, err := Build2(geom.Point2{}, recv,
			WithMaxOutDegree(tc.deg), WithParallelism(1))
		if err != nil {
			t.Fatalf("n=%d deg=%d: %v", tc.n, tc.deg, err)
		}
		want := treeBytes(t, plain.Tree)
		for _, workers := range []int{1, 4} {
			reg := obs.New()
			res, err := Build2(geom.Point2{}, recv,
				WithMaxOutDegree(tc.deg), WithParallelism(workers), WithObserver(reg))
			if err != nil {
				t.Fatalf("n=%d deg=%d workers=%d observed: %v", tc.n, tc.deg, workers, err)
			}
			if !bytes.Equal(want, treeBytes(t, res.Tree)) {
				t.Fatalf("n=%d deg=%d workers=%d: observed tree differs from plain serial",
					tc.n, tc.deg, workers)
			}
			if res.Radius != plain.Radius || res.K != plain.K {
				t.Fatalf("n=%d deg=%d workers=%d: observed metrics differ", tc.n, tc.deg, workers)
			}
		}
	}
}

// TestObservedBuildEmitsPhaseSpans: one observed build populates the full
// span taxonomy, the worker gauge, and — on the parallel path — the
// worker-utilization and skew gauges.
func TestObservedBuildEmitsPhaseSpans(t *testing.T) {
	r := rng.New(8)
	recv := r.UniformDiskN(2000, 1)
	reg := obs.New()
	if _, err := Build2(geom.Point2{}, recv, WithParallelism(4), WithObserver(reg)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range buildPhaseSpans {
		sp, ok := snap.Span(name)
		if !ok {
			t.Errorf("span %q missing from snapshot", name)
			continue
		}
		if sp.Count < 1 || sp.TotalSec < 0 || sp.MaxSec > sp.TotalSec {
			t.Errorf("span %q inconsistent: %+v", name, sp)
		}
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if got := gauges["build/workers"]; got != 4 {
		t.Errorf("build/workers = %v, want 4", got)
	}
	for _, name := range wallGauges {
		if _, ok := gauges[name]; !ok {
			t.Errorf("gauge %q missing from parallel build snapshot", name)
		}
	}
	if u := gauges["build/wire/worker_utilization"]; u < 0 || u > 1+1e-9 {
		t.Errorf("worker utilization %v outside [0, 1]", u)
	}
	if sk := gauges["build/wire/cells_per_worker_skew"]; sk < 1-1e-9 {
		t.Errorf("cells-per-worker skew %v < 1 (max below mean is impossible)", sk)
	}
}

// TestDisabledObserverCollectsNoBuildData: a disabled registry passed to a
// build collects nothing — handles may be registered (names appear with zero
// values) but every instrumentation point honors the enabled gate.
func TestDisabledObserverCollectsNoBuildData(t *testing.T) {
	r := rng.New(9)
	recv := r.UniformDiskN(300, 1)
	reg := obs.New()
	reg.SetEnabled(false)
	if _, err := Build2(geom.Point2{}, recv, WithObserver(reg)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, sp := range snap.Spans {
		if sp.Count != 0 {
			t.Errorf("disabled registry recorded span %q (count %d)", sp.Name, sp.Count)
		}
	}
	for _, g := range snap.Gauges {
		if g.Value != 0 {
			t.Errorf("disabled registry recorded gauge %q = %v", g.Name, g.Value)
		}
	}
}
