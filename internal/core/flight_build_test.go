package core

import (
	"bytes"
	"reflect"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/rng"
)

// TestFlightSampledBuild: a build with an attached flight recorder lands
// exactly one "build" sample carrying the run's metrics, and sampling never
// influences the resulting tree.
func TestFlightSampledBuild(t *testing.T) {
	r := rng.New(9)
	recv := r.UniformDiskN(800, 1)
	plain, err := Build2(geom.Point2{}, recv, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	fr := flight.New(reg, flight.Config{})
	res, err := Build2(geom.Point2{}, recv,
		WithParallelism(1), WithObserver(reg), WithFlight(fr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(treeBytes(t, plain.Tree), treeBytes(t, res.Tree)) {
		t.Fatal("flight-sampled tree differs from plain build")
	}
	if fr.Total() != 1 {
		t.Fatalf("samples = %d, want exactly 1 per build", fr.Total())
	}
	s, _ := fr.LastSample()
	if s.Cause != "build" {
		t.Fatalf("sample cause = %q, want build", s.Cause)
	}
	if s.Gauges["build/workers"] != 1 {
		t.Fatalf("sample missed the build gauges: %v", s.Gauges)
	}

	// Incremental rebuilds through a BuildState sample the same way.
	bs, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	bs.SetFlight(fr)
	for i, p := range recv[:100] {
		bs.Add(i+1, p)
	}
	if _, _, err := bs.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if fr.Total() != 2 {
		t.Fatalf("samples after state rebuild = %d, want 2", fr.Total())
	}

	// Parallel builds set the wire pool's wall-clock gauges: the registry
	// reports them, but samples skip them, so two identical builds sample
	// identically.
	var samples [2]flight.Sample
	for i := range samples {
		reg := obs.New()
		fr := flight.New(reg, flight.Config{})
		if _, err := Build2(geom.Point2{}, recv,
			WithParallelism(2), WithObserver(reg), WithFlight(fr)); err != nil {
			t.Fatal(err)
		}
		samples[i], _ = fr.LastSample()
		snap := reg.Snapshot()
		for _, name := range wallGauges {
			if !hasGauge(snap, name) {
				t.Fatalf("registry snapshot lacks %s", name)
			}
			if _, ok := samples[i].Gauges[name]; ok {
				t.Fatalf("flight sample carries wall-clock gauge %s", name)
			}
		}
	}
	if !reflect.DeepEqual(samples[0], samples[1]) {
		t.Fatalf("identical parallel builds sampled differently:\n%+v\n%+v", samples[0], samples[1])
	}
}

// wallGauges are the wire pool's timing- and scheduling-dependent gauges.
var wallGauges = []string{
	"build/wire/worker_utilization",
	"build/wire/cells_per_worker_max",
	"build/wire/cells_per_worker_skew",
}

func hasGauge(snap obs.Snapshot, name string) bool {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return true
		}
	}
	return false
}
