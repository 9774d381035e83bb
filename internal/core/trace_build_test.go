package core

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/obs/trace"
	"omtree/internal/rng"
)

// buildPhaseEvents is the begin/end taxonomy every traced build must emit.
var buildPhaseEvents = []string{
	"build/run",
	"build/convert",
	"build/grid",
	"build/bucketing",
	"build/reps",
	"build/wire",
	"build/metrics",
}

// TestTracedBuildMatchesPlain: traced and untraced builds of the same input
// are byte-identical, serial and parallel alike — tracing is strictly
// read-only with respect to the result.
func TestTracedBuildMatchesPlain(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct{ n, deg int }{{64, 2}, {500, 0}, {3000, 2}} {
		recv := r.UniformDiskN(tc.n, 1)
		plain, err := Build2(geom.Point2{}, recv,
			WithMaxOutDegree(tc.deg), WithParallelism(1))
		if err != nil {
			t.Fatalf("n=%d deg=%d: %v", tc.n, tc.deg, err)
		}
		want := treeBytes(t, plain.Tree)
		for _, workers := range []int{1, 4} {
			rec := trace.New(1 << 16)
			res, err := Build2(geom.Point2{}, recv,
				WithMaxOutDegree(tc.deg), WithParallelism(workers), WithTrace(rec))
			if err != nil {
				t.Fatalf("n=%d deg=%d workers=%d traced: %v", tc.n, tc.deg, workers, err)
			}
			if !bytes.Equal(want, treeBytes(t, res.Tree)) {
				t.Fatalf("n=%d deg=%d workers=%d: traced tree differs from plain serial",
					tc.n, tc.deg, workers)
			}
			if res.Radius != plain.Radius || res.K != plain.K {
				t.Fatalf("n=%d deg=%d workers=%d: traced metrics differ", tc.n, tc.deg, workers)
			}
		}
	}
}

// TestTracedBuildEmitsPhaseEvents: one traced build emits every phase as a
// balanced begin/end pair on a single trace id, plus per-cell wiring
// instants.
func TestTracedBuildEmitsPhaseEvents(t *testing.T) {
	r := rng.New(12)
	recv := r.UniformDiskN(2000, 1)
	rec := trace.New(1 << 16)
	if _, err := Build2(geom.Point2{}, recv, WithMaxOutDegree(2), WithTrace(rec)); err != nil {
		t.Fatal(err)
	}
	begins := map[string]int{}
	ends := map[string]int{}
	cells := 0
	tid := uint32(0)
	for _, e := range rec.Events() {
		if tid == 0 {
			tid = e.TraceID
		}
		if e.TraceID != tid {
			t.Fatalf("event %q on trace %d, want every build event on trace %d", e.Kind, e.TraceID, tid)
		}
		switch {
		case strings.HasSuffix(e.Kind, ".begin"):
			begins[strings.TrimSuffix(e.Kind, ".begin")]++
		case strings.HasSuffix(e.Kind, ".end"):
			ends[strings.TrimSuffix(e.Kind, ".end")]++
		case e.Kind == "build/wire/cell":
			cells++
		}
	}
	for _, phase := range buildPhaseEvents {
		if begins[phase] != 1 || ends[phase] != 1 {
			t.Errorf("phase %q: begin/end = %d/%d, want 1/1", phase, begins[phase], ends[phase])
		}
	}
	if cells == 0 {
		t.Error("no build/wire/cell events emitted")
	}
}

// TestStateTraceNamesSlots: a BuildState's per-cell wiring events name the
// representative by slot, on full rebuilds (which wire dense node ids) as
// on incremental ones (which wire slots directly).
func TestStateTraceNamesSlots(t *testing.T) {
	r := rng.New(14)
	bs, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range r.UniformDiskN(600, 1) {
		bs.Add(3*i+2, p) // sparse slots: dense ids and slots differ
	}
	for _, wantFull := range []bool{true, false} {
		rec := trace.New(1 << 16)
		bs.SetInstruments(nil, rec)
		if !wantFull {
			bs.Remove(5)
		}
		if _, full, err := bs.Rebuild(); err != nil || full != wantFull {
			t.Fatalf("rebuild: full=%v err=%v, want full=%v", full, err, wantFull)
		}
		cells := 0
		for _, e := range rec.Events() {
			if e.Kind != "build/wire/cell" {
				continue
			}
			cells++
			c, err := strconv.Atoi(strings.TrimPrefix(e.Note, "cell="))
			if err != nil {
				t.Fatal(err)
			}
			want := bs.reps[c]
			if c == 0 {
				want = 0
			}
			if e.From != want {
				t.Fatalf("full=%v cell %d: event names node %d, representative slot is %d", wantFull, c, e.From, want)
			}
		}
		if cells == 0 {
			t.Fatalf("full=%v: no build/wire/cell events", wantFull)
		}
	}
}

// TestSerialTracedBuildDeterministic: two serial traced builds of the same
// input produce byte-identical text timelines.
func TestSerialTracedBuildDeterministic(t *testing.T) {
	r := rng.New(13)
	recv := r.UniformDiskN(1500, 1)
	timeline := func() string {
		rec := trace.New(1 << 16)
		if _, err := Build2(geom.Point2{}, recv,
			WithMaxOutDegree(2), WithParallelism(1), WithTrace(rec)); err != nil {
			t.Fatal(err)
		}
		return rec.Text()
	}
	a, b := timeline(), timeline()
	if a != b {
		t.Fatal("serial traced build timelines differ between identical runs")
	}
	if a == "" {
		t.Fatal("serial traced build produced an empty timeline")
	}
}

// TestParallelBuildTraceHammer drives many concurrent traced parallel
// builds so the race detector exercises the recorder's append path from
// the wiring workers. Beyond surviving -race, every run must record its
// full event history (seq accounting never loses an append).
func TestParallelBuildTraceHammer(t *testing.T) {
	r := rng.New(14)
	recv := r.UniformDiskN(3000, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.New(512) // small ring: force concurrent evictions too
			if _, err := Build2(geom.Point2{}, recv,
				WithMaxOutDegree(2), WithParallelism(8), WithTrace(rec)); err != nil {
				t.Error(err)
				return
			}
			if got := rec.Len() + int(rec.Dropped()); got == 0 {
				t.Error("hammered build recorded no events")
			}
		}()
	}
	wg.Wait()
}
