package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"omtree"
)

// callKind names a public entry point the driver calls, plus the iteration
// root every call span hangs under.
type callKind uint8

const (
	kIteration callKind = iota
	kBuild
	kBuild3D
	kJoin
	kLeave
	kRebuild
	kOptimize
	kMaintenance
	kSnapshot
	kRestore
	numKinds
)

var kindNames = [numKinds]string{
	"iteration", "omtree.Build", "omtree.Build3D", "Overlay.Join", "Overlay.Leave",
	"Overlay.Rebuild", "Overlay.Optimize", "Overlay.MaintenanceRound",
	"Overlay.WriteSnapshot", "omtree.RestoreOverlayBytes",
}

// phaseNames are the registry's build/* phase spans, in pipeline order.
// Each lands in the layer metric of the same index in phaseMetrics; the
// incremental dirty/export phases count as core glue.
var phaseNames = [...]string{
	"build/convert", "build/grid", "build/bucketing", "build/reps", "build/wire",
	"build/metrics", "build/dirty", "build/export",
}

var phaseMetrics = [len(phaseNames)]string{
	"geom.convert_ms", "grid.ksearch_ms", "grid.bucketing_ms", "core.reps_ms", "bisect.wire_ms",
	"tree.metrics_ms", "core.build_self_ms", "core.build_self_ms",
}

// phaseSet holds build/* phase time spent inside one call.
type phaseSet [len(phaseNames)]time.Duration

func (p phaseSet) total() time.Duration {
	var t time.Duration
	for _, d := range p {
		t += d
	}
	return t
}

// phaseTotals reads the cumulative build/* phase times from a registry.
func phaseTotals(reg *omtree.Observer) phaseSet {
	var p phaseSet
	snap := reg.Snapshot()
	for i, name := range phaseNames {
		if sp, ok := snap.Span(name); ok {
			p[i] = time.Duration(sp.TotalSec * 1e9)
		}
	}
	return p
}

// span is one timed region: a public call, or the iteration root.
type span struct {
	kind       callKind
	parent     int32 // index of the parent span; -1 for a root
	start, end time.Duration
}

// token is an open timed call.
type token struct {
	start time.Time
	idx   int32 // span index, -1 when untraced
}

// recorder times every public call the driver makes. Untraced, it keeps
// one duration per call. Traced, it also keeps a span per call under the
// iteration root, with the build phases the registry saw inside the call;
// spans stay in memory until writeSpans. A positive slowdown busy-waits
// that share of each call's time inside the timed region: the harness
// self-test plants a known regression this way without touching the
// program.
type recorder struct {
	epoch    time.Time
	slowdown float64
	traced   bool
	root     int32

	// samples[t][k] holds every call of kind k, traced (t = 1) or not.
	samples [2][numKinds][]time.Duration
	spans   []span
	phases  map[int32]phaseSet
	// extras holds per-iteration values a traced iteration measured
	// besides its spans (allocation counts, gauges), keyed by metric.
	extras map[string][]float64
	// attempted and failed count public calls and the failed ones.
	attempted, failed int
}

func newRecorder(slowdown float64) *recorder {
	return &recorder{
		epoch:    time.Now(),
		slowdown: slowdown,
		root:     -1,
		phases:   map[int32]phaseSet{},
		extras:   map[string][]float64{},
	}
}

// reserve preallocates room for the calls a run is expected to make, so
// sample and span growth do not show up in the allocation figures.
func (r *recorder) reserve(perIteration [numKinds]int, iterations int, traced bool) {
	calls := 1 // the iteration root
	for k, c := range perIteration {
		calls += c
		if want := c * iterations; want > 0 {
			r.samples[0][k] = make([]time.Duration, 0, want)
		}
	}
	if traced {
		r.spans = make([]span, 0, calls*(iterations/2+1))
	}
}

func (r *recorder) tracedIdx() int {
	if r.traced {
		return 1
	}
	return 0
}

func (r *recorder) begin(k callKind) token {
	t := token{start: time.Now(), idx: -1}
	if r.traced {
		r.spans = append(r.spans, span{kind: k, parent: r.root, start: t.start.Sub(r.epoch)})
		t.idx = int32(len(r.spans) - 1)
	}
	if k != kIteration {
		r.attempted++
	}
	return t
}

func (r *recorder) end(k callKind, t token) time.Duration {
	d := time.Since(t.start)
	if r.slowdown > 0 && k != kIteration {
		target := d + time.Duration(float64(d)*r.slowdown)
		for d < target {
			d = time.Since(t.start)
		}
	}
	r.samples[r.tracedIdx()][k] = append(r.samples[r.tracedIdx()][k], d)
	if t.idx >= 0 {
		r.spans[t.idx].end = r.spans[t.idx].start + d
	}
	return d
}

// beginIteration opens an iteration root span.
func (r *recorder) beginIteration(traced bool) token {
	r.traced = traced
	r.root = -1
	t := r.begin(kIteration)
	r.root = t.idx
	return t
}

func (r *recorder) endIteration(t token) time.Duration {
	d := r.end(kIteration, t)
	r.root = -1
	return d
}

// attach records the build phases that ran inside a traced call.
func (r *recorder) attach(t token, p phaseSet) {
	if t.idx >= 0 {
		r.phases[t.idx] = p
	}
}

// extra records a per-iteration value of a traced iteration.
func (r *recorder) extra(name string, v float64) {
	r.extras[name] = append(r.extras[name], v)
}

// iterationBreakdown is one traced iteration split by where its time went.
type iterationBreakdown struct {
	layers map[string]time.Duration // per-layer metric name -> self time
	calls  [numKinds][]time.Duration
	self   [numKinds]time.Duration // self time summed per call kind
}

// breakdown splits every traced iteration into self times. A call's self
// time is its span minus the build phases inside it; the root's self time
// is the iteration minus every call in it. Self times sum to the iteration.
func (r *recorder) breakdown() []iterationBreakdown {
	var out []iterationBreakdown
	cur := -1
	for i, s := range r.spans {
		d := s.end - s.start
		if s.parent < 0 {
			out = append(out, iterationBreakdown{layers: map[string]time.Duration{}})
			cur = len(out) - 1
			out[cur].self[kIteration] = d
			out[cur].layers["harness.self_ms"] = d
			continue
		}
		it := &out[cur]
		it.self[kIteration] -= d
		it.layers["harness.self_ms"] -= d
		ph := r.phases[int32(i)]
		self := d - ph.total()
		for j, pd := range ph {
			it.layers[phaseMetrics[j]] += pd
		}
		it.calls[s.kind] = append(it.calls[s.kind], self)
		it.self[s.kind] += self
		switch s.kind {
		case kBuild, kBuild3D:
			it.layers["core.build_self_ms"] += self
		case kRebuild:
			it.layers["protocol.rebuild_ms"] += self
		case kOptimize:
			it.layers["protocol.optimize_ms"] += self
		}
	}
	return out
}

// writeSpans writes every traced span as one JSON object per line: id,
// parent (-1 for an iteration root), name, start and end in nanoseconds
// since the run began, and the build phases seen inside the call.
func (r *recorder) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d`,
			i, s.parent, kindNames[s.kind], int64(s.start), int64(s.end))
		if ph, ok := r.phases[int32(i)]; ok {
			bw.WriteString(`,"phases_ns":{`)
			for j, d := range ph {
				if j > 0 {
					bw.WriteByte(',')
				}
				fmt.Fprintf(bw, "%q:%d", phaseNames[j], int64(d))
			}
			bw.WriteByte('}')
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}
