package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
	// Tail is the highest ladder percentile with at least ten samples
	// beyond it; absent when there are too few samples for one.
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Beyond  int     `json:"tail_beyond,omitempty"`
}

// fingerprint identifies the machine and the inputs behind a result.
// Results compare only when everything but the seed matches, and they pair
// up by seed.
type fingerprint struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	config
}

func machineFingerprint(cfg config) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		config:     cfg,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file is absent or names none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// result is everything a run reports; --out writes it as JSON, and the
// compare subcommand reads it back.
type result struct {
	Fingerprint   fingerprint        `json:"fingerprint"`
	InputChecksum string             `json:"input_checksum"`
	Correct       bool               `json:"correct"`
	Failures      []string           `json:"failures,omitempty"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Iterations    [2]int             `json:"iterations"` // untraced, traced
	IterationSecs [2][]float64       `json:"iteration_seconds"`
	Metrics       map[string]metric  `json:"metrics"`
	SelfMs        map[string]float64 `json:"self_ms_per_iteration,omitempty"`
}

// unitOf is a metric's unit from the tables; extra outputs are counts.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return "count"
}

// timing summarizes samples in seconds, scaled to the metric's unit.
func timing(name string, secs []float64) metric {
	sorted := sortedCopy(secs)
	scale := map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}[unitOf(name)]
	m := metric{Value: median(sorted) * scale, Unit: unitOf(name), N: len(sorted)}
	if t := tailOf(sorted); t.OK {
		m.Tail, m.TailPct, m.Beyond = t.Value*scale, t.Pct, t.Beyond
	}
	return m
}

func durations(ds ...[]time.Duration) []float64 {
	var xs []float64
	for _, d := range ds {
		for _, x := range d {
			xs = append(xs, x.Seconds())
		}
	}
	return xs
}

// summarize turns a run's raw measurements into its result.
func summarize(r *run) *result {
	rec := r.rec
	res := &result{
		Fingerprint:   machineFingerprint(r.cfg),
		InputChecksum: fmt.Sprintf("%#016x", r.w.inputChecksum()),
		Correct:       len(r.failures) == 0,
		Failures:      r.failures,
		Attempted:     rec.attempted,
		Failed:        rec.failed,
		Iterations:    [2]int{len(r.iterations[0]), len(r.iterations[1])},
		IterationSecs: r.iterations,
		Metrics:       map[string]metric{},
	}
	set := func(name string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
	}

	// End to end, from the untraced iterations.
	res.Metrics["setup_s"] = timing("setup_s", r.setups)
	res.Metrics["iteration_s"] = timing("iteration_s", r.iterations[0])
	set("alloc_bytes_per_node", median(sortedCopy(r.allocBytes)), len(r.allocBytes))
	set("live_heap_mb", r.liveHeapMB, 1)
	out := r.w.outputs()
	for name, v := range out {
		set(name, v, 1)
	}
	set("failed_frac", float64(rec.failed)/float64(rec.attempted), rec.attempted)

	// Workload-specific user-facing timings, also untraced.
	untr := &rec.samples[0]
	if len(untr[kJoin]) > 0 {
		ops := sortedCopy(durations(untr[kJoin], untr[kLeave]))
		res.Metrics["member_op_p50_us"] = metric{Value: median(ops) * 1e6, Unit: "us", N: len(ops)}
		res.Metrics["member_op_p99_us"] = metric{Value: percentile(ops, 0.99) * 1e6, Unit: "us", N: len(ops)}
		m := timing("maint_round_ms", durations(untr[kMaintenance]))
		res.Metrics["maint_round_ms"] = m
		if m.TailPct > 0 {
			tail := m
			tail.Value = m.Tail
			res.Metrics["maint_round_tail_ms"] = tail
		}
		res.Metrics["checkpoint_ms"] = timing("checkpoint_ms", durations(untr[kSnapshot]))
		res.Metrics["restore_ms"] = timing("restore_ms", durations(untr[kRestore]))
	}

	// Per layer, from the traced iterations.
	if len(r.iterations[1]) == 0 {
		return res
	}
	set("harness.trace_overhead_frac",
		median(sortedCopy(r.iterations[1]))/median(sortedCopy(r.iterations[0]))-1, len(r.iterations[1]))
	br := rec.breakdown()
	layerNames := map[string]bool{}
	for _, it := range br {
		for name := range it.layers {
			layerNames[name] = true
		}
	}
	for name := range layerNames {
		var per []float64
		for _, it := range br {
			per = append(per, it.layers[name].Seconds())
		}
		res.Metrics[name] = timing(name, per)
	}
	var self [numKinds][]time.Duration
	res.SelfMs = map[string]float64{}
	for k := callKind(0); k < numKinds; k++ {
		var per []float64
		for _, it := range br {
			self[k] = append(self[k], it.calls[k]...)
			per = append(per, it.self[k].Seconds()*1e3)
		}
		if len(self[k]) > 0 || k == kIteration {
			res.SelfMs[kindNames[k]] = median(sortedCopy(per))
		}
	}
	for name, k := range map[string]callKind{"protocol.join_us": kJoin, "protocol.leave_us": kLeave, "protocol.maintenance_ms": kMaintenance} {
		if len(self[k]) > 0 {
			res.Metrics[name] = timing(name, durations(self[k]))
		}
	}
	for name, vs := range rec.extras {
		set(name, median(sortedCopy(vs)), len(vs))
	}
	return res
}

// line is the benchmark's last output line.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine selects the end-to-end metrics (untraced run) or the per-layer
// ones (traced run). A per-layer metric the workload does not exercise
// reads 0.
func finalLine(res *result) line {
	defs := endToEnd
	if res.Fingerprint.Trace {
		defs = perLayer
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueOut{}}
	for _, d := range defs {
		l.Metrics[d.Name] = valueOut{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return l
}

// writeReport prints the human-readable report: fingerprint, checks, and
// every metric the run measured, by name, with its unit and sample count.
func writeReport(w io.Writer, res *result) {
	fp := res.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v n=%d\n", fp.Workload, fp.Seed, fp.Seconds, fp.Trace, fp.N)
	fmt.Fprintf(w, "machine: %s GOMAXPROCS=%d nproc=%d cpu=%q\n", fp.GoVersion, fp.GOMAXPROCS, fp.NumCPU, fp.CPU)
	fmt.Fprintf(w, "input checksum %s; iterations %d untraced, %d traced; calls %d attempted, %d failed\n",
		res.InputChecksum, res.Iterations[0], res.Iterations[1], res.Attempted, res.Failed)
	if res.Correct {
		fmt.Fprintln(w, "checks: ok (warm-up and last outputs, every iteration repeats the warm-up)")
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d", name, m.Value, m.Unit, m.N)
		if m.TailPct > 0 {
			fmt.Fprintf(w, "  p%g=%.6g (%d beyond)", m.TailPct*100, m.Tail, m.Beyond)
		}
		fmt.Fprintln(w)
	}
	if len(res.SelfMs) > 0 {
		fmt.Fprintln(w, "self time per traced iteration, median ms (call spans minus build phases):")
		calls := make([]string, 0, len(res.SelfMs))
		for name := range res.SelfMs {
			calls = append(calls, name)
		}
		sort.Strings(calls)
		for _, name := range calls {
			fmt.Fprintf(w, "  %-34s %12.3f\n", name, res.SelfMs[name])
		}
	}
}
