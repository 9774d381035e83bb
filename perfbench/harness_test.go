package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// small returns a quick configuration of a workload.
func small(workload string, seed uint64) config {
	c := config{Workload: workload, Seed: seed, Seconds: 0.05, Setups: 1}
	switch workload {
	case "session_drift":
		c.N, c.Rounds, c.Churn = 3000, 3, 200
	default:
		c.N = 20000
	}
	if err := c.fillDefaults(); err != nil {
		panic(err)
	}
	return c
}

func mustExecute(t *testing.T, c config) *result {
	t.Helper()
	r, err := execute(c, newWorkload)
	if err != nil {
		t.Fatalf("%s: %v", c.Workload, err)
	}
	res := summarize(r)
	if !res.Correct {
		t.Fatalf("%s: output checks failed: %v", c.Workload, res.Failures)
	}
	return res
}

func TestSameSeedSameInputChecksum(t *testing.T) {
	for _, name := range workloadNames {
		a := newWorkload(small(name, 7)).inputChecksum()
		b := newWorkload(small(name, 7)).inputChecksum()
		c := newWorkload(small(name, 8)).inputChecksum()
		if a != b {
			t.Errorf("%s: seed 7 gave input checksums %#x and %#x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same input checksum %#x", name, a)
		}
	}
}

// deterministic lists the outputs that must repeat exactly for a seed.
var deterministic = []string{
	"radius", "radius_binary", "grid.rings", "cert_ratio",
	"protocol.join_messages", "protocol.leave_messages", "protocol.maintenance_messages",
	"protocol.retries", "protocol.timeouts", "protocol.messages_per_member_op",
	"snapshot.blob_bytes",
}

// Two in-process runs of one seed, one of them traced, must agree exactly
// on every deterministic output: tracing is read-only.
func TestDeterministicOutputsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		plain := small(name, 3)
		traced := plain
		traced.Trace = true
		a, b := mustExecute(t, plain), mustExecute(t, traced)
		seen := 0
		for _, m := range deterministic {
			va, okA := a.Metrics[m]
			vb, okB := b.Metrics[m]
			if okA != okB || va.Value != vb.Value {
				t.Errorf("%s: %s = %v then %v", name, m, va.Value, vb.Value)
			}
			if okA {
				seen++
			}
		}
		if seen < 3 {
			t.Errorf("%s: only %d deterministic outputs reported", name, seen)
		}
		if a.InputChecksum != b.InputChecksum {
			t.Errorf("%s: input checksums %s and %s", name, a.InputChecksum, b.InputChecksum)
		}
	}
}

func TestOutputChecksCatchTamperedResults(t *testing.T) {
	row := newDiskRow(5000, 1)
	if err := row.iterate(newRecorder(0)); err != nil {
		t.Fatal(err)
	}
	if err := row.verify(); err != nil {
		t.Fatalf("untampered row: %v", err)
	}
	row.last[0].Radius *= 1.01
	if row.verify() == nil {
		t.Error("a misreported radius passed the output checks")
	}

	s := newSession(2000, 2, 100, 1)
	if err := s.iterate(newRecorder(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.verify(); err != nil {
		t.Fatalf("untampered session: %v", err)
	}
	s.blob.Bytes()[s.blob.Len()/2] ^= 1
	if s.verify() == nil {
		t.Error("a corrupted snapshot passed the round-trip check")
	}
}

func TestFinalLineHoldsExactlyTheTableMetrics(t *testing.T) {
	for _, trace := range []bool{false, true} {
		c := small("session_drift", 1)
		c.Trace = trace
		res := mustExecute(t, c)
		data, err := json.Marshal(finalLine(res))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("keys %v, want %v", keys, want)
		}
		var metrics map[string]valueOut
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
			if !trace && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want positive", d.Name, m.Value)
			}
		}
	}
}

// BENCHMARK.json at the repository root must describe the same workloads
// and metrics the driver reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, driver %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, driver has %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, driver %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, driver has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}
