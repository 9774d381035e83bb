package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"omtree/internal/obs"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Tick()
	r.SampleNow("build")
	r.SetEnabled(true)
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Len() != 0 || r.Cap() != 0 || r.Total() != 0 || r.Evicted() != 0 || r.Rounds() != 0 {
		t.Fatal("nil recorder reports state")
	}
	if r.Samples() != nil || r.Alerts() != nil || r.Firing() != nil || r.Rules() != nil {
		t.Fatal("nil recorder returns data")
	}
	if _, ok := r.LastSample(); ok {
		t.Fatal("nil recorder has a last sample")
	}
	if r.AlertsFired() != 0 || r.AlertsCleared() != 0 {
		t.Fatal("nil recorder reports alerts")
	}
	if r.Report() != "" {
		t.Fatal("nil recorder reports text")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil recorder wrote JSONL")
	}
	if err := r.WriteOpenMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil recorder wrote OpenMetrics")
	}
}

func TestNewRequiresRegistry(t *testing.T) {
	if New(nil, Config{}) != nil {
		t.Fatal("New(nil) returned a recorder")
	}
}

func TestTickIntervalAndSampleNow(t *testing.T) {
	reg := obs.New()
	r := New(reg, Config{Interval: 2, Capacity: 8})
	reg.Counter("x").Add(3)
	for i := 0; i < 5; i++ {
		r.Tick()
	}
	samples := r.Samples()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2 (interval 2 over 5 ticks)", len(samples))
	}
	if samples[0].Round != 2 || samples[1].Round != 4 {
		t.Fatalf("sample rounds = %d, %d; want 2, 4", samples[0].Round, samples[1].Round)
	}
	if samples[0].Cause != "round" {
		t.Fatalf("periodic sample cause = %q", samples[0].Cause)
	}
	if samples[0].Counters["x"] != 3 {
		t.Fatalf("sample missing counter x: %v", samples[0].Counters)
	}
	r.SampleNow("build")
	last, ok := r.LastSample()
	if !ok || last.Cause != "build" || last.Round != 5 {
		t.Fatalf("SampleNow sample = %+v, ok=%v", last, ok)
	}
	if r.Rounds() != 5 {
		t.Fatalf("Rounds = %d, want 5 (SampleNow must not advance the clock)", r.Rounds())
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d, want 3", r.Total())
	}
}

func TestRates(t *testing.T) {
	reg := obs.New()
	r := New(reg, Config{Interval: 2})
	c := reg.Counter("ops")
	g := reg.Gauge("ratio")
	c.Add(10)
	g.Set(1.0)
	r.Tick()
	r.Tick() // first sample at round 2
	first, _ := r.LastSample()
	if first.Rates != nil {
		t.Fatalf("first sample has rates: %v", first.Rates)
	}
	c.Add(6)
	g.Set(1.5)
	r.Tick()
	r.Tick() // second sample at round 4
	s, _ := r.LastSample()
	if got := s.Rates["ops"]; got.Delta != 6 || got.PerRound != 3 {
		t.Fatalf("ops rate = %+v, want delta 6 per-round 3", got)
	}
	if got := s.Rates["ratio"]; got.Delta != 0.5 || got.PerRound != 0.25 {
		t.Fatalf("ratio rate = %+v, want delta 0.5 per-round 0.25", got)
	}
	// Unchanged series get no rate entry.
	if _, ok := s.Rates["flight/evicted_samples"]; ok {
		t.Fatal("unchanged series has a rate entry")
	}
	// Back-to-back samples at the same round divide by at least one round.
	c.Add(4)
	r.SampleNow("build")
	s, _ = r.LastSample()
	if got := s.Rates["ops"]; got.Delta != 4 || got.PerRound != 4 {
		t.Fatalf("same-round rate = %+v, want delta 4 per-round 4", got)
	}
}

// Wall-clock gauges stay out of samples and their rate columns.
func TestSampleSkipsWallGauges(t *testing.T) {
	reg := obs.New()
	r := New(reg, Config{})
	reg.WallGauge("util").Set(0.4)
	r.SampleNow("build")
	if s, _ := r.LastSample(); s.Gauges != nil {
		t.Fatalf("sample with only a wall gauge has gauges: %v", s.Gauges)
	}
	reg.Gauge("workers").Set(2)
	reg.WallGauge("util").Set(0.9)
	r.SampleNow("build")
	s, _ := r.LastSample()
	if len(s.Gauges) != 1 || s.Gauges["workers"] != 2 {
		t.Fatalf("sample gauges = %v, want only workers", s.Gauges)
	}
	if _, ok := s.Rates["util"]; ok {
		t.Fatal("wall gauge has a rate entry")
	}
}

func TestRingEviction(t *testing.T) {
	reg := obs.New()
	r := New(reg, Config{Capacity: 3})
	for i := 0; i < 5; i++ {
		r.Tick()
	}
	if r.Len() != 3 || r.Total() != 5 || r.Evicted() != 2 {
		t.Fatalf("len=%d total=%d evicted=%d, want 3/5/2", r.Len(), r.Total(), r.Evicted())
	}
	samples := r.Samples()
	for i, want := range []int64{2, 3, 4} {
		if samples[i].Index != want {
			t.Fatalf("sample %d index = %d, want %d (never renumbered)", i, samples[i].Index, want)
		}
	}
	// The recorder's own bookkeeping is visible in subsequent samples via
	// the registered counter funcs.
	r.Tick()
	last, _ := r.LastSample()
	if last.Counters["flight/samples"] != 5 || last.Counters["flight/evicted_samples"] != 2 {
		t.Fatalf("flight counters in sample = %v", last.Counters)
	}
}

func TestDefaultsAndEnabledToggle(t *testing.T) {
	reg := obs.New()
	r := New(reg, Config{Interval: -1, Capacity: 0})
	if r.Cap() != DefaultCapacity {
		t.Fatalf("Cap = %d, want DefaultCapacity", r.Cap())
	}
	if !r.Enabled() {
		t.Fatal("new recorder disabled")
	}
	r.SetEnabled(false)
	r.Tick()
	r.SampleNow("build")
	if r.Total() != 0 || r.Rounds() != 0 {
		t.Fatal("disabled recorder sampled")
	}
	r.SetEnabled(true)
	r.Tick()
	if r.Total() != 1 {
		t.Fatalf("re-enabled recorder Total = %d, want 1", r.Total())
	}
}

// driveScenario runs one deterministic mini-scenario against a fresh
// registry+recorder and returns the JSONL export and health report.
func driveScenario(t *testing.T) (string, string) {
	t.Helper()
	reg := obs.New()
	r := New(reg, Config{
		Interval: 1,
		Capacity: 16,
		Rules:    mustRules(t, "hot: ops > 12 for 2; flat: missing > 1"),
	})
	c := reg.Counter("ops")
	g := reg.Gauge("ratio")
	for i := 0; i < 8; i++ {
		c.Add(int64(i))
		g.Set(1.0 + float64(i)/10)
		r.Tick()
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), r.Report()
}

func mustRules(t *testing.T, s string) []SLORule {
	t.Helper()
	rules, err := ParseSLORules(s)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestTwoRunByteIdentical(t *testing.T) {
	jsonl1, report1 := driveScenario(t)
	jsonl2, report2 := driveScenario(t)
	if jsonl1 != jsonl2 {
		t.Fatal("two runs produced different JSONL")
	}
	if report1 != report2 {
		t.Fatal("two runs produced different reports")
	}
	// Every JSONL line is a standalone JSON object.
	lines := strings.Split(strings.TrimRight(jsonl1, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d JSONL lines, want 8", len(lines))
	}
	for _, line := range lines {
		var s Sample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}
}

func TestReportContent(t *testing.T) {
	_, report := driveScenario(t)
	for _, want := range []string{
		"flight health report",
		"samples: 8 retained (cap 16, total 8, evicted 0)",
		"rounds: 8  sample interval: 1",
		"series (first/last/min/max over retained window):",
		"ops",
		"alerts: 1 fired, 0 cleared",
		"hot: ops > 12 for 2",
		"FIRING",
		"flat: missing > 1",
		"ok",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestReportEmpty(t *testing.T) {
	r := New(obs.New(), Config{})
	report := r.Report()
	if !strings.Contains(report, "no samples recorded") {
		t.Fatalf("empty report = %q", report)
	}
}
