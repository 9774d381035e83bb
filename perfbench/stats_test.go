package main

import (
	"math"
	"testing"
)

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 10000, pct: 0.999, value: 9990, beyond: 10, ok: true},
		{n: 1000, pct: 0.99, value: 990, beyond: 10, ok: true},
		{n: 999, pct: 0.95, value: 950, beyond: 49, ok: true},
		{n: 100, pct: 0.90, value: 90, beyond: 10, ok: true},
		{n: 40, pct: 0.75, value: 30, beyond: 10, ok: true},
		{n: 20, pct: 0.50, value: 10, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: got %+v, want ok=%v with the sample count", c.n, got, c.ok)
			continue
		}
		if c.ok && (got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond) {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				c.n, got.Pct*100, got.Value, got.Beyond, c.pct*100, c.value, c.beyond)
		}
	}
	// Ties at the top do not count as samples beyond the tail.
	flat := make([]float64, 500)
	if got := tailOf(flat); got.OK {
		t.Errorf("all-equal samples: got a tail %+v, want none", got)
	}
}

func TestTimingReportsSampleCountAndTail(t *testing.T) {
	secs := make([]float64, 100)
	for i := range secs {
		secs[i] = float64(i+1) / 1000 // 1..100 ms
	}
	m := timing("maint_round_ms", secs)
	if m.N != 100 || m.Unit != "ms" || m.Value != 50.5 || m.TailPct != 0.90 || m.Tail != 90 || m.Beyond != 10 {
		t.Errorf("got %+v, want median 50.5 ms, p90 = 90 ms with 10 beyond, n = 100", m)
	}
}

// The expected cut points are what Python's statistics.quantiles(data, n=4)
// returns.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
