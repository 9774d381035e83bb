package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CounterSnap is one counter's frozen value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's frozen value.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Wall marks a gauge registered through WallGauge: its value carries
	// wall-clock or scheduling noise. Not part of the rendered snapshot.
	Wall bool `json:"-"`
}

// HistogramSnap summarizes one histogram: exact count/sum/max, estimated
// quantiles.
type HistogramSnap struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SpanSnap summarizes one timing-span name.
type SpanSnap struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	MaxSec   float64 `json:"max_sec"`
}

// Snapshot is a frozen, renderable view of a registry. Every family is
// sorted by name, so equal states render byte-identically.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	Spans      []SpanSnap      `json:"spans"`
}

// Snapshot freezes the registry. Counter funcs are evaluated here; live
// counters and funcs publishing the same name collapse to one entry with
// their sum. A nil registry snapshots to the empty Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters)+len(r.funcs))
	for name, c := range r.counters {
		counters[name] = c.v.Load()
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	spans := make(map[string]*spanStat, len(r.spans))
	for name, st := range r.spans {
		spans[name] = st
	}
	r.mu.Unlock()

	// Evaluate counter funcs outside the registry lock: they may read
	// structures that are themselves being mutated under other locks.
	for name, fn := range funcs {
		counters[name] += fn()
	}
	for name, v := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: v})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value(), Wall: g.wall.Load()})
	}
	for name, h := range hists {
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:  name,
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Max:   h.Max(),
		})
	}
	for name, st := range spans {
		s.Spans = append(s.Spans, SpanSnap{
			Name:     name,
			Count:    st.count.Load(),
			TotalSec: float64(st.totalNs.Load()) / 1e9,
			MaxSec:   float64(st.maxNs.Load()) / 1e9,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Name < s.Spans[j].Name })
	return s
}

// Counter returns the snapshot value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Span returns the snapshot of the named span and whether it exists.
func (s Snapshot) Span(name string) (SpanSnap, bool) {
	for _, sp := range s.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return SpanSnap{}, false
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot in the stable text format: one section per
// non-empty family, entries sorted by name, span names indented by their
// path depth. Layout is fixed; only the measured values vary run to run.
func (s Snapshot) Text() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-42s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-42s %.6g\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-42s count=%d sum=%.6g p50=%.3g p95=%.3g p99=%.3g max=%.3g\n",
				h.Name, h.Count, h.Sum, h.P50, h.P95, h.P99, h.Max)
		}
	}
	if len(s.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, sp := range s.Spans {
			depth := strings.Count(sp.Name, "/")
			fmt.Fprintf(&b, "  %s%-*s count=%-6d total=%.6fs max=%.6fs\n",
				strings.Repeat("  ", depth), 42-2*depth, sp.Name,
				sp.Count, sp.TotalSec, sp.MaxSec)
		}
	}
	return b.String()
}
