// Package flight is the always-on health surface of the observability
// stack: where internal/obs answers "how much, right now" and obs/trace
// answers "what happened in what order", a flight.Recorder answers "how has
// the overlay been trending, and is it still inside its SLOs" — the
// trajectory of the eq. 7 certificate ratio, the join shed rate, the trace
// ring's eviction counter, sampled once per protocol maintenance sweep into
// a bounded ring that external tooling can scrape or replay after a crash.
//
// Design constraints, in order:
//
//   - Zero cost when absent. Every method is nil-receiver safe and checks
//     an enabled atomic before doing work, exactly like obs.Registry and
//     trace.Recorder: a nil *Recorder turns every Tick into a single nil
//     check, so instrumented code needs no "if flight" scaffolding and
//     unrecorded runs stay byte-identical and within benchmark noise.
//   - Bounded memory. Samples land in a fixed-capacity ring; when the ring
//     is full the oldest sample is evicted and an eviction counter
//     increments. Alerts are bounded the same way. A long-lived service can
//     never grow the recorder.
//   - Deterministic. Sampling is driven by the protocol's virtual round
//     clock (Tick per maintenance sweep, SampleNow per build), never by a
//     wall-clock timer, and a sample captures only the deterministic metric
//     families — counters and gauges. Timing spans, latency histograms
//     and wall-clock gauges (obs.Registry.WallGauge) carry wall-clock
//     measurements and are deliberately excluded, so two seeded runs
//     export byte-identical JSONL and health reports. The full registry
//     (spans, histograms and wall-clock gauges included) stays available
//     through Snapshot-based exports.
//
// Each sample carries per-series delta and per-round rate columns computed
// against the previous sample, and is evaluated against the recorder's
// declarative SLO rules (see SLORule): a rule that holds for its `for`
// window fires an alert into the registry ("flight/slo_alerts" plus a
// per-rule labeled counter), into the attached trace recorder
// ("flight/slo_fire"), and into the sample itself.
package flight

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"omtree/internal/obs"
	"omtree/internal/obs/trace"
)

// DefaultCapacity is the sample-ring size used when Config.Capacity is not
// positive: enough for a few hundred maintenance sweeps of history at a
// few KB per sample.
const DefaultCapacity = 256

// maxAlerts bounds the retained alert log; older alerts are evicted first.
const maxAlerts = 1024

// Rate is one series' movement between two consecutive samples.
type Rate struct {
	// Delta is the value change since the previous sample.
	Delta float64 `json:"delta"`
	// PerRound is Delta divided by the virtual rounds elapsed between the
	// two samples (at least one, so back-to-back build samples stay finite).
	PerRound float64 `json:"per_round"`
}

// Sample is one frozen point of the health trajectory: the registry's
// counter and gauge families at a virtual round, plus the movement since
// the previous sample and any alerts that fired on this evaluation.
type Sample struct {
	// Index is the 0-based sample number, never reused; eviction drops old
	// samples but never renumbers survivors.
	Index int64 `json:"sample"`
	// Round is the virtual round clock at capture time.
	Round int64 `json:"round"`
	// Cause names what triggered the sample: "round" for the periodic
	// round-clock sampler, "build" for a completed tree build.
	Cause string `json:"cause"`
	// Counters and Gauges freeze the deterministic registry families
	// (counter funcs evaluated, labeled series included).
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Rates holds the per-series movement since the previous sample, for
	// every series whose value changed (absent on the first sample).
	Rates map[string]Rate `json:"rates,omitempty"`
	// Alerts lists the SLO alerts that fired on this sample.
	Alerts []Alert `json:"alerts,omitempty"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the number of virtual rounds between periodic samples;
	// values below 1 sample every round.
	Interval int
	// Capacity is the sample-ring size; values below 1 select
	// DefaultCapacity.
	Capacity int
	// Rules are the SLO rules evaluated against every sample.
	Rules []SLORule
	// Trace, when non-nil, receives one "flight/slo_fire" /
	// "flight/slo_clear" event per alert transition, on the same timeline
	// as the protocol events that caused it.
	Trace *trace.Recorder
}

// Recorder samples a metrics registry into a bounded ring and watches the
// samples against SLO rules. The zero value is not usable; call New. A nil
// *Recorder is valid everywhere and records nothing.
type Recorder struct {
	enabled atomic.Bool

	// total and evicted back the registry's "flight/..." counter funcs;
	// they are atomics (not mu-guarded) so a registry snapshot taken from
	// inside sampleLocked can read them without re-entering mu.
	total   atomic.Int64
	evicted atomic.Int64
	fired   atomic.Int64
	cleared atomic.Int64

	mu       sync.Mutex
	reg      *obs.Registry
	rec      *trace.Recorder
	interval int
	ring     []Sample
	start, n int
	round    int64
	sinceS   int
	prev     map[string]float64 // previous sample's series values
	prevRnd  int64
	rules    []ruleState
	alerts   []Alert
	alertCut int64 // alerts evicted from the bounded log
}

// New returns an enabled recorder sampling reg. The registry must be
// non-nil: a recorder exists to watch one. Rule validation happens at parse
// time; New accepts any parsed rules as-is.
func New(reg *obs.Registry, cfg Config) *Recorder {
	if reg == nil {
		return nil
	}
	interval := cfg.Interval
	if interval < 1 {
		interval = 1
	}
	capacity := cfg.Capacity
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		reg:      reg,
		rec:      cfg.Trace,
		interval: interval,
		ring:     make([]Sample, capacity),
		rules:    make([]ruleState, len(cfg.Rules)),
	}
	for i, rule := range cfg.Rules {
		r.rules[i].rule = rule.normalized()
	}
	r.enabled.Store(true)
	reg.RegisterCounterFunc("flight/samples", func() int64 { return r.total.Load() })
	reg.RegisterCounterFunc("flight/evicted_samples", func() int64 { return r.evicted.Load() })
	reg.RegisterCounterFunc("flight/slo_alerts", func() int64 { return r.fired.Load() })
	reg.RegisterCounterFunc("flight/slo_clears", func() int64 { return r.cleared.Load() })
	return r
}

// SetEnabled toggles recording. A disabled recorder keeps its ring and its
// round clock position but ignores Tick and SampleNow after one atomic
// load — the "~zero overhead" path the benchmarks gate.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether the recorder currently samples.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Tick advances the virtual round clock by one maintenance sweep and takes
// a periodic sample when the configured interval elapses. The protocol
// calls this once per MaintenanceRound (or once per GroupSet.MaintenanceAll
// sweep), so tests and seeded CLIs stay deterministic.
func (r *Recorder) Tick() {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.round++
	r.sinceS++
	if r.sinceS >= r.interval {
		r.sinceS = 0
		r.sampleLocked("round")
	}
	r.mu.Unlock()
}

// SampleNow takes an immediate sample tagged with the given cause ("build"
// from the tree-build pipeline) without advancing the round clock.
func (r *Recorder) SampleNow(cause string) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.sampleLocked(cause)
	r.mu.Unlock()
}

// sampleLocked freezes the registry's deterministic families, computes the
// rate columns against the previous sample, evaluates the SLO rules, and
// appends the sample to the ring. Caller holds r.mu. The registry snapshot
// nests the registry lock under r.mu; the registry never calls back into
// mu-guarded recorder state (its "flight/..." counter funcs read atomics),
// so the order cannot deadlock.
func (r *Recorder) sampleLocked(cause string) {
	snap := r.reg.Snapshot()
	s := Sample{
		Index: r.total.Load(),
		Round: r.round,
		Cause: cause,
	}
	cur := make(map[string]float64, len(snap.Counters)+len(snap.Gauges))
	if len(snap.Counters) > 0 {
		s.Counters = make(map[string]int64, len(snap.Counters))
		for _, c := range snap.Counters {
			s.Counters[c.Name] = c.Value
			cur[c.Name] = float64(c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if g.Wall {
			continue // wall-clock noise: a sample must replay byte-for-byte
		}
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(snap.Gauges))
		}
		s.Gauges[g.Name] = g.Value
		cur[g.Name] = g.Value
	}
	if r.prev != nil {
		rounds := r.round - r.prevRnd
		if rounds < 1 {
			rounds = 1
		}
		for name, v := range cur {
			if d := v - r.prev[name]; d != 0 {
				if s.Rates == nil {
					s.Rates = make(map[string]Rate)
				}
				s.Rates[name] = Rate{Delta: d, PerRound: d / float64(rounds)}
			}
		}
	}
	r.prev = cur
	r.prevRnd = r.round
	r.evalRulesLocked(&s)
	r.total.Add(1)
	if r.n == len(r.ring) {
		r.ring[r.start] = s
		r.start = (r.start + 1) % len(r.ring)
		r.evicted.Add(1)
		return
	}
	r.ring[(r.start+r.n)%len(r.ring)] = s
	r.n++
}

// Rounds returns the current virtual round clock (Ticks seen).
func (r *Recorder) Rounds() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round
}

// Len returns the number of retained samples.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity in samples (0 on a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Total returns how many samples were ever taken (retained or evicted).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total.Load()
}

// Evicted returns how many samples the ring dropped to make room.
func (r *Recorder) Evicted() int64 {
	if r == nil {
		return 0
	}
	return r.evicted.Load()
}

// Samples returns the retained samples, oldest first. The slice is a copy;
// the map fields are shared and must be treated as read-only.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(r.start+i)%len(r.ring)]
	}
	return out
}

// LastSample returns the most recent sample and whether one exists.
func (r *Recorder) LastSample() (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Sample{}, false
	}
	return r.ring[(r.start+r.n-1)%len(r.ring)], true
}

// Alerts returns the retained alert log, oldest first (a copy).
func (r *Recorder) Alerts() []Alert {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Alert(nil), r.alerts...)
}

// WriteJSONL renders the retained ring as append-only JSONL: one compact
// JSON object per sample, oldest first. Map keys marshal in sorted order,
// so two runs of the same seeded scenario write byte-identical files.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, s := range r.Samples() {
		data, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}
