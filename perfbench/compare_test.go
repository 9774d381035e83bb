package main

import (
	"strings"
	"testing"
	"time"
)

// spinWorkload stands in for the program in the harness self-test: each
// iteration makes a few calls that each busy-wait a fixed time, so the
// harness is tested without the machine noise the real workloads carry.
type spinWorkload struct {
	calls int
	each  time.Duration
}

func (w spinWorkload) nodes() int            { return 1 }
func (w spinWorkload) inputChecksum() uint64 { return 1 }
func (w spinWorkload) release()              {}
func (w spinWorkload) verify() error         { return nil }
func (w spinWorkload) checksum() uint64      { return 1 }
func (w spinWorkload) outputs() map[string]float64 {
	return map[string]float64{"radius": 1}
}

func (w spinWorkload) callsPerIteration() [numKinds]int {
	var c [numKinds]int
	c[kBuild] = w.calls
	return c
}

func (w spinWorkload) iterate(r *recorder) error {
	for i := 0; i < w.calls; i++ {
		t := r.begin(kBuild)
		for time.Since(t.start) < w.each {
		}
		r.end(kBuild, t)
	}
	return nil
}

// The harness self-test: a synthetic 10% delay planted in the driver's own
// timed loop, never in program code, must be flagged against unchanged
// runs, while a second set of unchanged runs must not be. The three sides
// run interleaved seed by seed, rotating which goes first.
func TestPlantedSlowdownIsFlagged(t *testing.T) {
	const pairs = 16
	spin := func(config) workload { return spinWorkload{calls: 4, each: time.Millisecond} }
	var base, same, slow []*result
	for seed := uint64(1); seed <= pairs; seed++ {
		sides := []*[]*result{&base, &same, &slow}
		for i := range sides {
			side := sides[(i+int(seed))%len(sides)]
			cfg := config{Workload: "disk_table1", Seed: seed, Seconds: 0.05, Setups: 1}
			if side == &slow {
				cfg.Slowdown = 0.10
			}
			r, err := execute(cfg, spin)
			if err != nil {
				t.Fatal(err)
			}
			res := summarize(r)
			res.Fingerprint.Slowdown = 0 // the plant must not stop the pairing
			*side = append(*side, res)
		}
	}

	vs, err := compareSets(base, same)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Flag != "" {
			t.Errorf("unchanged pair: %s flagged %s (base %g, cand %g, worse %d/%d, IQR %g)",
				v.Metric, v.Flag, v.BaseMedian, v.CandMedian, v.Worse, v.Pairs, v.BaseIQR)
		}
	}

	vs, err = compareSets(base, slow)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		want := ""
		if v.Metric == "iteration_s" {
			want = "regressed"
		}
		if v.Flag != want {
			t.Errorf("planted 10%% slowdown: %s flagged %q, want %q (base %g, cand %g, worse %d/%d, IQR %g)",
				v.Metric, v.Flag, want, v.BaseMedian, v.CandMedian, v.Worse, v.Pairs, v.BaseIQR)
		}
	}
}

func TestCompareRefusesMismatchedFingerprints(t *testing.T) {
	mk := func(seed uint64, cpu string, procs int) *result {
		fp := machineFingerprint(config{Workload: "disk_table1", Seed: seed, Seconds: 1, N: 10})
		fp.CPU, fp.GOMAXPROCS = cpu, procs
		return &result{Fingerprint: fp, Correct: true, Metrics: map[string]metric{"iteration_s": {Value: 1}}}
	}
	cases := []struct {
		name       string
		base, cand []*result
		want       string
	}{
		{"cpu model", []*result{mk(1, "a", 2)}, []*result{mk(1, "b", 2)}, "fingerprint"},
		{"GOMAXPROCS", []*result{mk(1, "a", 2)}, []*result{mk(1, "a", 4)}, "fingerprint"},
		{"unpaired seed", []*result{mk(1, "a", 2), mk(2, "a", 2)}, []*result{mk(1, "a", 2), mk(3, "a", 2)}, "no candidate"},
		{"repeated seed", []*result{mk(1, "a", 2), mk(1, "a", 2)}, nil, "twice"},
	}
	for _, c := range cases {
		_, err := compareSets(c.base, c.cand)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.want)
		}
	}
	if _, err := compareSets([]*result{mk(1, "a", 2)}, []*result{mk(1, "a", 2)}); err != nil {
		t.Errorf("matching fingerprints refused: %v", err)
	}
}
