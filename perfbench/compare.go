package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// winShare is the share of base/candidate pairs a candidate must lose (or
// win) before a shift can count as a regression (or gain).
const winShare = 0.9

// verdict compares one end-to-end metric of one workload across paired
// runs: base and candidate results with the same fingerprint and seed.
type verdict struct {
	Workload   string
	Metric     string
	Pairs      int
	Worse      int // pairs where the candidate is worse; ties count for neither side
	Better     int
	BaseMedian float64
	CandMedian float64
	BaseIQR    float64 // distance between the base runs' quartiles
	BaseSpread float64 // BaseIQR over BaseMedian
	Bound      float64
	// Flag is "regressed" or "improved" when the candidate lost (won) at
	// least winShare of the pairs and the medians differ by more than the
	// base runs' own interquartile distance; empty otherwise.
	Flag string
	// OverBound reports a candidate median worse than the base median by
	// more than the metric's bound.
	OverBound bool
}

// machineKey is a fingerprint without the seed: results compare only when
// their keys are equal.
func machineKey(fp fingerprint) fingerprint {
	fp.Seed = 0
	return fp
}

// compareSets pairs base and candidate results by seed and judges every
// end-to-end metric. It refuses results whose fingerprints differ in
// anything but the seed, a seed that appears twice on one side, and a
// seed present on only one side. With no candidates it reports the base
// runs' spreads alone.
func compareSets(base, cand []*result) ([]verdict, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("no base results")
	}
	key := machineKey(base[0].Fingerprint)
	index := func(side string, rs []*result) (map[uint64]*result, error) {
		m := map[uint64]*result{}
		for _, r := range rs {
			if k := machineKey(r.Fingerprint); k != key {
				return nil, fmt.Errorf("%s result for seed %d has fingerprint %+v, want %+v", side, r.Fingerprint.Seed, k, key)
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s result for seed %d failed its output checks", side, r.Fingerprint.Seed)
			}
			if _, dup := m[r.Fingerprint.Seed]; dup {
				return nil, fmt.Errorf("%s results hold seed %d twice", side, r.Fingerprint.Seed)
			}
			m[r.Fingerprint.Seed] = r
		}
		return m, nil
	}
	bm, err := index("base", base)
	if err != nil {
		return nil, err
	}
	cm, err := index("candidate", cand)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, 0, len(bm))
	for s := range bm {
		if _, ok := cm[s]; !ok && len(cand) > 0 {
			return nil, fmt.Errorf("seed %d has a base result but no candidate", s)
		}
		seeds = append(seeds, s)
	}
	if len(cand) > 0 && len(cm) != len(bm) {
		return nil, fmt.Errorf("%d candidate seeds against %d base seeds", len(cm), len(bm))
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	var out []verdict
	for _, d := range endToEnd {
		v := verdict{Workload: key.Workload, Metric: d.Name, Bound: d.Bound}
		var bs, cs []float64
		for _, s := range seeds {
			b := bm[s].Metrics[d.Name].Value
			bs = append(bs, b)
			c, ok := cm[s]
			if !ok {
				continue
			}
			cv := c.Metrics[d.Name].Value
			cs = append(cs, cv)
			v.Pairs++
			switch worse := worseBy(d, b, cv); {
			case worse > 0:
				v.Worse++
			case worse < 0:
				v.Better++
			}
		}
		q1, q2, q3 := quartiles(bs)
		v.BaseMedian, v.BaseIQR = q2, q3-q1
		if q2 != 0 {
			v.BaseSpread = v.BaseIQR / math.Abs(q2)
		}
		if v.Pairs > 0 {
			_, v.CandMedian, _ = quartiles(cs)
			need := int(math.Ceil(winShare * float64(v.Pairs)))
			shift := math.Abs(v.CandMedian - v.BaseMedian)
			switch {
			case v.Worse >= need && shift > v.BaseIQR:
				v.Flag = "regressed"
			case v.Better >= need && shift > v.BaseIQR:
				v.Flag = "improved"
			}
			v.OverBound = worseBy(d, v.BaseMedian, v.CandMedian) > d.Bound*math.Abs(v.BaseMedian)
		}
		out = append(out, v)
	}
	return out, nil
}

// worseBy is how much worse c is than b for metric d (negative: better).
func worseBy(d metricDef, b, c float64) float64 {
	if d.Better == "higher" {
		return b - c
	}
	return c - b
}

// loadResults reads the result files a glob pattern matches.
func loadResults(pattern string) ([]*result, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

func writeVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-14s %-22s %5s %12s %12s %8s %8s %6s %s\n",
		"workload", "metric", "pairs", "base_median", "cand_median", "shift", "spread", "bound", "verdict")
	for _, v := range vs {
		shift := "-"
		if v.Pairs > 0 && v.BaseMedian != 0 {
			shift = fmt.Sprintf("%+.2f%%", 100*(v.CandMedian-v.BaseMedian)/math.Abs(v.BaseMedian))
		}
		verdict := v.Flag
		if v.Pairs > 0 {
			if verdict == "" {
				verdict = "unchanged"
			}
			verdict += fmt.Sprintf(" (worse %d, better %d)", v.Worse, v.Better)
			if v.OverBound {
				verdict += ", over bound"
			}
		} else if v.BaseSpread > v.Bound/3 {
			verdict = "spread above a third of the bound"
		}
		fmt.Fprintf(w, "%-14s %-22s %5d %12.6g %12.6g %8s %7.2f%% %5.0f%% %s\n",
			v.Workload, v.Metric, v.Pairs, v.BaseMedian, v.CandMedian, shift,
			100*v.BaseSpread, 100*v.Bound, verdict)
	}
}
