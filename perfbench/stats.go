package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// percentile is the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least a share q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps q*n from rounding up past a whole rank (0.999*10000).
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie strictly above a reported tail.
const minBeyond = 10

// tailStat is a timing's tail: the highest ladder percentile that has at
// least minBeyond samples strictly beyond it.
type tailStat struct {
	Value  float64
	Pct    float64 // the percentile, e.g. 0.99
	Beyond int     // samples strictly greater than Value
	N      int     // sample count
	OK     bool    // false when even the median has fewer than minBeyond beyond it
}

// tailOf applies the tail rule to an ascending slice.
func tailOf(sorted []float64) tailStat {
	for _, q := range tailLadder {
		v := percentile(sorted, q)
		beyond := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
		if beyond >= minBeyond {
			return tailStat{Value: v, Pct: q, Beyond: beyond, N: len(sorted), OK: true}
		}
	}
	return tailStat{N: len(sorted)}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) gives (its default "exclusive" method),
// so spreads read the same here as in a Python check of the result files.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
