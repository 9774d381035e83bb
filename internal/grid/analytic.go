package grid

import (
	"math"
	"sync"

	"omtree/internal/geom"
)

// This file replaces the downward trial loop of MaxFeasibleK (one full
// bucketing pass per candidate k) with an analytic estimate plus a single
// verification pass.
//
// Estimate. The grid's rings are equal-measure by construction in every
// dimension: ring i of a depth-k grid holds the fraction 2^(i-k-1) of the
// ball's volume and is cut into 2^i equal cells, so every interior cell
// holds the fraction 2^-(k+1). Under the paper's uniform-density model the
// expected number of empty interior cells is therefore
//
//	E(k) = (2^k - 2) * exp(-n / 2^(k+1)),
//
// independent of the dimension — the occupancy-lemma closed form. EstimateK
// returns the largest k keeping E(k) <= 1/2, i.e. the deepest grid that is
// still likely to satisfy grid property 3.
//
// Verification. Feasibility is exactly monotone in k: the dividing radii of
// a depth-k grid are Scale*2^((i-k)/d), so ring i of grid k and ring i+1 of
// grid k+1 are delimited by the same float64 radii, and the angular
// subdivisions nest exactly (the 2-D segment index doubles — scaling by a
// power of two is exact in float64 — and the 3-D/d-D indices are prefix
// walks of the same split sequence). A single pass therefore suffices:
// classify each point once at the deepest candidate resolution (its radial
// depth below the outer boundary, and its angular index in that depth's
// finest ring), then fold the per-depth occupancy bitmaps pairwise to read
// off the occupancy of every coarser grid at once. The estimate caps the
// resolution of that pass; if the verified answer hits the cap, the pass is
// re-run uncapped, so the result always equals the trial loop's.

// EstimateK returns the occupancy-lemma estimate of the feasible grid depth
// for n points: the largest k in [1, kMax] whose expected number of empty
// interior cells under uniform density, (2^k - 2) * exp(-n / 2^(k+1)), is
// at most 1/2. The estimate is dimension-independent (rings are
// equal-measure in every dimension) and is verified, not trusted, by the
// MaxFeasibleK*Analytic searches.
func EstimateK(n, kMax int) int {
	best := 1
	for k := 2; k <= kMax; k++ {
		empty := (math.Exp2(float64(k)) - 2) * math.Exp(-float64(n)*math.Exp2(-float64(k+1)))
		if empty > 0.5 {
			break // E(k) grows with k: deeper grids only get emptier
		}
		best = k
	}
	return best
}

// analyticCap bounds the verification pass's resolution: the estimate plus
// slack for point sets denser than uniform near the boundary. The cap only
// trades a rare second pass for memory, never the answer.
func analyticCap(n, kMax int) int {
	c := EstimateK(n, kMax) + 2
	if c > kMax {
		c = kMax
	}
	return c
}

// occBits is the verification pass's accumulator: one angular occupancy
// bitmap per radial depth, at the resolution that depth has in the deepest
// candidate grid (depth l is ring cap-l there, with 2^(cap-l) cells).
type occBits struct {
	cap  int
	bits [][]uint64 // bits[l], l in [1, cap-1]: 2^(cap-l) bits
}

func newOccBits(cap int) *occBits {
	b := &occBits{cap: cap, bits: make([][]uint64, cap)}
	for l := 1; l <= cap-1; l++ {
		b.bits[l] = make([]uint64, (1<<uint(cap-l)+63)/64)
	}
	return b
}

// mark records a point of the given radial depth at its finest-resolution
// angular index.
func (b *occBits) mark(depth, idx int) {
	b.bits[depth][idx>>6] |= 1 << uint(idx&63)
}

// or merges another accumulator of the same cap into b.
func (b *occBits) or(o *occBits) {
	for l := 1; l <= b.cap-1; l++ {
		for w, x := range o.bits[l] {
			b.bits[l][w] |= x
		}
	}
}

// classify runs the verification pass over n points: fill(b, lo, hi) marks
// points [lo, hi) into b. With workers > 1 the points are split into one
// contiguous chunk per worker, each worker marks its own accumulator, and
// the accumulators are OR-merged. OR is order-independent, so the merged
// bitmaps — and every depth read from them — equal a serial pass's.
func classify(cap, n, workers int, fill func(b *occBits, lo, hi int)) *occBits {
	if workers <= 1 || n < 2 {
		b := newOccBits(cap)
		fill(b, 0, n)
		return b
	}
	chunk := (n + workers - 1) / workers
	parts := make([]*occBits, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newOccBits(cap)
			fill(b, lo, hi)
			parts[w] = b
		}()
	}
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].or(p)
	}
	return parts[0]
}

// maxFeasible folds the bitmaps and returns the largest k in [1, cap] whose
// interior rings are all fully occupied. Grid k's ring i holds the points of
// depth l = k-i, grouped 2^(cap-k) finest-resolution cells per grid cell, so
// ring i of grid k is full exactly when depth l's bitmap is full after
// cap-k pairwise OR folds.
func (b *occBits) maxFeasible() int {
	if b.cap <= 1 {
		return 1
	}
	// reach[l] = l + (deepest fold at which depth l is still full): grid k
	// needs every depth l in [1, k-1] full at resolution k-l, i.e.
	// reach[l] >= k.
	reach := make([]int, b.cap)
	for l := 1; l < b.cap; l++ {
		reach[l] = l + maxFullRes(b.bits[l], b.cap-l)
	}
	for k := b.cap; k > 1; k-- {
		feasible := true
		for l := 1; l < k; l++ {
			if reach[l] < k {
				feasible = false
				break
			}
		}
		if feasible {
			return k
		}
	}
	return 1
}

// maxFullRes returns the largest j <= res such that the bitmap of 2^res
// bits, OR-folded down to 2^j bits, is all ones — or -1 when even the
// single-bit fold is empty. Fullness is monotone downward: the OR of two
// full halves is full.
func maxFullRes(words []uint64, res int) int {
	cur := words
	for j := res; ; j-- {
		if allOnes(cur, 1<<uint(j)) {
			return j
		}
		if j == 0 {
			return -1
		}
		cur = foldPairsOr(cur, 1<<uint(j))
	}
}

// allOnes reports whether the first nbits bits of words are all set.
func allOnes(words []uint64, nbits int) bool {
	full, rem := nbits/64, nbits%64
	for w := 0; w < full; w++ {
		if words[w] != ^uint64(0) {
			return false
		}
	}
	if rem > 0 {
		mask := uint64(1)<<uint(rem) - 1
		if words[full]&mask != mask {
			return false
		}
	}
	return true
}

// foldPairsOr returns a fresh bitmap of nbits/2 bits where bit t is the OR
// of input bits 2t and 2t+1.
func foldPairsOr(words []uint64, nbits int) []uint64 {
	if nbits <= 64 {
		var out uint64
		w := words[0]
		for t := 0; t < nbits/2; t++ {
			if w&(3<<uint(2*t)) != 0 {
				out |= 1 << uint(t)
			}
		}
		return []uint64{out}
	}
	out := make([]uint64, (nbits/2+63)/64)
	for w := range out {
		out[w] = compactPairsOr(words[2*w]) | compactPairsOr(words[2*w+1])<<32
	}
	return out
}

// compactPairsOr ORs adjacent bit pairs of x and packs the 32 results into
// the low half of the return value (bit t = bit 2t | bit 2t+1).
func compactPairsOr(x uint64) uint64 {
	x = (x | x>>1) & 0x5555555555555555
	x = (x ^ x>>1) & 0x3333333333333333
	x = (x ^ x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x ^ x>>4) & 0x00ff00ff00ff00ff
	x = (x ^ x>>8) & 0x0000ffff0000ffff
	x = (x ^ x>>16) & 0x00000000ffffffff
	return x
}

// MaxFeasibleKAnalytic returns exactly MaxFeasibleK(polars, scale, kMax),
// computed with the occupancy-lemma estimate plus a single classification
// pass instead of one bucketing trial per candidate depth (see the file
// comment for why the two searches always agree). The pass is split over
// workers goroutines; the answer does not depend on their number.
func MaxFeasibleKAnalytic(polars []geom.Polar, scale float64, kMax, workers int) int {
	if kMax < 1 {
		kMax = 1
	}
	for cap := analyticCap(len(polars), kMax); ; cap = kMax {
		if cap <= 1 {
			return 1
		}
		ref := PolarGrid{K: cap, Scale: scale}
		b := classify(cap, len(polars), workers, func(b *occBits, lo, hi int) {
			for _, c := range polars[lo:hi] {
				ring := ref.RingOf(c.R)
				if ring > 0 && ring < cap {
					b.mark(cap-ring, ref.SegIndexOf(ring, c.Theta))
				}
			}
		})
		if k := b.maxFeasible(); k < cap || cap == kMax {
			return k
		}
	}
}

// MaxFeasibleKDAnalytic returns exactly MaxFeasibleKD(d, coords, scale,
// kMax) via the analytic search, split over workers goroutines. The
// returned grid shares the tables of the grid the verification pass
// classified with: a shallower grid's Phi splits are a prefix of a deeper
// one's, and its sphere radii a suffix (radius i of depth k is radius
// i+cap-k of depth cap, bit for bit).
func MaxFeasibleKDAnalytic(d int, coords []float64, scale float64, kMax, workers int) (*GridD, error) {
	if _, err := NewGridD(d, 1, scale); err != nil {
		return nil, err
	}
	n := len(coords) / d
	kMax = feasibleKMax(kMax, n)
	for cap := analyticCap(n, kMax); ; cap = kMax {
		ref, err := NewGridD(d, cap, scale)
		if err != nil {
			return nil, err
		}
		if cap <= 1 {
			return ref, nil
		}
		b := classify(cap, n, workers, func(b *occBits, lo, hi int) {
			for i := lo; i < hi; i++ {
				h := coords[i*d : (i+1)*d]
				shell := ref.ShellOf(h[geom.AxisR])
				if shell > 0 && shell < cap {
					b.mark(cap-shell, ref.SegIndexOf(shell, h))
				}
			}
		})
		k := b.maxFeasible()
		if k == cap && cap < kMax {
			continue
		}
		if k == cap {
			return ref, nil
		}
		return &GridD{D: d, K: k, Scale: scale, radii: ref.radii[cap-k:], phi: ref.phi}, nil
	}
}
