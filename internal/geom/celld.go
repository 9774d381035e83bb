package geom

import "math"

// CellD is an axis-aligned cell of d-dimensional space in hyperspherical
// coordinates, stored as interleaved bounds, len(c) == 2d: the points h with
// c[2a] <= h[a] <= c[2a+1] on every axis a, in the axis order of
// Hyperspherical (R, Theta, U, then Phi[1..d-3]). Grid cells and Bisection
// sub-cells are CellDs; being one caller-owned slice, a cell can live in
// scratch memory and be rewritten in place.
type CellD []float64

// StackDim is the largest dimension whose per-call scratch (cell bounds,
// points, split points, bucket offsets, walk positions) the grid, Bisection
// and build code keep in fixed-size arrays on the goroutine stack; higher
// dimensions allocate it per call.
const StackDim = 5

// FullShellD returns the cell covering the entire shell rMin <= r <= rMax of
// d-dimensional space (d >= 2).
func FullShellD(d int, rMin, rMax float64) CellD {
	if d < 2 {
		panic("geom: FullShellD requires d >= 2")
	}
	c := make(CellD, 2*d)
	c[2*AxisR], c[2*AxisR+1] = rMin, rMax
	c[2*AxisTheta+1] = TwoPi
	if d > 2 {
		c[2*AxisU], c[2*AxisU+1] = -1, 1
	}
	for a := 3; a < d; a++ {
		c[2*a+1] = math.Pi
	}
	return c
}

// Dim returns the dimension of the space the cell lives in.
func (c CellD) Dim() int { return len(c) / 2 }

// Lo returns the lower bound of axis a.
func (c CellD) Lo(a int) float64 { return c[2*a] }

// Hi returns the upper bound of axis a.
func (c CellD) Hi(a int) float64 { return c[2*a+1] }

// Contains reports whether the point h lies in the cell, boundaries
// included.
func (c CellD) Contains(h Hyperspherical) bool {
	for a, x := range h {
		if x < c[2*a] || x > c[2*a+1] {
			return false
		}
	}
	return true
}

// SplitPoint returns the point splitting axis a into two halves of equal
// measure: the arithmetic midpoint on R (the Bisection's mid-radius sphere),
// Theta and U, where the measure is uniform, and the equal-measure point of
// the sin^(m+1) weight on Phi[m], m >= 1 (SinPowerSplit).
func (c CellD) SplitPoint(a int) float64 {
	if a <= AxisU {
		return (c[2*a] + c[2*a+1]) / 2
	}
	return SinPowerSplit(a-1, c[2*a], c[2*a+1])
}

// SubcellInto writes sub-cell q of c into dst, given c's split points,
// splits[a] = c.SplitPoint(a). Splitting every axis once yields the 2^d
// sub-cells of the d-dimensional Bisection step. Bit a-1 of q selects the
// upper half (h[a] >= the split point) of angular axis a — bit 0 Theta,
// bit 1 U, bit m+1 Phi[m] — and the top bit, d-1, the outer radial half.
// dst may be c itself.
func (c CellD) SubcellInto(dst CellD, q int, splits []float64) {
	d := len(splits)
	q = q<<1 | q>>uint(d-1)&1 // bit a of q now selects axis a's half
	for a, s := range splits {
		if q>>uint(a)&1 != 0 {
			dst[2*a], dst[2*a+1] = s, c[2*a+1]
		} else {
			dst[2*a], dst[2*a+1] = c[2*a], s
		}
	}
}

// MaxAngle returns the total angular extent of the cell: the Theta width
// plus the widths of every polar angle (the U interval measured as the
// polar angle it spans, acos(Lo) - acos(Hi)). Multiplied by the outer
// radius it bounds the arc-length detour between any two points of the
// cell along angular coordinates, the quantity the Bisection path-length
// analysis charges per recursion level.
func (c CellD) MaxAngle() float64 {
	a := c.Hi(AxisTheta) - c.Lo(AxisTheta)
	if c.Dim() > 2 {
		a += math.Acos(c.Lo(AxisU)) - math.Acos(c.Hi(AxisU))
	}
	for m := 3; m < c.Dim(); m++ {
		a += c.Hi(m) - c.Lo(m)
	}
	return a
}

// Degenerate reports whether no axis of the cell can be split further at
// floating-point resolution.
func (c CellD) Degenerate() bool {
	for a := 0; a+1 < len(c); a += 2 {
		lo, hi := c[a], c[a+1]
		if m := (lo + hi) / 2; m > lo && m < hi {
			return false
		}
	}
	return true
}
