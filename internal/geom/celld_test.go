package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// splitsOf returns every axis's split point of c.
func splitsOf(c CellD) []float64 {
	s := make([]float64, c.Dim())
	for a := range s {
		s[a] = c.SplitPoint(a)
	}
	return s
}

// subcells returns the 2^d sub-cells of c in SubcellInto index order.
func subcells(c CellD) []CellD {
	d, splits := c.Dim(), splitsOf(c)
	out := make([]CellD, 1<<uint(d))
	for q := range out {
		out[q] = make(CellD, 2*d)
		c.SubcellInto(out[q], q, splits)
	}
	return out
}

// subcellIndex returns the index of the sub-cell of c holding h, with
// half-open splits: a set bit means h[a] >= the split point.
func subcellIndex(c CellD, h Hyperspherical) int {
	q := 0
	for a := range h {
		if h[a] >= c.SplitPoint(a) {
			bit := a - 1
			if a == AxisR {
				bit = c.Dim() - 1
			}
			q |= 1 << uint(bit)
		}
	}
	return q
}

func TestFullShellDCoversSphere(t *testing.T) {
	for d := 2; d <= 5; d++ {
		c := FullShellD(d, 0.5, 1)
		if c.Dim() != d {
			t.Errorf("d=%d: Dim = %d", d, c.Dim())
		}
		// A bundle of unit-norm-ish vectors must all be contained after
		// scaling into the radial range.
		for _, seed := range [][]float64{
			{1, 0, 0, 0, 0}, {0, -1, 0, 0, 0}, {0.3, 0.3, -0.3, 0.3, 0.3},
			{-1, -1, -1, -1, -1}, {0, 0, 1, 0, 0}, {0, 0, -1, 0, 0},
		} {
			v := make(Vec, d)
			copy(v, seed[:d])
			n := v.Norm()
			if n == 0 {
				continue
			}
			v = v.Scale(0.75 / n)
			if !c.Contains(v.ToHyperspherical()) {
				t.Errorf("d=%d: shell does not contain %v", d, v)
			}
		}
	}
}

func TestCellDSplitAngularEqualMeasure(t *testing.T) {
	c := FullShellD(5, 0.5, 1)
	// Theta and U split at their arithmetic midpoints: the measure is
	// uniform in both.
	if got := c.SplitPoint(AxisTheta); got != math.Pi {
		t.Errorf("theta split at %v, want pi", got)
	}
	if got := c.SplitPoint(AxisU); got != 0 {
		t.Errorf("U split at %v, want 0", got)
	}
	// Phi[m] (axis m+2) splits the sin^(m+1) measure equally, on the full
	// range and on an off-centre interval.
	for a := 3; a < c.Dim(); a++ {
		for _, iv := range [][2]float64{{0, math.Pi}, {0.2, 1.1}} {
			cell := FullShellD(5, 0.5, 1)
			cell[2*a], cell[2*a+1] = iv[0], iv[1]
			s := cell.SplitPoint(a)
			left := SinPowerIntegral(a-1, s) - SinPowerIntegral(a-1, iv[0])
			right := SinPowerIntegral(a-1, iv[1]) - SinPowerIntegral(a-1, s)
			if !almostEqual(left, right, 1e-9) {
				t.Errorf("axis %d on %v: measures %v vs %v", a, iv, left, right)
			}
		}
	}
}

func TestCellDSubcellsCountAndContainment(t *testing.T) {
	for d := 2; d <= 5; d++ {
		c := FullShellD(d, 0.4, 1)
		subs := subcells(c)
		if len(subs) != 1<<d {
			t.Fatalf("d=%d: %d subcells, want %d", d, len(subs), 1<<d)
		}
		for i, s := range subs {
			for a := 0; a < d; a++ {
				if s.Lo(a) < c.Lo(a) || s.Hi(a) > c.Hi(a) || s.Lo(a) >= s.Hi(a) {
					t.Errorf("d=%d sub %d: axis %d range [%v, %v] escapes [%v, %v]",
						d, i, a, s.Lo(a), s.Hi(a), c.Lo(a), c.Hi(a))
				}
			}
		}
		// Index-bit convention: bit d-1 selects the outer radial half.
		mid := c.SplitPoint(AxisR)
		for i, s := range subs {
			if wantOuter, isOuter := i&(1<<(d-1)) != 0, s.Lo(AxisR) == mid; wantOuter != isOuter {
				t.Errorf("d=%d sub %d: radial bit mismatch", d, i)
			}
		}
	}
}

func TestCellDSubcellIndexConsistent(t *testing.T) {
	seeds := [][]float64{
		{0.6, 0.1, -0.2, 0.3}, {-0.4, -0.4, 0.4, -0.1},
		{0.05, 0.7, 0.1, 0.1}, {0.5, -0.5, -0.5, 0.5},
	}
	for _, d := range []int{2, 3, 4} {
		c := FullShellD(d, 0.3, 1)
		subs := subcells(c)
		for _, seed := range seeds {
			v := make(Vec, d)
			copy(v, seed[:d])
			n := v.Norm()
			if n == 0 {
				continue
			}
			v = v.Scale(0.8 / n) // radius 0.8, inside the shell
			h := v.ToHyperspherical()
			if i := subcellIndex(c, h); !subs[i].Contains(h) {
				t.Errorf("d=%d: subcell %d does not contain %v (h=%v cell=%+v)", d, i, v, h, subs[i])
			}
		}
	}
}

func TestCellDMatchesRingSegmentIn2D(t *testing.T) {
	subs := subcells(FullShellD(2, 0.5, 1))
	qs := RingSegment{RMin: 0.5, RMax: 1, ThetaMin: 0, ThetaMax: TwoPi}.Quarters()
	// CellD order: bit 0 = theta-high, bit 1 = radial-outer, which is
	// RingSegment's (inner,lo), (inner,hi), (outer,lo), (outer,hi).
	for i, s := range subs {
		q := qs[i]
		if s.Lo(AxisR) != q.RMin || s.Hi(AxisR) != q.RMax ||
			s.Lo(AxisTheta) != q.ThetaMin || s.Hi(AxisTheta) != q.ThetaMax {
			t.Errorf("subcell %d = %+v, quarter %d = %+v", i, s, i, q)
		}
	}
}

func TestCellDMaxAngle(t *testing.T) {
	c := FullShellD(3, 0.5, 1)
	want := TwoPi + math.Pi
	if got := c.MaxAngle(); !almostEqual(got, want, 1e-12) {
		t.Errorf("MaxAngle = %v, want %v", got, want)
	}
	for i, s := range subcells(c) {
		if s.MaxAngle() >= c.MaxAngle() {
			t.Errorf("subcell %d angle %v not smaller than parent %v", i, s.MaxAngle(), c.MaxAngle())
		}
	}
	// The U interval counts as the polar angle it spans.
	cap := CellD{0, 1, 0, 1, 0, 1}
	if got := cap.MaxAngle(); !almostEqual(got, 1+math.Pi/2, 1e-12) {
		t.Errorf("cap MaxAngle = %v, want %v", got, 1+math.Pi/2)
	}
}

func TestCellDDegenerate(t *testing.T) {
	if FullShellD(3, 0.5, 1).Degenerate() {
		t.Error("regular cell reported degenerate")
	}
	pt := CellD{1, 1, 2, 2, 0.5, 0.5, 0.5, 0.5}
	if !pt.Degenerate() {
		t.Error("point cell not reported degenerate")
	}
	// A cell flat on every axis but one can still be split.
	pt[7] = 1
	if pt.Degenerate() {
		t.Error("cell with one open axis reported degenerate")
	}
}

func TestCellDCloneIndependence(t *testing.T) {
	// SubcellInto writes only dst, and may overwrite its own source cell.
	c := FullShellD(4, 0.5, 1)
	splits := splitsOf(c)
	dst := make(CellD, 8)
	c.SubcellInto(dst, 5, splits)
	dst[6] = -99
	if c.Lo(3) == -99 {
		t.Error("sub-cell shares storage with its parent")
	}
	c.SubcellInto(dst, 5, splits)
	c.SubcellInto(c, 5, splits)
	for a := range c {
		if c[a] != dst[a] {
			t.Fatalf("in-place sub-cell %+v differs from %+v", c, dst)
		}
	}
}

func TestShellCellOctantsPartition(t *testing.T) {
	s := CellD{1, 2, 0, 1, -0.5, 0.5}
	var volume float64
	for i, o := range subcells(s) {
		if o.Lo(AxisR) < s.Lo(AxisR) || o.Hi(AxisR) > s.Hi(AxisR) {
			t.Errorf("octant %d radial range escapes parent", i)
		}
		// Shell-cell measure in (theta, u) is exactly the box area; all
		// octants at the same radial half must have equal angular measure.
		volume += (o.Hi(AxisTheta) - o.Lo(AxisTheta)) * (o.Hi(AxisU) - o.Lo(AxisU))
	}
	parent := (s.Hi(AxisTheta) - s.Lo(AxisTheta)) * (s.Hi(AxisU) - s.Lo(AxisU))
	if !almostEqual(volume, 2*parent, 1e-12) {
		t.Errorf("octants angular measure = %v, want %v", volume, 2*parent)
	}
}

func TestShellCellOctantIndexConsistent(t *testing.T) {
	s := CellD{0.2, 1, 1, 2.5, -1, 0.25}
	os := subcells(s)
	f := func(rf, tf, uf float64) bool {
		h := Hyperspherical{rf, tf, uf}
		for a := range h {
			h[a] = s.Lo(a) + math.Abs(math.Mod(h[a], 1))*(s.Hi(a)-s.Lo(a))
		}
		i := subcellIndex(s, h)
		return i >= 0 && i < 8 && os[i].Contains(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShellCellDegenerate(t *testing.T) {
	if (CellD{1, 2, 0, 1, 0, 1}).Degenerate() {
		t.Error("regular cell reported degenerate")
	}
	if !(CellD{1, 1, 2, 2, 0.5, 0.5}).Degenerate() {
		t.Error("point cell not reported degenerate")
	}
}
