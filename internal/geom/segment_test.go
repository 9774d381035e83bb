package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRingSegmentQuartersPartition(t *testing.T) {
	s := RingSegment{RMin: 1, RMax: 2, ThetaMin: 0.5, ThetaMax: 1.5}
	qs := s.Quarters()

	// Quarters tile the parent: each quarter is contained and their
	// radial/angular extents meet exactly at the midpoints.
	for i, q := range qs {
		if q.RMin < s.RMin || q.RMax > s.RMax || q.ThetaMin < s.ThetaMin || q.ThetaMax > s.ThetaMax {
			t.Errorf("quarter %d %+v escapes parent %+v", i, q, s)
		}
	}
	if qs[0].RMax != s.MidR() || qs[2].RMin != s.MidR() {
		t.Error("radial split not at MidR")
	}
	if qs[0].ThetaMax != s.MidTheta() || qs[1].ThetaMin != s.MidTheta() {
		t.Error("angular split not at MidTheta")
	}
}

func TestRingSegmentQuarterIndexConsistent(t *testing.T) {
	s := RingSegment{RMin: 0.5, RMax: 1.5, ThetaMin: 0, ThetaMax: 1}
	qs := s.Quarters()
	f := func(rFrac, tFrac float64) bool {
		rFrac = math.Abs(math.Mod(rFrac, 1))
		tFrac = math.Abs(math.Mod(tFrac, 1))
		c := Polar{
			R:     s.RMin + rFrac*(s.RMax-s.RMin),
			Theta: s.ThetaMin + tFrac*(s.ThetaMax-s.ThetaMin),
		}
		i := s.QuarterIndex(c)
		return i >= 0 && i < 4 && qs[i].Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingSegmentContainsBoundary(t *testing.T) {
	s := RingSegment{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1}
	for _, c := range []Polar{
		{R: 1, Theta: 0}, {R: 2, Theta: 1}, {R: 1.5, Theta: 0.5},
	} {
		if !s.Contains(c) {
			t.Errorf("Contains(%+v) = false, want true", c)
		}
	}
	for _, c := range []Polar{
		{R: 0.99, Theta: 0.5}, {R: 1.5, Theta: 1.01},
	} {
		if s.Contains(c) {
			t.Errorf("Contains(%+v) = true, want false", c)
		}
	}
}

func TestRingSegmentDegenerate(t *testing.T) {
	if (RingSegment{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1}).Degenerate() {
		t.Error("regular segment reported degenerate")
	}
	// A point-like segment cannot be split.
	s := RingSegment{RMin: 1, RMax: 1, ThetaMin: 0.5, ThetaMax: 0.5}
	if !s.Degenerate() {
		t.Error("point segment not reported degenerate")
	}
	// Segments degenerate in only one axis can still be split.
	s = RingSegment{RMin: 1, RMax: 1, ThetaMin: 0, ThetaMax: 1}
	if s.Degenerate() {
		t.Error("radially-flat segment reported degenerate")
	}
}
