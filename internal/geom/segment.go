package geom

// RingSegment is a segment of a planar annulus in polar coordinates around a
// fixed origin: radii in [RMin, RMax] and angles in [ThetaMin, ThetaMax].
// Angles are absolute (already normalized); a segment never wraps past 2*pi
// internally — the grid construction slices [0, 2*pi) into non-wrapping
// intervals. A full ring is represented with ThetaMin = 0, ThetaMax = 2*pi.
type RingSegment struct {
	RMin, RMax         float64
	ThetaMin, ThetaMax float64
}

// Angle returns the angular width of the segment.
func (s RingSegment) Angle() float64 { return s.ThetaMax - s.ThetaMin }

// Contains reports whether the polar point c lies in the segment, with
// boundaries treated as inclusive.
func (s RingSegment) Contains(c Polar) bool {
	return c.R >= s.RMin && c.R <= s.RMax &&
		c.Theta >= s.ThetaMin && c.Theta <= s.ThetaMax
}

// MidR returns the radius of the splitting arc (the arithmetic middle of the
// radial extent, as in the Bisection algorithm).
func (s RingSegment) MidR() float64 { return (s.RMin + s.RMax) / 2 }

// MidTheta returns the angle of the splitting ray.
func (s RingSegment) MidTheta() float64 { return (s.ThetaMin + s.ThetaMax) / 2 }

// Quarters splits the segment into its four Bisection sub-segments, splitting
// with the arc of radius MidR and the ray at MidTheta. The order is:
// (inner,low-angle), (inner,high-angle), (outer,low-angle), (outer,high-angle).
func (s RingSegment) Quarters() [4]RingSegment {
	mr, mt := s.MidR(), s.MidTheta()
	return [4]RingSegment{
		{RMin: s.RMin, RMax: mr, ThetaMin: s.ThetaMin, ThetaMax: mt},
		{RMin: s.RMin, RMax: mr, ThetaMin: mt, ThetaMax: s.ThetaMax},
		{RMin: mr, RMax: s.RMax, ThetaMin: s.ThetaMin, ThetaMax: mt},
		{RMin: mr, RMax: s.RMax, ThetaMin: mt, ThetaMax: s.ThetaMax},
	}
}

// QuarterIndex returns which of the four Quarters sub-segments the polar
// point c falls into, using half-open splits so every contained point maps to
// exactly one quarter.
func (s RingSegment) QuarterIndex(c Polar) int {
	i := 0
	if c.R >= s.MidR() {
		i |= 2
	}
	if c.Theta >= s.MidTheta() {
		i |= 1
	}
	return i
}

// Degenerate reports whether the segment is too small to split further at
// floating-point resolution: both its radial extent and its angular extent
// have collapsed (no midpoint strictly separates the halves).
func (s RingSegment) Degenerate() bool {
	radialFlat := !(s.MidR() > s.RMin && s.MidR() < s.RMax)
	angularFlat := !(s.MidTheta() > s.ThetaMin && s.MidTheta() < s.ThetaMax)
	return radialFlat && angularFlat
}
