package geom

import "math"

// TwoPi is 2*pi, the full angle of a circle.
const TwoPi = 2 * math.Pi

// Polar is a point of the plane in polar coordinates: radius R >= 0 and angle
// Theta normalized to [0, 2*pi).
type Polar struct {
	R, Theta float64
}

// ToPolar converts p to polar coordinates around the origin.
func (p Point2) ToPolar() Polar {
	return Polar{R: p.Norm(), Theta: NormalizeAngle(math.Atan2(p.Y, p.X))}
}

// PolarAround converts p to polar coordinates around the given origin.
func (p Point2) PolarAround(origin Point2) Polar {
	return p.Sub(origin).ToPolar()
}

// ToPoint converts polar coordinates back to a Cartesian point.
func (c Polar) ToPoint() Point2 {
	s, cos := math.Sincos(c.Theta)
	return Point2{X: c.R * cos, Y: c.R * s}
}

// NormalizeAngle maps an angle (radians) into [0, 2*pi).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	// math.Mod can return exactly TwoPi-eps sums that round to TwoPi after
	// the correction above; clamp so callers can rely on a < 2*pi.
	if a >= TwoPi {
		a = 0
	}
	return a
}

// AngleDist returns the absolute angular distance between two angles, in
// [0, pi].
func AngleDist(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = TwoPi - d
	}
	return d
}

// Axes of a Hyperspherical point, in storage order; polar angle Phi[m],
// m >= 1, sits at index m+2.
const (
	AxisR     = 0 // radius
	AxisTheta = 1 // azimuth
	AxisU     = 2 // cosine of the first polar angle (d >= 3)
)

// Hyperspherical holds the hyperspherical coordinates of a point of
// d-dimensional space, d >= 2, flat: one float64 per axis, len(h) == d.
//
//	h[AxisR]     = R >= 0
//	h[AxisTheta] = Theta in [0, 2*pi), the azimuth
//	h[AxisU]     = U = cos(Phi[0]) in [-1, 1]          (d >= 3)
//	h[m+2]       = Phi[m] in [0, pi], m = 1 .. d-3      (d >= 4)
//
// The Cartesian reconstruction convention (matching HypersphericalInto) is
//
//	x_d     = R * cos(Phi[d-3])
//	x_{d-1} = R * sin(Phi[d-3]) * cos(Phi[d-4])
//	...
//	x_3     = R * sin(Phi[d-3]) * ... * sin(Phi[1]) * cos(Phi[0])
//	x_2     = R * sin(Phi[d-3]) * ... * sin(Phi[0]) * sin(Theta)
//	x_1     = R * sin(Phi[d-3]) * ... * sin(Phi[0]) * cos(Theta)
//
// so Phi[m] carries surface measure proportional to sin(Phi[m])^(m+1). For
// m = 0 that measure is uniform in U = cos(Phi[0]), which is why the first
// polar axis is stored as U: its equal-measure splits are midpoints. At
// d = 3, (R, Theta, U) are the usual spherical coordinates with U = z/R.
//
// A slice of n points is stored flat too, point i at [i*d, (i+1)*d).
type Hyperspherical []float64

// HypersphericalInto writes the hyperspherical coordinates of v around the
// origin into h (len(h) == len(v) >= 2). h may be v itself: the conversion
// then happens in place. The origin maps to R = 0, Theta = 0, U = 1 and
// Phi[m] = 0.
func (v Vec) HypersphericalInto(h Hyperspherical) {
	d := len(v)
	if d < 2 {
		panic("geom: hyperspherical coordinates need dimension >= 2")
	}
	mustSameDim(len(h), d)
	var s float64
	for _, x := range v {
		s += x * x
	}
	r := math.Sqrt(s)
	x0, x1 := v[0], v[1]
	h[AxisR], h[AxisTheta] = r, NormalizeAngle(math.Atan2(x1, x0))
	if d == 2 {
		return
	}
	// U is x_3 over the norm of (x_1, x_2, x_3) — the full radius at d = 3.
	x2 := v[2]
	n3 := r
	if d > 3 {
		n3 = math.Sqrt(x0*x0 + x1*x1 + x2*x2)
	}
	u := 1.0
	if n3 != 0 {
		u = min(max(x2/n3, -1), 1)
	}
	h[AxisU] = u
	if d == 3 {
		return
	}
	// Phi[m] is the angle between the axis x_{m+3} and the projection of v
	// onto span(x_1..x_{m+3}); each v[m+2] is read before h[m+2] replaces it.
	norm := math.Hypot(math.Hypot(x0, x1), x2)
	for m := 1; m < d-2; m++ {
		x := v[m+2]
		h[m+2] = math.Atan2(norm, x)
		norm = math.Hypot(norm, x)
	}
}

// ToHyperspherical returns the hyperspherical coordinates of v around the
// origin in a new slice.
func (v Vec) ToHyperspherical() Hyperspherical {
	h := make(Hyperspherical, len(v))
	v.HypersphericalInto(h)
	return h
}

// VecInto writes the Cartesian point of h into v (len(v) == len(h)).
func (h Hyperspherical) VecInto(v Vec) {
	d := len(h)
	mustSameDim(len(v), d)
	prod := h[AxisR]
	for m := d - 3; m >= 1; m-- {
		s, c := math.Sincos(h[m+2])
		v[m+2] = prod * c
		prod *= s
	}
	if d > 2 {
		u := h[AxisU]
		v[2] = prod * u
		w := 1 - u*u
		if w < 0 {
			w = 0
		}
		prod *= math.Sqrt(w)
	}
	s, c := math.Sincos(h[AxisTheta])
	v[0] = prod * c
	v[1] = prod * s
}

// ToVec returns the Cartesian point of h in a new slice.
func (h Hyperspherical) ToVec() Vec {
	v := make(Vec, len(h))
	h.VecInto(v)
	return v
}
