package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * TwoPi, 0},
		{TwoPi + 0.5, 0.5},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleRangeQuick(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		got := NormalizeAngle(a)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDist(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, TwoPi - 0.1, 0.2},
		{3, 3.5, 0.5},
	}
	for _, tt := range tests {
		if got := AngleDist(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("AngleDist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPolarRoundTrip(t *testing.T) {
	pts := []Point2{
		{1, 0}, {0, 1}, {-1, 0}, {0, -1},
		{0.5, 0.5}, {-0.3, 0.7}, {2, -3},
	}
	for _, p := range pts {
		got := p.ToPolar().ToPoint()
		if !almostEqual(got.X, p.X, 1e-12) || !almostEqual(got.Y, p.Y, 1e-12) {
			t.Errorf("round trip of %v = %v", p, got)
		}
	}
}

func TestPolarAround(t *testing.T) {
	origin := Point2{1, 1}
	p := Point2{2, 1}
	c := p.PolarAround(origin)
	if !almostEqual(c.R, 1, 1e-15) || !almostEqual(c.Theta, 0, 1e-15) {
		t.Errorf("PolarAround = %+v, want R=1 Theta=0", c)
	}
}

func TestSphericalRoundTrip(t *testing.T) {
	pts := []Point3{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, -1},
		{0.5, -0.5, 0.7}, {-2, 1, 3},
	}
	for _, p := range pts {
		got := p.Vec().ToHyperspherical().ToVec().AsPoint3()
		if p.Dist(got) > 1e-12 {
			t.Errorf("round trip of %v = %v", p, got)
		}
	}
}

func TestSphericalOrigin(t *testing.T) {
	for d := 2; d <= 5; d++ {
		h := NewVec(d).ToHyperspherical()
		if h[AxisR] != 0 || h[AxisTheta] != 0 {
			t.Errorf("d=%d: origin = %v, want R = Theta = 0", d, h)
		}
		if d > 2 && h[AxisU] != 1 {
			t.Errorf("d=%d: origin U = %v, want 1", d, h[AxisU])
		}
	}
}

func TestSphericalURange(t *testing.T) {
	f := func(x, y, z int16) bool {
		h := Vec{float64(x), float64(y), float64(z)}.ToHyperspherical()
		return h[AxisU] >= -1 && h[AxisU] <= 1 && h[AxisTheta] >= 0 && h[AxisTheta] < TwoPi && h[AxisR] >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHypersphericalRoundTrip(t *testing.T) {
	vecs := []Vec{
		{1, 0},
		{0.3, -0.4},
		{1, 2, 3},
		{-1, 0.5, 0, 2},
		{0.1, 0.2, 0.3, 0.4, 0.5},
		{0, 0, 0, -1, 0},
	}
	for _, v := range vecs {
		h := v.ToHyperspherical()
		got := h.ToVec()
		if v.Dist(got) > 1e-10 {
			t.Errorf("round trip of %v = %v", v, got)
		}
		if !almostEqual(h[AxisR], v.Norm(), 1e-12) {
			t.Errorf("R of %v = %v, want %v", v, h[AxisR], v.Norm())
		}
		if len(h) > 2 && (h[AxisU] < -1 || h[AxisU] > 1) {
			t.Errorf("U of %v = %v out of [-1, 1]", v, h[AxisU])
		}
		for a := 3; a < len(h); a++ {
			if h[a] < 0 || h[a] > math.Pi {
				t.Errorf("Phi[%d] of %v = %v out of [0, pi]", a-2, v, h[a])
			}
		}
	}
}

// TestHyperspherical3DMatchesSpherical: at d = 3 the coordinates are the
// usual spherical ones — R the norm, Theta = atan2(y, x), U = z/R — bit for
// bit.
func TestHyperspherical3DMatchesSpherical(t *testing.T) {
	for _, p := range []Point3{{0.3, -0.4, 0.5}, {-1e-3, 2, -7}, {0, 0, -2}} {
		h := p.Vec().ToHyperspherical()
		r := p.Norm()
		want := Hyperspherical{r, NormalizeAngle(math.Atan2(p.Y, p.X)), p.Z / r}
		for a := range want {
			if h[a] != want[a] {
				t.Errorf("%v: axis %d = %v, want %v", p, a, h[a], want[a])
			}
		}
	}
}

func TestHypersphericalInPlace(t *testing.T) {
	for _, v := range []Vec{{0.3, -0.4}, {1, 2, 3}, {-1, 0.5, 0, 2}, {0.1, 0.2, 0.3, 0.4, 0.5}} {
		want := v.ToHyperspherical()
		h := v.Clone()
		Vec(h).HypersphericalInto(Hyperspherical(h))
		for a := range want {
			if h[a] != want[a] {
				t.Errorf("%v: in-place axis %d = %v, want %v", v, a, h[a], want[a])
			}
		}
	}
}

func TestHypersphericalLowDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dimension < 2")
		}
	}()
	_ = Vec{1}.ToHyperspherical()
}

func TestHypersphericalRoundTripQuick(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		v := Vec{float64(a), float64(b), float64(c), float64(d)}
		if v.Norm() == 0 {
			return true
		}
		return v.Dist(v.ToHyperspherical().ToVec()) < 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
