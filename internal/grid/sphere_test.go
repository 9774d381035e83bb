package grid

import (
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// The tests below pin the 3-D grid of Figure 8's experiment: GridD at
// d = 3, splitting Theta and U = cos(polar angle) alternately.

func TestNewSphereGrid3Validation(t *testing.T) {
	if _, err := NewGridD(3, 0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewGridD(3, 3, -1); err == nil {
		t.Error("accepted negative scale")
	}
	if _, err := NewGridD(3, 3, math.NaN()); err == nil {
		t.Error("accepted NaN scale")
	}
	if _, err := NewGridD(3, 3, 1); err != nil {
		t.Errorf("rejected valid grid: %v", err)
	}
}

func TestSphereRadiiVolumeDoubling(t *testing.T) {
	g := sphereGrid(t, 5, 1)
	if got := g.SphereRadius(5); got != 1 {
		t.Errorf("outer radius = %v", got)
	}
	for i := 0; i < 5; i++ {
		r0, r1 := g.SphereRadius(i), g.SphereRadius(i+1)
		if math.Abs(r1*r1*r1-2*r0*r0*r0) > 1e-12 {
			t.Errorf("volume doubling broken at sphere %d", i)
		}
	}
}

func TestShellOfBoundaries(t *testing.T) {
	g := sphereGrid(t, 4, 2)
	if g.ShellOf(0) != 0 {
		t.Error("ShellOf(0) != 0")
	}
	if g.ShellOf(2) != 4 {
		t.Error("ShellOf(scale) != K")
	}
	if g.ShellOf(100) != 4 {
		t.Error("ShellOf beyond scale not clamped")
	}
	for i := 0; i < g.K; i++ {
		r := g.SphereRadius(i)
		if got := g.ShellOf(r); got != i {
			t.Errorf("ShellOf(r_%d) = %d", i, got)
		}
		if got := g.ShellOf(r * 1.0001); got != i+1 {
			t.Errorf("ShellOf(r_%d+eps) = %d", i, got)
		}
	}
}

func TestSphereCellEqualMeasure(t *testing.T) {
	// All cells of a shell must carry the same (theta, u)-measure, which is
	// the spherical surface measure.
	g := sphereGrid(t, 6, 1)
	for shell := 0; shell <= g.K; shell++ {
		m := CellsInRing(shell)
		want := geom.TwoPi * 2 / float64(m)
		for _, idx := range []int{0, m / 3, m - 1} {
			c := g.Cell(shell, idx)
			got := (c.Hi(geom.AxisTheta) - c.Lo(geom.AxisTheta)) * (c.Hi(geom.AxisU) - c.Lo(geom.AxisU))
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("cell (%d,%d) measure %v, want %v", shell, idx, got, want)
			}
		}
	}
}

func TestSphereCellOfMatchesCell(t *testing.T) {
	g := sphereGrid(t, 6, 1)
	r := rng.New(123)
	for trial := 0; trial < 2000; trial++ {
		h := r.UniformBall3(1).Vec().ToHyperspherical()
		shell, idx := RingIdx(g.CellOf(h))
		if cell := g.Cell(shell, idx); !cell.Contains(h) {
			t.Fatalf("point %v assigned to cell (%d,%d) = %+v", h, shell, idx, cell)
		}
	}
}

func TestSphereCellAlignment(t *testing.T) {
	// Children 2j, 2j+1 of cell (shell, j) must tile the parent's angular
	// box exactly (split along the next axis), and the index bit must
	// follow the polar angle: child 2j+1 takes the lower U half.
	g := sphereGrid(t, 5, 1)
	for shell := 0; shell < g.K; shell++ {
		for idx := 0; idx < CellsInRing(shell); idx++ {
			p := g.Cell(shell, idx)
			a, b := ChildCells(idx)
			ca, cb := g.Cell(shell+1, a), g.Cell(shell+1, b)
			for _, ax := range []int{geom.AxisTheta, geom.AxisU} {
				if math.Min(ca.Lo(ax), cb.Lo(ax)) != p.Lo(ax) || math.Max(ca.Hi(ax), cb.Hi(ax)) != p.Hi(ax) {
					t.Fatalf("children of (%d,%d) don't tile parent on axis %d", shell, idx, ax)
				}
			}
			if shell%2 == 1 && cb.Hi(geom.AxisU) != ca.Lo(geom.AxisU) {
				t.Fatalf("children of (%d,%d): U halves out of polar-angle order", shell, idx)
			}
			if ca.Lo(geom.AxisR) != p.Hi(geom.AxisR) {
				t.Fatalf("children of (%d,%d) not radially adjacent", shell, idx)
			}
		}
	}
}

func TestSphereMaxArcShrinks(t *testing.T) {
	g := sphereGrid(t, 8, 1)
	// Arc detours must shrink with shell depth fast enough that InnerArcSum
	// stays bounded; sanity-check monotone trend over several shells.
	if g.MaxArc(1) <= g.MaxArc(5) {
		t.Errorf("MaxArc not shrinking: %v vs %v", g.MaxArc(1), g.MaxArc(5))
	}
	if g.UpperBound(2) <= 1 {
		t.Errorf("UpperBound = %v", g.UpperBound(2))
	}
	if deeper := sphereGrid(t, 14, 1); deeper.UpperBound(2) >= g.UpperBound(2) {
		t.Error("bound did not tighten with k")
	}
	// Delta_i is charged at the polar cap, cell 0: R_i times its theta
	// width plus the polar angle its U interval spans.
	for shell := 0; shell <= g.K; shell++ {
		c := g.Cell(shell, 0)
		want := g.SphereRadius(shell) * ((c.Hi(geom.AxisTheta) - c.Lo(geom.AxisTheta)) +
			(math.Acos(c.Lo(geom.AxisU)) - math.Acos(c.Hi(geom.AxisU))))
		if got := g.MaxArc(shell); got != want {
			t.Errorf("MaxArc(%d) = %v, want %v", shell, got, want)
		}
	}
}

func TestSphereInteriorOccupiedAndMaxK(t *testing.T) {
	coords := flat3(rng.New(77).UniformBall3N(5000, 1))
	g, err := MaxFeasibleKD(3, coords, 1, DefaultKMax(len(coords)/3))
	if err != nil {
		t.Fatal(err)
	}
	if g.K < 2 {
		t.Fatalf("k = %d for 5000 uniform ball points", g.K)
	}
	if !g.InteriorOccupied(coords) {
		t.Error("chosen k infeasible")
	}
	if sphereGrid(t, g.K+1, 1).InteriorOccupied(coords) {
		t.Error("k+1 feasible; MaxFeasibleKD not maximal")
	}
}

func TestSphereAssign(t *testing.T) {
	g := sphereGrid(t, 3, 1)
	ids := g.Assign([]float64{0.01, 1, 0, 0.95, 5, -0.9})
	if ids[0] != 0 {
		t.Errorf("center cell = %d", ids[0])
	}
	shell, _ := RingIdx(int(ids[1]))
	if shell != 3 {
		t.Errorf("outer shell = %d", shell)
	}
}
