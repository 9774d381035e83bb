package grid

import (
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// flatD converts points to flat hyperspherical coordinates around the
// origin.
func flatD(pts []geom.Vec) []float64 {
	var out []float64
	for _, p := range pts {
		out = append(out, p.ToHyperspherical()...)
	}
	return out
}

// flat3 is flatD for 3-D points.
func flat3(pts []geom.Point3) []float64 {
	var out []float64
	for _, p := range pts {
		out = append(out, p.Vec().ToHyperspherical()...)
	}
	return out
}

// sphereGrid is the 3-D grid of depth k over a ball of the given radius.
func sphereGrid(t testing.TB, k int, scale float64) *GridD {
	t.Helper()
	g, err := NewGridD(3, k, scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridDValidation(t *testing.T) {
	if _, err := NewGridD(1, 3, 1); err == nil {
		t.Error("accepted d=1")
	}
	if _, err := NewGridD(3, 0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewGridD(3, 99, 1); err == nil {
		t.Error("accepted absurd k")
	}
	if _, err := NewGridD(3, 3, math.Inf(1)); err == nil {
		t.Error("accepted infinite scale")
	}
	if _, err := NewGridD(4, 5, 2); err != nil {
		t.Errorf("rejected valid grid: %v", err)
	}
}

func TestGridDRadiiVolumeDoubling(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		g, err := NewGridD(d, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			v0 := math.Pow(g.SphereRadius(i), float64(d))
			v1 := math.Pow(g.SphereRadius(i+1), float64(d))
			if math.Abs(v1-2*v0) > 1e-12 {
				t.Errorf("d=%d: volume doubling broken at sphere %d", d, i)
			}
		}
	}
}

func TestGridDCellEqualMeasure(t *testing.T) {
	// Every cell of a shell must carry equal surface measure: the Theta
	// width times the U width times prod_m (I_{m+1}(Phi max) - I_{m+1}(Phi
	// min)).
	for _, d := range []int{3, 4, 5} {
		g, err := NewGridD(d, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shell := range []int{2, 4, 5} {
			m := CellsInRing(shell)
			measure := func(idx int) float64 {
				c := g.Cell(shell, idx)
				area := (c.Hi(geom.AxisTheta) - c.Lo(geom.AxisTheta)) * (c.Hi(geom.AxisU) - c.Lo(geom.AxisU))
				for a := 3; a < d; a++ {
					area *= geom.SinPowerIntegral(a-1, c.Hi(a)) - geom.SinPowerIntegral(a-1, c.Lo(a))
				}
				return area
			}
			want := measure(0)
			for _, idx := range []int{1, m / 2, m - 1} {
				if got := measure(idx); math.Abs(got-want) > 1e-9*want {
					t.Errorf("d=%d shell=%d cell %d measure %v, want %v", d, shell, idx, got, want)
				}
			}
		}
	}
}

func TestGridDCellOfMatchesCell(t *testing.T) {
	r := rng.New(31)
	for _, d := range []int{2, 3, 4, 5} {
		g, err := NewGridD(d, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			h := r.UniformBallD(d, 1).ToHyperspherical()
			id := g.CellOf(h)
			shell, idx := RingIdx(id)
			if cell := g.Cell(shell, idx); !cell.Contains(h) {
				t.Fatalf("d=%d: point %v misassigned to %+v", d, h, cell)
			}
		}
	}
}

// TestGridD3MatchesSphereGrid3: the 3-D grid assigns the frozen
// fingerprint's cell ids — those of the dedicated sphere grid it replaced —
// to 100k ball points, at depths 5 and 12.
func TestGridD3MatchesSphereGrid3(t *testing.T) {
	coords := flat3(frozenBallPoints())
	for _, k := range []int{5, 12} {
		ids := make([]int, len(coords)/3)
		for i, id := range sphereGrid(t, k, 1).Assign(coords) {
			ids[i] = int(id)
		}
		if got := idsSum(ids); got != frozenSphereCells[k] {
			t.Errorf("k=%d: got %q, want %q", k, got, frozenSphereCells[k])
		}
	}
}

func TestGridD2MatchesPolarGrid(t *testing.T) {
	gd, err := NewGridD(2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	gp := PolarGrid{K: 6, Scale: 1}
	r := rng.New(19)
	for trial := 0; trial < 1000; trial++ {
		p := r.UniformDisk(1)
		idD := gd.CellOf(p.Vec().ToHyperspherical())
		idP := gp.CellOf(p.ToPolar())
		if idD != idP {
			t.Fatalf("cell mismatch for %v: GridD %d, PolarGrid %d", p, idD, idP)
		}
	}
}

func TestGridDDimensionMismatchPanics(t *testing.T) {
	g, err := NewGridD(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.CellOf(geom.Vec{1, 0, 0}.ToHyperspherical()) // 3-D point, 4-D grid
}

func TestGridDInteriorOccupiedAndMaxK(t *testing.T) {
	r := rng.New(41)
	d := 4
	pts := r.UniformBallDN(3000, d, 1)
	hs := flatD(pts)
	g, err := MaxFeasibleKD(d, hs, 1, DefaultKMax(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	if g.K < 2 {
		t.Fatalf("k = %d for 3000 uniform 4-ball points", g.K)
	}
	if !g.InteriorOccupied(hs) {
		t.Error("chosen k infeasible")
	}
	bigger, err := NewGridD(d, g.K+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.InteriorOccupied(hs) {
		t.Error("k+1 feasible; MaxFeasibleKD not maximal")
	}
	// Any ceiling is honoured: one past every feasible depth changes
	// nothing, and a grid with more interior cells than points is rejected
	// without materializing its occupancy table.
	for _, kMax := range []int{40, maxGridK, 1000} {
		if deep, err := MaxFeasibleKD(d, hs, 1, kMax); err != nil || deep.K != g.K {
			t.Errorf("kMax=%d: K=%v err=%v, want K=%d", kMax, deep, err, g.K)
		}
	}
	if huge, err := NewGridD(d, 40, 1); err != nil || huge.InteriorOccupied(hs) {
		t.Errorf("k=40 grid: err=%v, or occupied by 3000 points", err)
	}
}

func TestGridDUpperBoundTightens(t *testing.T) {
	shallow, err := NewGridD(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := NewGridD(3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deep.UpperBound(2) >= shallow.UpperBound(2) {
		t.Errorf("bound did not tighten: %v vs %v", deep.UpperBound(2), shallow.UpperBound(2))
	}
}

func TestGridDAssign(t *testing.T) {
	g := sphereGrid(t, 3, 1)
	ids := g.Assign(flatD([]geom.Vec{{0.001, 0, 0}, {0, 0.97, 0}}))
	if ids[0] != 0 {
		t.Errorf("center cell = %d", ids[0])
	}
	shell, _ := RingIdx(int(ids[1]))
	if shell != 3 {
		t.Errorf("outer shell = %d", shell)
	}
}
