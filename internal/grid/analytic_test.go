package grid

import (
	"fmt"
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// naiveFoldFull is the reference for the bit-fold machinery: fullness of a
// bitmap at every fold level, computed bit by bit.
func naiveFoldFull(bits []bool) int {
	res := 0
	for 1<<uint(res) < len(bits) {
		res++
	}
	for j := res; ; j-- {
		full := true
		for _, b := range bits {
			if !b {
				full = false
				break
			}
		}
		if full {
			return j
		}
		if j == 0 {
			return -1
		}
		half := make([]bool, len(bits)/2)
		for t := range half {
			half[t] = bits[2*t] || bits[2*t+1]
		}
		bits = half
	}
}

func TestMaxFullResMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for res := 0; res <= 10; res++ {
		n := 1 << uint(res)
		for trial := 0; trial < 50; trial++ {
			// Mix densities so some trials are full at high resolutions and
			// others empty everywhere.
			p := float64(trial%10+1) / 10 * 1.3
			bits := make([]bool, n)
			words := make([]uint64, (n+63)/64)
			for i := range bits {
				if r.Float64() < p {
					bits[i] = true
					words[i>>6] |= 1 << uint(i&63)
				}
			}
			want := naiveFoldFull(bits)
			if got := maxFullRes(words, res); got != want {
				t.Fatalf("res=%d trial=%d: maxFullRes=%d want %d", res, trial, got, want)
			}
		}
	}
}

func TestCompactPairsOr(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		x := uint64(r.Intn(1<<31))<<33 | uint64(r.Intn(1<<31))<<2 | uint64(trial&3)
		got := compactPairsOr(x)
		var want uint64
		for tt := 0; tt < 32; tt++ {
			if x&(3<<uint(2*tt)) != 0 {
				want |= 1 << uint(tt)
			}
		}
		if got != want {
			t.Fatalf("compactPairsOr(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestEstimateK(t *testing.T) {
	if got := EstimateK(0, 10); got != 1 {
		t.Errorf("EstimateK(0) = %d", got)
	}
	prev := 1
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		k := EstimateK(n, 30)
		if k < prev {
			t.Errorf("EstimateK not monotone: n=%d k=%d prev=%d", n, k, prev)
		}
		prev = k
	}
	// The estimate should sit near the empirical ~0.86*log2(n) of Figure 6.
	if k := EstimateK(100000, 30); k < 10 || k > 15 {
		t.Errorf("EstimateK(1e5) = %d, want ~12", k)
	}
	// The ceiling binds.
	if k := EstimateK(1<<20, 5); k != 5 {
		t.Errorf("EstimateK capped = %d, want 5", k)
	}
}

// polarSets enumerates adversarial and typical 2-D point sets, as polar
// coordinates with the scale the core build would derive (max radius).
func polarSets() map[string]struct {
	pts   []geom.Polar
	scale float64
} {
	sets := make(map[string]struct {
		pts   []geom.Polar
		scale float64
	})
	add := func(name string, pts []geom.Polar) {
		var scale float64
		for _, p := range pts {
			if p.R > scale {
				scale = p.R
			}
		}
		sets[name] = struct {
			pts   []geom.Polar
			scale float64
		}{pts, scale}
	}

	for _, n := range []int{1, 2, 3, 10, 100, 2000, 20000} {
		r := rng.New(uint64(n))
		pts := make([]geom.Polar, n)
		for i := range pts {
			pts[i] = r.UniformDisk(1).ToPolar()
		}
		add(fmt.Sprintf("uniform-%d", n), pts)
	}

	// Exact circle radii: boundary guard paths of RingOf.
	g := PolarGrid{K: 8, Scale: 1}
	var boundary []geom.Polar
	for i := 0; i <= 8; i++ {
		for j := 0; j < 32; j++ {
			boundary = append(boundary, geom.Polar{R: g.CircleRadius(i), Theta: geom.TwoPi * float64(j) / 32})
		}
	}
	add("circle-boundaries", boundary)

	// One angular half empty: forces shallow k via angular occupancy.
	r := rng.New(99)
	half := make([]geom.Polar, 500)
	for i := range half {
		p := r.UniformDisk(1).ToPolar()
		p.Theta = math.Mod(p.Theta, math.Pi)
		half[i] = p
	}
	add("half-plane", half)

	// Clustered at the center: deep radial depths, sparse outer rings.
	center := make([]geom.Polar, 300)
	rc := rng.New(5)
	for i := range center {
		center[i] = geom.Polar{R: 0.01 * rc.Float64(), Theta: geom.TwoPi * rc.Float64()}
	}
	center = append(center, geom.Polar{R: 1, Theta: 0})
	add("center-cluster", center)

	// Duplicates and zeros.
	add("duplicates", []geom.Polar{{R: 0.5, Theta: 1}, {R: 0.5, Theta: 1}, {R: 0, Theta: 0}, {R: 1, Theta: 5}})

	// Points beyond the scale parameter are exercised separately below.
	return sets
}

// designedOccupancy places exactly one point per interior cell of a depth-k
// grid — feasibility far above the uniform estimate, forcing the analytic
// search's escalation pass.
func designedOccupancy(k int) []geom.Polar {
	g := PolarGrid{K: k, Scale: 1}
	var pts []geom.Polar
	for ring := 1; ring < k; ring++ {
		for j := 0; j < CellsInRing(ring); j++ {
			rMid := (g.CircleRadius(ring-1) + g.CircleRadius(ring)) / 2
			theta := geom.TwoPi * (float64(j) + 0.5) / float64(CellsInRing(ring))
			pts = append(pts, geom.Polar{R: rMid, Theta: theta})
		}
	}
	pts = append(pts, geom.Polar{R: 1, Theta: 0}) // pin the scale
	return pts
}

func TestMaxFeasibleKAnalyticMatchesTrial2D(t *testing.T) {
	for name, s := range polarSets() {
		for _, kMax := range []int{1, 2, 5, 9, 14} {
			want := MaxFeasibleK(s.pts, s.scale, kMax)
			got := MaxFeasibleKAnalytic(s.pts, s.scale, kMax, 1)
			if got != want {
				t.Errorf("%s kMax=%d: analytic %d, trial %d", name, kMax, got, want)
			}
		}
		// The production ceiling.
		kMax := DefaultKMax(len(s.pts))
		if got, want := MaxFeasibleKAnalytic(s.pts, s.scale, kMax, 1), MaxFeasibleK(s.pts, s.scale, kMax); got != want {
			t.Errorf("%s kMax=default(%d): analytic %d, trial %d", name, kMax, got, want)
		}
	}
}

func TestMaxFeasibleKAnalyticEscalates(t *testing.T) {
	pts := designedOccupancy(10)
	if est := analyticCap(len(pts), 12); est >= 10 {
		t.Fatalf("cap %d does not force escalation; tighten the construction", est)
	}
	want := MaxFeasibleK(pts, 1, 12)
	got := MaxFeasibleKAnalytic(pts, 1, 12, 1)
	if got != want {
		t.Fatalf("escalation: analytic %d, trial %d", got, want)
	}
	if want < 10 {
		t.Fatalf("designed set only reached k=%d; escalation untested", want)
	}
}

func TestMaxFeasibleK3AnalyticMatchesTrial(t *testing.T) {
	for _, n := range []int{1, 5, 50, 1000, 10000} {
		pts := flat3(rng.New(uint64(300+n)).UniformBall3N(n, 1))
		var scale float64
		for i := 0; i < len(pts); i += 3 {
			scale = max(scale, pts[i])
		}
		for _, kMax := range []int{1, 4, 8, DefaultKMax(n)} {
			want, errW := MaxFeasibleKD(3, pts, scale, kMax)
			got, errG := MaxFeasibleKDAnalytic(3, pts, scale, kMax, 1)
			if errW != nil || errG != nil {
				t.Fatalf("n=%d kMax=%d: %v / %v", n, kMax, errW, errG)
			}
			if got.K != want.K {
				t.Errorf("n=%d kMax=%d: analytic %d, trial %d", n, kMax, got.K, want.K)
			}
		}
	}
}

func TestMaxFeasibleKDAnalyticMatchesTrial(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		for _, n := range []int{1, 20, 500, 5000} {
			pts := flatD(rng.New(uint64(100*d+n)).UniformBallDN(n, d, 1))
			var scale float64
			for i := 0; i < len(pts); i += d {
				scale = max(scale, pts[i])
			}
			for _, kMax := range []int{1, 4, DefaultKMax(n)} {
				want, errW := MaxFeasibleKD(d, pts, scale, kMax)
				got, errG := MaxFeasibleKDAnalytic(d, pts, scale, kMax, 1)
				if errW != nil || errG != nil {
					t.Fatalf("d=%d n=%d kMax=%d: %v / %v", d, n, kMax, errW, errG)
				}
				if got.K != want.K {
					t.Errorf("d=%d n=%d kMax=%d: analytic K=%d, trial K=%d", d, n, kMax, got.K, want.K)
				}
				// The grid sharing the deeper grid's split tables must
				// classify points identically.
				for i := 0; i < len(pts); i += d {
					if h := pts[i : i+d]; got.CellOf(h) != want.CellOf(h) {
						t.Fatalf("d=%d n=%d: CellOf mismatch on shared-table grid", d, n)
					}
				}
			}
		}
	}
}

// TestMaxFeasibleKDAnalyticErrors: an invalid dimension or scale fails both
// searches, while any depth ceiling is honoured — one beyond the deepest
// grid n points can fill returns the default ceiling's answer.
func TestMaxFeasibleKDAnalyticErrors(t *testing.T) {
	if _, err := MaxFeasibleKDAnalytic(1, nil, 1, 5, 1); err == nil {
		t.Error("dimension 1 accepted")
	}
	if _, err := MaxFeasibleKD(1, nil, 1, 5); err == nil {
		t.Error("dimension 1 accepted by the oracle")
	}
	if _, err := MaxFeasibleKDAnalytic(3, nil, math.Inf(1), 5, 1); err == nil {
		t.Error("infinite scale accepted")
	}
	for _, d := range []int{3, 4} {
		pts := flatD(rng.New(uint64(d)).UniformBallDN(2000, d, 1))
		want, err := MaxFeasibleKDAnalytic(d, pts, 1, DefaultKMax(2000), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, kMax := range []int{29, 40, 1000} {
			got, err := MaxFeasibleKDAnalytic(d, pts, 1, kMax, 2)
			if err != nil || got.K != want.K {
				t.Errorf("d=%d kMax=%d: %v, err %v; want K=%d", d, kMax, got, err, want.K)
			}
			trial, err := MaxFeasibleKD(d, pts, 1, kMax)
			if err != nil || trial.K != want.K {
				t.Errorf("d=%d kMax=%d: oracle %v, err %v; want K=%d", d, kMax, trial, err, want.K)
			}
		}
	}
}

func TestAnalyticOutOfDiskPoints(t *testing.T) {
	// Points beyond the scale parameter clamp into the outer ring in both
	// searches.
	pts := []geom.Polar{{R: 2, Theta: 0}, {R: 3, Theta: 3}, {R: 0.1, Theta: 1}}
	for _, kMax := range []int{1, 3, 6} {
		if got, want := MaxFeasibleKAnalytic(pts, 1, kMax, 1), MaxFeasibleK(pts, 1, kMax); got != want {
			t.Errorf("kMax=%d: analytic %d, trial %d", kMax, got, want)
		}
	}
}

// designedCellsD places one point at the center of every interior cell of
// a depth-k d-dimensional grid (flat coordinates), so the analytic cap
// underestimates the feasible depth.
func designedCellsD(t *testing.T, d, k int) []float64 {
	g, err := NewGridD(d, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pts []float64
	for shell := 1; shell < k; shell++ {
		for j := 0; j < CellsInRing(shell); j++ {
			c := g.Cell(shell, j)
			for a := 0; a < d; a++ {
				pts = append(pts, (c.Lo(a)+c.Hi(a))/2)
			}
		}
	}
	pin := make([]float64, d) // pin the scale
	pin[geom.AxisR] = 1
	return append(pts, pin...)
}

// TestParallelKSearchMatchesTrial: splitting the analytic classification
// pass over 1..8 workers returns exactly the trial loop's depth, including
// inputs with fewer points than workers, points on exact circle radii,
// angles one ulp below 2*pi, and designed sets that force the uncapped
// second pass.
func TestParallelKSearchMatchesTrial(t *testing.T) {
	below2Pi := math.Nextafter(geom.TwoPi, 0)
	sets := polarSets()
	r := rng.New(11)
	ulp := make([]geom.Polar, 2000)
	for i := range ulp {
		ulp[i] = r.UniformDisk(1).ToPolar()
		if i%7 == 0 {
			ulp[i].Theta = below2Pi
		}
	}
	sets["theta-below-2pi"] = struct {
		pts   []geom.Polar
		scale float64
	}{ulp, 1}
	sets["designed-escalation"] = struct {
		pts   []geom.Polar
		scale float64
	}{designedOccupancy(10), 1}
	for name, s := range sets {
		for _, kMax := range []int{3, 12, DefaultKMax(len(s.pts))} {
			want := MaxFeasibleK(s.pts, s.scale, kMax)
			for w := 1; w <= 8; w++ {
				if got := MaxFeasibleKAnalytic(s.pts, s.scale, kMax, w); got != want {
					t.Errorf("2d %s kMax=%d workers=%d: %d, trial %d", name, kMax, w, got, want)
				}
			}
		}
	}

	for _, d := range []int{3, 4} {
		hs := map[string][]float64{"designed-escalation": designedCellsD(t, d, 9)}
		for _, n := range []int{1, 2, 3, 5, 7, 2500} {
			pts := flatD(r.UniformBallDN(n, d, 1))
			for i := 0; i < n; i += 5 {
				pts[i*d+geom.AxisTheta] = below2Pi
			}
			pts[geom.AxisR] = 1 // pin the scale
			hs[fmt.Sprintf("uniform-%d", n)] = pts
		}
		if d == 3 {
			var shells []float64
			g3 := sphereGrid(t, 6, 1)
			for s := 0; s <= 6; s++ {
				for j := 0; j < 16; j++ {
					shells = append(shells, g3.SphereRadius(s), geom.TwoPi*float64(j)/16, float64(j)/8-1)
				}
			}
			hs["shell-boundaries"] = shells
		}
		for name, pts := range hs {
			for _, kMax := range []int{3, 12} {
				want, err := MaxFeasibleKD(d, pts, 1, kMax)
				if err != nil {
					t.Fatal(err)
				}
				if name == "designed-escalation" && kMax == 12 && analyticCap(len(pts)/d, kMax) >= want.K {
					t.Fatalf("d=%d designed set reaches k=%d, inside the cap: escalation untested", d, want.K)
				}
				for w := 1; w <= 8; w++ {
					got, err := MaxFeasibleKDAnalytic(d, pts, 1, kMax, w)
					if err != nil {
						t.Fatal(err)
					}
					if got.K != want.K {
						t.Errorf("d=%d %s kMax=%d workers=%d: K=%d, trial %d", d, name, kMax, w, got.K, want.K)
					}
				}
			}
		}
	}
}
