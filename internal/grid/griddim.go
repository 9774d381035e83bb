package grid

import (
	"fmt"
	"math"

	"omtree/internal/geom"
)

// maxGridK is the deepest grid whose global cell ids (2^(K+1) - 1 of them)
// fit an int.
const maxGridK = 62

// GridD is the d-dimensional grid of §IV-B over a ball of radius Scale:
// dividing spheres at radii Scale * 2^((i-K)/d) produce shells 0..K (shell
// 0 the inner ball), each holding twice the volume of the one inside it,
// and shell i is cut into 2^i cells by splitting the full angular space i
// times into equal-measure halves, cycling through the d-1 angular axes:
// Theta first, then U (the cosine of the first polar angle), then each
// further polar angle Phi[m]. Theta and U splits are midpoints, since the
// surface measure is uniform in both, and are computed while walking; the
// Phi[m] splits land at equal-measure points of the sin^(m+1) weight and
// are tabulated once per grid. A cell is named by its split path, so no
// per-cell state is stored: point assignment and Cell both walk O(K)
// split levels.
//
// Index bits follow the polar angle on every polar axis: bit 1 selects the
// upper Theta half, the lower U half (the larger polar angle) and the upper
// Phi[m] half. At d = 2 the grid is the polar grid with midpoint angle
// splits; at d = 3 it is the sphere grid of Figure 8's experiment,
// splitting Theta and U alternately.
type GridD struct {
	D, K  int
	Scale float64

	radii []float64 // radii[i] = Scale * 2^((i-K)/D), the dividing spheres

	// phi[m] tabulates the splits of polar axis Phi[m], m >= 1, as an
	// implicit binary tree: node 0 splits [0, pi], and node t's low and high
	// halves are split by nodes 2t+1 and 2t+2. phi[0] is unused.
	phi [][]float64
}

// NewGridD validates the parameters and builds the grid, tabulating the
// Phi[m] split points (fewer than 2^(K/(d-1)+1) per axis).
func NewGridD(d, k int, scale float64) (*GridD, error) {
	if d < 2 {
		return nil, fmt.Errorf("grid: GridD needs dimension >= 2, got %d", d)
	}
	if k < 1 || k > maxGridK {
		return nil, fmt.Errorf("grid: GridD needs k in [1, %d], got %d", maxGridK, k)
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("grid: GridD needs positive finite scale, got %v", scale)
	}
	g := &GridD{D: d, K: k, Scale: scale, radii: sphereRadii(d, k, scale)}
	if d > 3 {
		g.phi = make([][]float64, d-2)
	}
	for m := 1; m <= d-3; m++ {
		// Axis Phi[m] is angular axis m+1, split at levels m+1, m+d, ...
		var splits int
		for l := m + 1; l < k; l += d - 1 {
			splits++
		}
		nodes := 1<<uint(splits) - 1
		tab := make([]float64, nodes)
		lo, hi := make([]float64, nodes), make([]float64, nodes)
		if nodes > 0 {
			hi[0] = math.Pi
		}
		for t := range tab {
			s := geom.SinPowerSplit(m+1, lo[t], hi[t])
			tab[t] = s
			if c := 2*t + 1; c < nodes {
				lo[c], hi[c] = lo[t], s
				lo[c+1], hi[c+1] = s, hi[t]
			}
		}
		g.phi[m] = tab
	}
	return g, nil
}

// sphereRadii returns the K+1 dividing-sphere radii of a depth-k grid.
func sphereRadii(d, k int, scale float64) []float64 {
	radii := make([]float64, k+1)
	for i := range radii {
		radii[i] = scale * math.Exp2(float64(i-k)/float64(d))
	}
	return radii
}

// NumRings returns the number of shells, K+1.
func (g *GridD) NumRings() int { return g.K + 1 }

// NumCells returns the total number of cells, 2^(K+1) - 1.
func (g *GridD) NumCells() int { return NumCells(g.K) }

// SphereRadius returns the radius of dividing sphere i, i in [0, K].
func (g *GridD) SphereRadius(i int) float64 {
	if i < 0 || i > g.K {
		panic(fmt.Sprintf("grid: sphere index %d out of [0, %d]", i, g.K))
	}
	return g.radii[i]
}

// ShellOf returns the shell containing radius r, clamped to [0, K].
func (g *GridD) ShellOf(r float64) int {
	if r <= 0 {
		return 0
	}
	if r >= g.Scale {
		return g.K
	}
	i := int(math.Ceil(float64(g.K) + float64(g.D)*math.Log2(r/g.Scale)))
	if i < 0 {
		i = 0
	}
	if i > g.K {
		i = g.K
	}
	for i > 0 && r <= g.radii[i-1] {
		i--
	}
	for i < g.K && r > g.radii[i] {
		i++
	}
	return i
}

// walkState returns per-call storage for the Phi[m] tree positions of a
// walk, on the caller's stack when the dimension allows.
func (g *GridD) walkState(buf *[geom.StackDim]int) []int {
	if g.D <= geom.StackDim {
		return buf[:]
	}
	return make([]int, g.D-2)
}

// SegIndexOf returns the angular cell index of h within the given shell by
// walking the shell's split levels.
func (g *GridD) SegIndexOf(shell int, h geom.Hyperspherical) int {
	tLo, tHi := 0.0, geom.TwoPi
	uLo, uHi := -1.0, 1.0
	var buf [geom.StackDim]int
	node := g.walkState(&buf)
	j, b := 0, 0
	for l := 0; l < shell; l++ {
		var up bool
		switch b {
		case 0:
			mid := (tLo + tHi) / 2
			if up = h[geom.AxisTheta] >= mid; up {
				tLo = mid
			} else {
				tHi = mid
			}
		case 1:
			mid := (uLo + uHi) / 2
			if up = h[geom.AxisU] < mid; up {
				uHi = mid
			} else {
				uLo = mid
			}
		default:
			m := b - 1
			t := node[m]
			if up = h[m+2] >= g.phi[m][t]; up {
				node[m] = 2*t + 2
			} else {
				node[m] = 2*t + 1
			}
		}
		j *= 2
		if up {
			j++
		}
		if b++; b == g.D-1 {
			b = 0
		}
	}
	return j
}

// CellOf returns the global cell id containing the point h, which must have
// dimension D.
func (g *GridD) CellOf(h geom.Hyperspherical) int {
	if len(h) != g.D {
		panic(fmt.Sprintf("grid: point dimension %d != grid dimension %d", len(h), g.D))
	}
	shell := g.ShellOf(h[geom.AxisR])
	return CellID(shell, g.SegIndexOf(shell, h))
}

// CellInto writes the bounds of cell (shell, idx) into dst, which must have
// dimension D, recovering the split path from the index bits, most
// significant first.
func (g *GridD) CellInto(dst geom.CellD, shell, idx int) {
	if shell < 0 || shell > g.K {
		panic(fmt.Sprintf("grid: shell %d out of [0, %d]", shell, g.K))
	}
	if m := CellsInRing(shell); idx < 0 || idx >= m {
		panic(fmt.Sprintf("grid: cell index %d out of [0, %d)", idx, m))
	}
	const r, t, u = 2 * geom.AxisR, 2 * geom.AxisTheta, 2 * geom.AxisU
	dst[r], dst[r+1] = 0, g.radii[shell]
	if shell > 0 {
		dst[r] = g.radii[shell-1]
	}
	dst[t], dst[t+1] = 0, geom.TwoPi
	if g.D > 2 {
		dst[u], dst[u+1] = -1, 1
	}
	for a := 3; a < g.D; a++ {
		dst[2*a], dst[2*a+1] = 0, math.Pi
	}
	var buf [geom.StackDim]int
	node := g.walkState(&buf)
	b := 0
	for l := 0; l < shell; l++ {
		up := idx>>uint(shell-1-l)&1 != 0
		switch b {
		case 0:
			mid := (dst[t] + dst[t+1]) / 2
			if up {
				dst[t] = mid
			} else {
				dst[t+1] = mid
			}
		case 1:
			mid := (dst[u] + dst[u+1]) / 2
			if up {
				dst[u+1] = mid
			} else {
				dst[u] = mid
			}
		default:
			m := b - 1
			tn := node[m]
			if s := g.phi[m][tn]; up {
				dst[2*m+4], node[m] = s, 2*tn+2
			} else {
				dst[2*m+5], node[m] = s, 2*tn+1
			}
		}
		if b++; b == g.D-1 {
			b = 0
		}
	}
}

// Cell returns the bounds of cell (shell, idx) in newly allocated storage.
func (g *GridD) Cell(shell, idx int) geom.CellD {
	c := make(geom.CellD, 2*g.D)
	g.CellInto(c, shell, idx)
	return c
}

// MaxArc returns Delta_i, the angular detour charged per core hop in shell
// i: R_i times the angular extent (geom.CellD.MaxAngle) of the shell's
// widest cell. With polar axes (d >= 3) that is cell 0, the polar cap:
// the Theta intervals of a shell all have the same width, and polar
// intervals widen toward the poles. A 2-D grid has no cap; it takes the
// widest segment as floating-point midpoints round it.
func (g *GridD) MaxArc(shell int) float64 {
	if g.D == 2 {
		return g.SphereRadius(shell) * widestHalving(0, geom.TwoPi, shell)
	}
	return g.SphereRadius(shell) * g.Cell(shell, 0).MaxAngle()
}

// widestHalving returns the largest width among the 2^t intervals that t
// rounds of midpoint halving cut [lo, hi] into.
func widestHalving(lo, hi float64, t int) float64 {
	if t == 0 {
		return hi - lo
	}
	mid := (lo + hi) / 2
	return max(widestHalving(lo, mid, t-1), widestHalving(mid, hi, t-1))
}

// InnerArcSum returns the d-dimensional S_k: summed angular detours of
// shells 1..K-1.
func (g *GridD) InnerArcSum() float64 {
	var s float64
	for i := 1; i <= g.K-1; i++ {
		s += g.MaxArc(i)
	}
	return s
}

// UpperBound evaluates the d-dimensional analogue of inequality (7) at
// shell 0.
func (g *GridD) UpperBound(arcCoeff float64) float64 {
	return g.Scale + arcCoeff*g.MaxArc(0) + g.InnerArcSum()
}

// Assign maps every point of coords — flat Hyperspherical coordinates,
// point i at [i*D, (i+1)*D) — to its global cell id.
func (g *GridD) Assign(coords []float64) []int32 {
	ids := make([]int32, len(coords)/g.D)
	for i := range ids {
		ids[i] = int32(g.CellOf(coords[i*g.D : (i+1)*g.D]))
	}
	return ids
}

// InteriorOccupied reports whether every cell of shells 1..K-1 holds at
// least one point of coords (flat, as in Assign).
func (g *GridD) InteriorOccupied(coords []float64) bool {
	if g.K == 1 {
		return true
	}
	lo, hi := 1, 1<<uint(g.K)-1
	need := hi - lo
	if len(coords)/g.D < need {
		return false // fewer points than interior cells
	}
	seen := make([]bool, need)
	for i := 0; i+g.D <= len(coords); i += g.D {
		h := coords[i : i+g.D]
		shell := g.ShellOf(h[geom.AxisR])
		if shell == 0 || shell == g.K {
			continue
		}
		id := CellID(shell, g.SegIndexOf(shell, h))
		if !seen[id-lo] {
			seen[id-lo] = true
			need--
			if need == 0 {
				return true
			}
		}
	}
	return need == 0
}

// feasibleKMax clamps a depth ceiling to [1, DefaultKMax(n)]: deeper grids
// have more interior cells than n points can occupy, so the clamp never
// changes a search's answer, and any kMax >= 1 is honoured.
func feasibleKMax(kMax, n int) int {
	return max(1, min(kMax, DefaultKMax(n)))
}

// MaxFeasibleKD returns the largest k in [1, kMax] whose d-dimensional grid
// over coords (flat, as in Assign) has all interior cells occupied,
// scanning downward, along with the grid itself: the reference oracle for
// MaxFeasibleKDAnalytic, which the builds use.
func MaxFeasibleKD(d int, coords []float64, scale float64, kMax int) (*GridD, error) {
	one, err := NewGridD(d, 1, scale)
	if err != nil {
		return nil, err
	}
	for k := feasibleKMax(kMax, len(coords)/d); k > 1; k-- {
		g, err := NewGridD(d, k, scale)
		if err != nil {
			return nil, err
		}
		if g.InteriorOccupied(coords) {
			return g, nil
		}
	}
	return one, nil
}
