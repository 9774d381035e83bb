package core

import (
	"fmt"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// boundSlack absorbs float64 rounding in the radius/bound comparison; the
// inequality itself is exact in the paper.
const boundSlack = 1e-9

// TestRadiusWithinEq7Bound is the property sweep for upper bound (7):
// l_P <= 1 + 2*Delta_j + S_k — every Polar_Grid tree's radius must sit
// under g.UpperBound(arcCoeff(variant)), in every dimension the library
// builds, across degree variants and problem sizes: Build2 and Build3 at
// out-degrees 2, 6 and 10, and BuildD in d = 4 and 5 at out-degree 2 and
// the natural 2^d + 2. Seeded and deterministic; the 1e5 sizes (5e4 in
// d >= 4) run only outside -short.
func TestRadiusWithinEq7Bound(t *testing.T) {
	sizes := []int{100, 1000, 10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	sizesD := []int{100, 1000, 10000}
	if !testing.Short() {
		sizesD = append(sizesD, 50000)
	}
	type sweep struct {
		dim     int
		degrees []int
		sizes   []int
	}
	sweeps := []sweep{{2, []int{2, 6, 10}, sizes}, {3, []int{2, 6, 10}, sizes}}
	for _, dim := range []int{4, 5} {
		sweeps = append(sweeps, sweep{dim, []int{2, 1<<uint(dim) + 2}, sizesD})
	}
	for _, sw := range sweeps {
		for _, deg := range sw.degrees {
			for _, n := range sw.sizes {
				dim, deg, n := sw.dim, deg, n
				t.Run(fmt.Sprintf("dim%d/deg%d/n%d", dim, deg, n), func(t *testing.T) {
					seed := uint64(dim)<<32 ^ uint64(deg)<<16 ^ uint64(n)
					r := rng.New(seed)
					var res *Result
					var err error
					switch dim {
					case 2:
						res, err = Build2(geom.Point2{}, r.UniformDiskN(n, 1), WithMaxOutDegree(deg))
					case 3:
						res, err = Build3(geom.Point3{}, r.UniformBall3N(n, 1), WithMaxOutDegree(deg))
					default:
						res, err = BuildD(geom.NewVec(dim), r.UniformBallDN(n, dim, 1), WithMaxOutDegree(deg))
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.Bound <= 1 {
						t.Fatalf("bound %v <= 1: the 1 + 2*Delta_j + S_k form always exceeds the unit radius", res.Bound)
					}
					if res.Radius > res.Bound*(1+boundSlack) {
						t.Errorf("radius %v exceeds eq. (7) bound %v (variant %v, k=%d)",
							res.Radius, res.Bound, res.Variant, res.K)
					}
				})
			}
		}
	}
}
