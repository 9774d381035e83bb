package grid

import (
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func benchPolars(b *testing.B, n int) []geom.Polar {
	b.Helper()
	r := rng.New(uint64(n))
	polars := make([]geom.Polar, n)
	for i := range polars {
		polars[i] = r.UniformDisk(1).ToPolar()
	}
	return polars
}

func BenchmarkCellOf2D(b *testing.B) {
	polars := benchPolars(b, 100000)
	g := PolarGrid{K: 12, Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink int
		for _, c := range polars {
			sink += g.CellOf(c)
		}
		_ = sink
	}
}

func BenchmarkMaxFeasibleK(b *testing.B) {
	polars := benchPolars(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MaxFeasibleK(polars, 1, DefaultKMax(len(polars)))
	}
}

// BenchmarkBuildGridAnalytic is the analytic counterpart of
// BenchmarkMaxFeasibleK: occupancy-lemma estimate plus one verification
// pass, replacing the per-k bucketing trials.
func BenchmarkBuildGridAnalytic(b *testing.B) {
	polars := benchPolars(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MaxFeasibleKAnalytic(polars, 1, DefaultKMax(len(polars)), 1)
	}
}

func BenchmarkCellOf3D(b *testing.B) {
	r := rng.New(3)
	coords := make([]float64, 0, 3*100000)
	for range 100000 {
		coords = append(coords, r.UniformBall3(1).Vec().ToHyperspherical()...)
	}
	g, err := NewGridD(3, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink int
		for j := 0; j < len(coords); j += 3 {
			sink += g.CellOf(coords[j : j+3])
		}
		_ = sink
	}
}

func BenchmarkGridDBuild(b *testing.B) {
	for _, d := range []int{3, 5} {
		b.Run(dimName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewGridD(d, 12, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func dimName(d int) string {
	return string(rune('0'+d)) + "d"
}
