package bisect

import (
	"sync"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/invariant"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

// raceSink is a minimal race-safe Attacher: concurrent fan-outs attach
// disjoint child sets, so plain writes into distinct slice entries need no
// locking (this is the contract the Attacher doc states; the race detector
// holds it to that).
type raceSink struct{ parents []int32 }

func newRaceSink(n int) *raceSink {
	s := &raceSink{parents: make([]int32, n)}
	for i := range s.parents {
		s.parents[i] = -2
	}
	s.parents[0] = tree.NoParent
	return s
}

func (s *raceSink) MustAttach(child, parent int) {
	if s.parents[child] != -2 {
		panic("raceSink: node attached twice")
	}
	s.parents[child] = int32(parent)
}

// TestCtx2ConcurrentDisjointSlices runs one Connect4 fan-out per grid cell —
// serially and then concurrently — over disjoint index slices sharing a
// single Ctx2, and demands identical parent arrays plus a valid spanning
// tree. Under -race this also proves the recursion keeps all mutable state
// in stack scratch.
func TestCtx2ConcurrentDisjointSlices(t *testing.T) {
	const n = 4000
	raw := rng.New(7).UniformDiskN(n, 1)
	pts := make([]geom.Polar, n+1)
	for i, p := range raw {
		pts[i+1] = p.PolarAround(geom.Point2{})
	}
	g := grid.PolarGrid{K: 4, Scale: 1}
	groups := make([][]int32, g.NumCells())
	for i := 1; i <= n; i++ {
		c := g.CellOf(pts[i])
		groups[c] = append(groups[c], int32(i))
	}

	// Connect4 partitions its index slice in place, so each run works on a
	// private copy of the grouping.
	run := func(concurrent bool) []int32 {
		sink := newRaceSink(n + 1)
		ctx := &Ctx2{B: sink, Pts: pts}
		var wg sync.WaitGroup
		for id, members := range groups {
			if len(members) == 0 {
				continue
			}
			ring, j := grid.RingIdx(id)
			seg := g.Segment(ring, j)
			rep := members[0]
			sink.MustAttach(int(rep), 0)
			if len(members) == 1 {
				continue
			}
			idx := append([]int32(nil), members[1:]...)
			if concurrent {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx.Connect4(idx, rep, seg)
				}()
			} else {
				ctx.Connect4(idx, rep, seg)
			}
		}
		wg.Wait()
		return sink.parents
	}

	serial := run(false)
	conc := run(true)
	for i := range serial {
		if serial[i] != conc[i] {
			t.Fatalf("parent mismatch at node %d: serial %d, concurrent %d",
				i, serial[i], conc[i])
		}
	}
	if l := invariant.CheckParents(conc, n+1, 0, 0, nil, 0); len(l) != 0 {
		t.Fatalf("concurrent fan-out broke tree invariants: %v", l)
	}
}

// TestCtx3ConcurrentDisjointSlices is the 3-D analogue, fanning
// CtxD.ConnectFull and CtxD.Connect2 calls out per sphere-grid cell.
func TestCtx3ConcurrentDisjointSlices(t *testing.T) {
	const n = 3000
	raw := rng.New(8).UniformBall3N(n, 1)
	pts := make([]float64, 3*(n+1))
	for i, p := range raw {
		geom.Vec{p.X, p.Y, p.Z}.HypersphericalInto(pts[3*(i+1) : 3*(i+2)])
	}
	pts[geom.AxisU] = 1 // the source, at the origin
	g, err := grid.NewGridD(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]int32, g.NumCells())
	for i := 1; i <= n; i++ {
		c := g.CellOf(pts[3*i : 3*i+3])
		groups[c] = append(groups[c], int32(i))
	}

	run := func(concurrent, binary bool) []int32 {
		sink := newRaceSink(n + 1)
		ctx := &CtxD{B: sink, D: 3, Pts: pts}
		var wg sync.WaitGroup
		for id, members := range groups {
			if len(members) == 0 {
				continue
			}
			shell, j := grid.RingIdx(id)
			cell := g.Cell(shell, j)
			rep := members[0]
			sink.MustAttach(int(rep), 0)
			if len(members) == 1 {
				continue
			}
			idx := append([]int32(nil), members[1:]...)
			connect := ctx.ConnectFull
			if binary {
				connect = ctx.Connect2
			}
			if concurrent {
				wg.Add(1)
				go func() {
					defer wg.Done()
					connect(idx, rep, cell)
				}()
			} else {
				connect(idx, rep, cell)
			}
		}
		wg.Wait()
		return sink.parents
	}

	for _, binary := range []bool{false, true} {
		serial := run(false, binary)
		conc := run(true, binary)
		for i := range serial {
			if serial[i] != conc[i] {
				t.Fatalf("binary=%v: parent mismatch at node %d: serial %d, concurrent %d",
					binary, i, serial[i], conc[i])
			}
		}
		if l := invariant.CheckParents(conc, n+1, 0, 0, nil, 0); len(l) != 0 {
			t.Fatalf("binary=%v: concurrent fan-out broke tree invariants: %v", binary, l)
		}
	}
}
