package core

import (
	"bytes"
	"fmt"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
)

// stateHarness drives a BuildState and a mirror membership map in lockstep,
// comparing every rebuild against a from-scratch Build2 over the same
// membership.
type stateHarness struct {
	t      *testing.T
	bs     *BuildState
	source geom.Point2
	opts   []Option
	pos    map[int]geom.Point2
	slots  []int // present slots, ascending
	next   int
	fulls  int
	incs   int
}

func newStateHarness(t *testing.T, source geom.Point2, opts ...Option) *stateHarness {
	bs, err := NewBuildState(source, opts...)
	if err != nil {
		t.Fatalf("NewBuildState: %v", err)
	}
	return &stateHarness{t: t, bs: bs, source: source, opts: opts, pos: map[int]geom.Point2{}, next: 1}
}

func (h *stateHarness) add(p geom.Point2) {
	slot := h.next
	h.next++
	h.bs.Add(slot, p)
	h.pos[slot] = p
	h.slots = append(h.slots, slot)
}

// remove drops the i-th present slot (by ascending order).
func (h *stateHarness) remove(i int) {
	slot := h.slots[i]
	h.bs.Remove(slot)
	delete(h.pos, slot)
	h.slots = append(h.slots[:i], h.slots[i+1:]...)
}

// check rebuilds incrementally and from scratch and requires identical
// outcomes: same error, or same k, byte-identical tree, and same metrics.
func (h *stateHarness) check() {
	h.t.Helper()
	receivers := make([]geom.Point2, len(h.slots))
	for i, slot := range h.slots {
		receivers[i] = h.pos[slot]
	}
	want, wantErr := Build2(h.source, receivers, h.opts...)
	got, full, gotErr := h.bs.Rebuild()
	if (wantErr == nil) != (gotErr == nil) {
		h.t.Fatalf("n=%d: error mismatch: scratch %v, state %v", len(h.slots), wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			h.t.Fatalf("error text mismatch: %q vs %q", wantErr, gotErr)
		}
		return
	}
	if full {
		h.fulls++
	} else {
		h.incs++
	}
	if got.K != want.K {
		h.t.Fatalf("n=%d: k mismatch: state %d, scratch %d", len(h.slots), got.K, want.K)
	}
	if !bytes.Equal(treeBytes(h.t, got.Tree), treeBytes(h.t, want.Tree)) {
		h.t.Fatalf("n=%d full=%v k=%d: tree differs from scratch build", len(h.slots), full, got.K)
	}
	if got.Radius != want.Radius || got.CoreDelay != want.CoreDelay ||
		got.Bound != want.Bound || got.Scale != want.Scale {
		h.t.Fatalf("n=%d: metrics differ: %+v vs %+v", len(h.slots), got, want)
	}
}

func TestBuildStateMatchesFromScratch(t *testing.T) {
	for _, deg := range []int{2, 4, 6} {
		r := rng.New(uint64(900 + deg))
		source := geom.Point2{X: 3, Y: -1}
		h := newStateHarness(t, source, WithMaxOutDegree(deg))

		// Growth phase.
		for i := 0; i < 300; i++ {
			h.add(source.Add(r.UniformDisk(1)))
			if i%13 == 0 {
				h.check()
			}
		}
		h.check()

		// Churn phase: mixed joins and leaves, including occasional points
		// beyond the current scale (forcing scale-growth fallbacks) and
		// removals of arbitrary members (occasionally the outermost).
		for i := 0; i < 400; i++ {
			switch {
			case r.Intn(3) == 0 && len(h.slots) > 10:
				h.remove(r.Intn(len(h.slots)))
			case r.Intn(20) == 0:
				h.add(source.Add(r.UniformDisk(1).Scale(1.5))) // may exceed scale
			default:
				h.add(source.Add(r.UniformDisk(1)))
			}
			if i%7 == 0 {
				h.check()
			}
		}
		h.check()

		// Drain to empty, then regrow.
		for len(h.slots) > 0 {
			h.remove(r.Intn(len(h.slots)))
			if len(h.slots)%29 == 0 {
				h.check()
			}
		}
		h.check()
		for i := 0; i < 50; i++ {
			h.add(source.Add(r.UniformDisk(2)))
		}
		h.check()

		// Above the parallel build threshold: Build2's default worker
		// choice goes parallel on multi-core runners while the state stays
		// serial. Grow to 5,000 members, churn, then drain.
		for len(h.slots) < 5000 {
			h.add(source.Add(r.UniformDisk(1)))
			if len(h.slots)%250 == 0 {
				h.check()
			}
		}
		for i := 0; i < 500; i++ {
			if r.Intn(2) == 0 {
				h.remove(r.Intn(len(h.slots)))
			} else {
				h.add(source.Add(r.UniformDisk(1)))
			}
			if i%25 == 0 {
				h.check()
			}
		}
		h.check()
		for len(h.slots) > 0 {
			h.remove(r.Intn(len(h.slots)))
			if len(h.slots)%250 == 0 {
				h.check()
			}
		}

		if h.incs == 0 {
			t.Fatalf("deg %d: incremental path never ran (%d fulls)", deg, h.fulls)
		}
		if h.fulls < 2 {
			t.Fatalf("deg %d: full-rebuild fallback never exercised after seeding", deg)
		}
	}
}

// Every rebuild between churn events must hit the cache: same pointer, not
// full, no error.
func TestBuildStateCachesUnchangedMembership(t *testing.T) {
	r := rng.New(4)
	h := newStateHarness(t, geom.Point2{})
	for i := 0; i < 100; i++ {
		h.add(r.UniformDisk(1))
	}
	first, full, err := h.bs.Rebuild()
	if err != nil || !full {
		t.Fatalf("first rebuild: full=%v err=%v", full, err)
	}
	again, full, err := h.bs.Rebuild()
	if err != nil || full || again != first {
		t.Fatalf("cached rebuild: full=%v err=%v same=%v", full, err, again == first)
	}
	h.add(r.UniformDisk(0.5))
	third, full, err := h.bs.Rebuild()
	if err != nil || full || third == first {
		t.Fatalf("post-churn rebuild: full=%v err=%v same=%v", full, err, third == first)
	}
}

// Degenerate geometries (no members, all members at the source) must match
// the from-scratch degenerate builds, and transition cleanly back to grids.
func TestBuildStateDegenerate(t *testing.T) {
	h := newStateHarness(t, geom.Point2{X: 1})
	h.check() // empty
	for i := 0; i < 9; i++ {
		h.add(geom.Point2{X: 1}) // coincident with the source
		h.check()
	}
	h.add(geom.Point2{X: 2}) // real geometry appears
	h.check()
	h.remove(len(h.slots) - 1) // and collapses again
	h.check()
}

// Forced-k parity: the incremental path must reject an emptied interior cell
// with exactly the from-scratch error, and recover when it refills.
func TestBuildStateForceKParity(t *testing.T) {
	source := geom.Point2{}
	h := newStateHarness(t, source, WithForceK(3))
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		h.add(r.UniformDisk(1))
	}
	h.check()
	// Empty one interior cell by removing everything in it.
	g := h.bs.g
	target := -1
	for i := len(h.slots) - 1; i >= 0; i-- {
		c := g.CellOf(h.pos[h.slots[i]].PolarAround(source))
		if target == -1 {
			if ring, _ := grid.RingIdx(c); ring == 1 {
				target = c
			}
		}
		if c == target {
			h.remove(i)
		}
	}
	if target == -1 {
		t.Fatal("no ring-1 cell found")
	}
	h.check() // both sides must error identically
	// Refill the emptied cell and verify recovery.
	ring, j := grid.RingIdx(target)
	rMid := (g.CircleRadius(ring-1) + g.CircleRadius(ring)) / 2
	theta := geom.TwoPi * (float64(j) + 0.5) / float64(grid.CellsInRing(ring))
	h.add(source.Add(geom.Polar{R: rMid, Theta: theta}.ToPoint()))
	h.check()
}

// TestSharedSubsetMatchesDense: a state borrowing a shared geometry and
// holding a pseudo-random subset of its slots — one multi-group group —
// gathers that subset densely for its full rebuild and must build exactly
// what Build2 builds over the subset's positions, at the automatic depth
// and under kMax ceilings below and above it.
func TestSharedSubsetMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		n    int
		keep float64
	}{
		{50, 1.0}, {500, 0.5}, {3000, 0.2}, {3000, 1.0}, {40, 0.1},
	} {
		t.Run(fmt.Sprintf("n%d_keep%v", tc.n, tc.keep), func(t *testing.T) {
			r := rng.New(uint64(tc.n)*7 + uint64(tc.keep*100))
			source := geom.Point2{X: 0.2, Y: -0.1}
			hosts := r.UniformDiskN(tc.n, 1)
			geo := NewSlotGeometry(source, hosts)
			var slots []int
			var members []geom.Point2
			for h, p := range hosts {
				if r.Float64() < tc.keep {
					slots = append(slots, h+1)
					members = append(members, p)
				}
			}
			kMax := grid.DefaultKMax(len(members))
			for _, ceiling := range []int{0, 1, 2, kMax / 2, kMax + 3} {
				opts := []Option{WithKMax(ceiling)}
				bs, err := NewBuildStateShared(geo, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, sl := range slots {
					bs.AddSlot(sl)
				}
				assertSameResult(t, fmt.Sprintf("kMax=%d", ceiling), bs, source, members, opts)
			}
		})
	}
}

// TestSharedSubsetEmptyAndSingle covers the degenerate memberships a group
// can hold: no members, and one member.
func TestSharedSubsetEmptyAndSingle(t *testing.T) {
	hosts := []geom.Point2{{X: 0.5, Y: 0.1}, {X: -0.3, Y: 0.2}}
	geo := NewSlotGeometry(geom.Point2{}, hosts)
	bs, err := NewBuildStateShared(geo)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "empty", bs, geom.Point2{}, nil, nil)
	bs.AddSlot(2)
	assertSameResult(t, "single", bs, geom.Point2{}, hosts[1:], nil)
}

// assertSameResult rebuilds bs and requires Build2's result over members.
func assertSameResult(t *testing.T, name string, bs *BuildState, source geom.Point2, members []geom.Point2, opts []Option) {
	t.Helper()
	got, _, err := bs.Rebuild()
	if err != nil {
		t.Fatalf("%s: state: %v", name, err)
	}
	want, err := Build2(source, members, opts...)
	if err != nil {
		t.Fatalf("%s: Build2: %v", name, err)
	}
	if got.K != want.K {
		t.Fatalf("%s: k = %d, Build2 picked %d", name, got.K, want.K)
	}
	if !bytes.Equal(treeBytes(t, got.Tree), treeBytes(t, want.Tree)) {
		t.Fatalf("%s: tree differs from Build2", name)
	}
	if got.Radius != want.Radius || got.CoreDelay != want.CoreDelay || got.Bound != want.Bound || got.Scale != want.Scale {
		t.Fatalf("%s: metrics differ: %+v vs %+v", name, got, want)
	}
}

// TestBuildStateMemoryBytes: the estimate charges every slot-indexed
// array, and every cell's member list its slice header on top of its
// backing array — empty cells included.
func TestBuildStateMemoryBytes(t *testing.T) {
	r := rng.New(12)
	bs, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range r.UniformDiskN(100, 1) {
		bs.Add(i+1, p)
	}
	if _, _, err := bs.Rebuild(); err != nil {
		t.Fatal(err)
	}
	cells := grid.NumCells(bs.k)
	if len(bs.members) != cells {
		t.Fatalf("%d member lists for %d cells", len(bs.members), cells)
	}
	want := int64(101) + 4*int64(101+101+cells+grid.NumCells(bs.k+1)) // present; cellOf, parent, reps, cnt1
	for _, m := range bs.members {
		want += sliceHeaderBytes + 4*int64(cap(m))
	}
	if got := bs.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (k = %d)", got, want, bs.k)
	}
}
