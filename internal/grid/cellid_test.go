package grid

import "testing"

func TestCellIDRoundTrip(t *testing.T) {
	for ring := 0; ring <= 10; ring++ {
		for _, idx := range []int{0, 1, CellsInRing(ring) - 1} {
			if idx < 0 || idx >= CellsInRing(ring) {
				continue
			}
			id := CellID(ring, idx)
			r, i := RingIdx(id)
			if r != ring || i != idx {
				t.Errorf("RingIdx(CellID(%d, %d)) = (%d, %d)", ring, idx, r, i)
			}
		}
	}
}

func TestCellIDDense(t *testing.T) {
	// Ids must be dense: cell (ring, idx) for increasing ring/idx yields
	// consecutive integers 0, 1, 2, ...
	want := 0
	for ring := 0; ring <= 6; ring++ {
		for idx := 0; idx < CellsInRing(ring); idx++ {
			if got := CellID(ring, idx); got != want {
				t.Fatalf("CellID(%d, %d) = %d, want %d", ring, idx, got, want)
			}
			want++
		}
	}
	if want != NumCells(6) {
		t.Errorf("total = %d, want NumCells(6) = %d", want, NumCells(6))
	}
}

func TestChildParentCells(t *testing.T) {
	for idx := 0; idx < 16; idx++ {
		a, b := ChildCells(idx)
		if a != 2*idx || b != 2*idx+1 {
			t.Errorf("ChildCells(%d) = (%d, %d)", idx, a, b)
		}
		if ParentCell(a) != idx || ParentCell(b) != idx {
			t.Errorf("ParentCell of children of %d wrong", idx)
		}
	}
}

func TestRingIdxPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RingIdx(-1)
}

// ringIdxLoop is the linear-scan RingIdx the bit-length form replaced.
func ringIdxLoop(id int) (ring, idx int) {
	for 1<<uint(ring+1)-1 <= id {
		ring++
	}
	return ring, id - (1<<uint(ring) - 1)
}

// TestRingIdxMatchesLoop: the bit-length RingIdx agrees with the linear
// ring scan for every cell id of a depth-20 grid.
func TestRingIdxMatchesLoop(t *testing.T) {
	for id := 0; id < NumCells(20); id++ {
		r, i := RingIdx(id)
		wr, wi := ringIdxLoop(id)
		if r != wr || i != wi {
			t.Fatalf("RingIdx(%d) = (%d, %d), loop gives (%d, %d)", id, r, i, wr, wi)
		}
	}
}
