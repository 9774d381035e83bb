package core

import (
	"omtree/internal/bisect"
	"omtree/internal/grid"
)

// connector abstracts the dimension-specific pieces of the core wiring: the
// arc-center scoring of a cell's members, point distances, and the in-cell
// Bisection runs. Node ids follow the Result convention (0 = source).
type connector interface {
	// nearestArc returns the position in members (non-empty) of the member
	// nearest the center of the cell's inner arc, or of its outer arc when
	// outer is set, by squared distance, ties to the smallest node id. The
	// inner arc ranks cell representatives ("the point that is closest to
	// the center on the inner arc of the segment", §III-B); the outer arc,
	// which lies between the two child-cell representatives, ranks the
	// binary variant's next-ring relay. The cell's geometry is evaluated
	// once per call, not once per member.
	nearestArc(cellID int, outer bool, members []int32) int
	// pointDist2 is the squared Euclidean distance between two nodes.
	pointDist2(a, b int32) float64
	// connectNatural runs the full-degree Bisection over the member nodes
	// idx inside the given grid cell with src as local source.
	connectNatural(idx []int32, src int32, cellID int)
	// connectBinary is the out-degree-2 Bisection counterpart.
	connectBinary(idx []int32, src int32, cellID int)
}

// cellGroups is the receivers-by-cell index: CSR over global cell ids.
// order holds receiver node ids (>= 1); cell c owns
// order[start[c]:start[c+1]].
type cellGroups struct {
	start []int32
	order []int32
}

// groupByCell counting-sorts the receiver node ids by cell id.
func groupByCell(cellOf []int32, numCells int) cellGroups {
	start := make([]int32, numCells+1)
	for _, c := range cellOf {
		start[c+1]++
	}
	for c := 0; c < numCells; c++ {
		start[c+1] += start[c]
	}
	order := make([]int32, len(cellOf))
	fill := append([]int32(nil), start[:numCells]...)
	for i, c := range cellOf {
		order[fill[c]] = int32(i + 1) // receiver i is node i+1
		fill[c]++
	}
	return cellGroups{start: start, order: order}
}

// repOf returns the cell's representative over an explicit member list: the
// member closest to the center of the cell's inner arc (§III-B), ties to the
// smallest id; -1 when empty.
func repOf(members []int32, cellID int, conn connector) int32 {
	if len(members) == 0 {
		return -1
	}
	return members[conn.nearestArc(cellID, false, members)]
}

// argmin returns the position of the member with the smallest score, ties
// to the smallest node id. The connectors' nearestArc implementations share
// it, so every dimension breaks ties identically.
func argmin(members []int32, score func(id int32) float64) int {
	best, bestScore := 0, score(members[0])
	for p := 1; p < len(members); p++ {
		if s := score(members[p]); s < bestScore || (s == bestScore && members[p] < members[best]) {
			best, bestScore = p, s
		}
	}
	return best
}

// wireCell wires one grid cell: the core edges from the cell's
// representative down to the aligned next-ring representatives, plus the
// in-cell Bisection over the remaining members.
//
// Each node is attached by exactly one cell — members by their own cell,
// representatives by the parent-ring cell — and the in-place shuffles below
// (and inside the Bisection fan-outs) stay within this cell's slice of
// g.order, so distinct cells touch disjoint memory and may run concurrently
// against a concurrency-tolerant Attacher.
func wireCell(b bisect.Attacher, k, id int, g cellGroups, reps []int32, conn connector, variant Variant, in instr) {
	wireCellMembers(b, k, id, g.order[g.start[id]:g.start[id+1]], reps, conn, variant, in)
}

// wireCellMembers is wireCell over an explicit member slice: the shared entry
// point of the one-shot builds (handing out slices of the CSR order array)
// and the incremental BuildState path (handing out scratch copies of its
// persistent per-cell member lists, which wiring must not permute). members
// is the cell's full membership including its representative; it is shuffled
// in place.
func wireCellMembers(b bisect.Attacher, k, id int, members []int32, reps []int32, conn connector, variant Variant, in instr) {
	ring, idx := grid.RingIdx(id)
	var repNode int32
	if ring == 0 {
		repNode = 0
	} else {
		repNode = reps[id]
		if repNode < 0 {
			return // empty outermost-ring cell
		}
	}

	if ring > 0 {
		// Exclude the representative (attached while processing its parent
		// ring's cell).
		for p, v := range members {
			if v == repNode {
				members[0], members[p] = members[p], members[0]
				break
			}
		}
		members = members[1:]
	}

	var childReps []int32
	if ring < k {
		c1, c2 := grid.ChildCells(idx)
		for _, child := range [2]int{grid.CellID(ring+1, c1), grid.CellID(ring+1, c2)} {
			if reps[child] >= 0 {
				childReps = append(childReps, reps[child])
			}
		}
	}

	// Per-cell span: dominated by the in-cell Bisection fan-out. Span
	// mutation is atomic, so concurrent cells share one accumulator safely;
	// with no registry attached this costs two nil checks per cell. The
	// matching trace instant goes through the recorder's lock.
	in.cell(id, repNode)
	sp := in.obs.Start("build/wire/bisect")
	switch variant {
	case VariantNatural:
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(repNode))
		}
		conn.connectNatural(members, repNode, id)
	case VariantHybrid:
		// Natural core wiring, binary in-cell fan-out: 2 + 2 = 4.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(repNode))
		}
		conn.connectBinary(members, repNode, id)
	default:
		wireBinaryCell(b, conn, repNode, members, childReps, id)
	}
	sp.End()
}

// wireBinaryCell realizes the three cases of §IV-A for one cell in the
// out-degree-2 variant. rep is attached; members excludes rep; childReps
// are the (at most two) representatives of the aligned next-ring cells.
func wireBinaryCell(b bisect.Attacher, conn connector, rep int32, members, childReps []int32, cellID int) {
	if len(childReps) == 0 {
		// Leaf cell: no relay duty, the representative is a plain local
		// source.
		conn.connectBinary(members, rep, cellID)
		return
	}
	switch len(members) {
	case 0:
		// Case 1: the representative relays the next ring itself.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(rep))
		}
	case 1:
		// Case 2: the single extra member relays the next ring.
		b.MustAttach(int(members[0]), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(members[0]))
		}
	default:
		// Case 3: one member becomes the in-cell Bisection source, another
		// (nearest the outer arc center, between the two child-cell
		// representatives) relays the next ring.
		bi := conn.nearestArc(cellID, true, members)
		relay := members[bi]
		members[bi] = members[len(members)-1]
		members = members[:len(members)-1]

		ai := argmin(members, func(id int32) float64 { return conn.pointDist2(id, rep) })
		local := members[ai]
		members[ai] = members[len(members)-1]
		members = members[:len(members)-1]

		b.MustAttach(int(local), int(rep))
		b.MustAttach(int(relay), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(relay))
		}
		conn.connectBinary(members, local, cellID)
	}
}

// coreDelay returns the longest source-to-representative delay — the
// paper's "Core" column. delays must be indexed by node id.
func coreDelay(delays []float64, reps []int32) float64 {
	var maxDelay float64
	for _, rep := range reps {
		if rep >= 0 && delays[rep] > maxDelay {
			maxDelay = delays[rep]
		}
	}
	return maxDelay
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
