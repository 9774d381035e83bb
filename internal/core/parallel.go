package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"omtree/internal/bisect"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// parallelBuildThreshold is the receiver count below which the automatic
// worker selection stays serial: under a few thousand points the whole build
// takes well under a millisecond and goroutine fan-out only adds overhead.
const parallelBuildThreshold = 2048

// unattachedNode mirrors the tree.Builder sentinel for nodes not yet wired
// into a parallel build's shared parent array.
const unattachedNode int32 = -2

// parentSink is the attachment sink of the incremental BuildState path and
// the base of the one-shot builds' delaySink: a bare parent array shared by
// every worker. It is lock-free by construction — the wiring attaches each
// node exactly once, from the one cell responsible for it, so concurrent
// MustAttach calls always target distinct entries. Structural validation
// (spanning, acyclicity, degree caps) that tree.Builder performs
// edge-by-edge is instead run once over the finished array in build (or,
// for BuildState, at export).
type parentSink struct {
	parents []int32
}

var _ bisect.Attacher = (*parentSink)(nil)

// newParentSink returns a sink for n nodes rooted at node 0.
func newParentSink(n int) *parentSink {
	parents := make([]int32, n)
	for i := range parents {
		parents[i] = unattachedNode
	}
	parents[0] = tree.NoParent
	return &parentSink{parents: parents}
}

// MustAttach wires child under parent. The double-attach check involves no
// synchronization: only the single MustAttach call for a given child ever
// writes (or reads) that child's entry after initialization.
func (s *parentSink) MustAttach(child, parent int) {
	if s.parents[child] != unattachedNode {
		panic(fmt.Sprintf("core: node %d attached twice (wiring bug)", child))
	}
	s.parents[child] = int32(parent)
}

// build finalizes the sink into a validated tree; FromParents checks that
// the array is spanning, acyclic and within the degree cap, so the wiring
// itself never has to.
func (s *parentSink) build(degCap int) (*tree.Tree, error) {
	return tree.FromParents(0, s.parents, degCap)
}

// delaySink is the one-shot builds' sink: a parentSink that also records
// every node's source-to-node delay as it attaches. Wiring runs ring by ring
// and always attaches a child under an already attached node, so
// delays[parent] is final at that moment, and delays[parent] + dist(parent,
// child) is exactly the sum tree.Delays would form walking the finished
// tree — bit for bit.
type delaySink struct {
	parentSink
	delays []float64
	dist   tree.DistFunc
}

func (s *delaySink) MustAttach(child, parent int) {
	s.parentSink.MustAttach(child, parent)
	s.delays[child] = s.delays[parent] + s.dist(parent, child)
}

// parRange splits [0, n) into one contiguous chunk per worker and runs fn
// for each chunk, concurrently when workers > 1. fn receives the chunk index
// (for per-worker accumulators) and its half-open range.
func parRange(workers, n int, fn func(w, lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// cellBlock sizes the work units of parCells: large enough to amortize the
// atomic fetch, small enough to balance rings whose cells differ wildly in
// population.
const cellBlock = 32

// parCells runs fn(w, c) for every cell id in [lo, hi), distributing
// blocks of cells over the worker pool through an atomic cursor; w is the
// worker index (for per-worker accumulators). Per-cell work is proportional
// to cell population, which varies by orders of magnitude across cells, so
// dynamic block distribution balances far better than contiguous
// pre-partitioning.
func parCells(workers, lo, hi int, fn func(w, c int)) {
	if workers <= 1 {
		for c := lo; c < hi; c++ {
			fn(0, c)
		}
		return
	}
	var cursor atomic.Int64
	cursor.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				from := int(cursor.Add(cellBlock)) - cellBlock
				if from >= hi {
					return
				}
				for c := from; c < min(from+cellBlock, hi); c++ {
					fn(w, c)
				}
			}
		}(w)
	}
	wg.Wait()
}

// convertCoords converts receivers 0..n-1 across the worker pool — conv(i)
// fills node i+1's coordinates from receiver i and returns its distance
// from the source — and returns the largest distance. The chunked maximum
// equals the serial maximum exactly (float64 max is
// association-independent), so the grid scale, and hence the whole build,
// does not depend on the worker count. A distance that is not finite (a NaN
// or infinite coordinate, or one that overflows) fails the conversion,
// naming the lowest such receiver whatever the worker count.
func convertCoords(workers, n int, conv func(i int) float64) (float64, error) {
	type chunk struct {
		maxR, badR float64
		bad        int
	}
	chunks := make([]chunk, workers)
	for w := range chunks {
		chunks[w].bad = -1
	}
	parRange(workers, n, func(w, lo, hi int) {
		c := chunk{bad: -1}
		for i := lo; i < hi; i++ {
			r := conv(i)
			if r > c.maxR {
				c.maxR = r
			}
			if !(r <= math.MaxFloat64) && c.bad < 0 {
				c.bad, c.badR = i, r
			}
		}
		chunks[w] = c
	})
	var scale float64
	for _, c := range chunks {
		if c.bad >= 0 {
			return 0, fmt.Errorf("core: receiver %d lies at non-finite distance %v from the source", c.bad, c.badR)
		}
		scale = max(scale, c.maxR)
	}
	return scale, nil
}

// assignCells fills cellOf[i] with the grid cell of receiver i's coordinate
// across the worker pool. cellAt must be pure (the grid types are immutable
// value types, so their CellOf methods are).
func assignCells(workers int, cellOf []int32, cellAt func(i int) int32) {
	parRange(workers, len(cellOf), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cellOf[i] = cellAt(i)
		}
	})
}

// groupByCellParallel reproduces groupByCell's exact output with a sharded
// counting sort: each worker counts cell populations over its contiguous
// shard of cellOf, a serial prefix pass converts the per-shard counts into
// per-shard write offsets (off[w][c] = start[c] + sum of counts[w'][c] for
// w' < w), and each worker then places its shard's nodes in index order.
// Nodes therefore land grouped by cell, ordered by original index within a
// cell — byte-for-byte the serial counting sort's layout.
func groupByCellParallel(cellOf []int32, numCells, workers int) cellGroups {
	n := len(cellOf)
	if workers <= 1 {
		return groupByCell(cellOf, numCells)
	}
	chunk := (n + workers - 1) / workers
	shards := (n + chunk - 1) / chunk
	counts := make([][]int32, shards)
	parRange(workers, n, func(w, lo, hi int) {
		cnt := make([]int32, numCells)
		for _, c := range cellOf[lo:hi] {
			cnt[c]++
		}
		counts[w] = cnt
	})

	start := make([]int32, numCells+1)
	for c := 0; c < numCells; c++ {
		var total int32
		for w := 0; w < shards; w++ {
			cellCount := counts[w][c]
			counts[w][c] = start[c] + total // reuse the count as the shard's write offset
			total += cellCount
		}
		start[c+1] = start[c] + total
	}

	order := make([]int32, n)
	parRange(workers, n, func(w, lo, hi int) {
		off := counts[w]
		for i, c := range cellOf[lo:hi] {
			order[off[c]] = int32(lo + i + 1) // receiver i is node i+1
			off[c]++
		}
	})
	return cellGroups{start: start, order: order}
}

// wireParallel runs the cell-parallel tail of every one-shot Build (and of
// BuildState's full rebuild, which runs Build2's pipeline):
// representative selection, core + in-cell wiring of all cells into a
// shared parent array, one-shot validation, and the Result metrics. It
// fills res.Tree, res.Radius and res.CoreDelay and returns each cell's
// representative node (-1 for an empty cell and for cell 0); res.Variant
// and res.MaxOutDegree select the wiring. mkConn builds the dimension's
// connector around the shared sink, and dist is the tree's edge length.
//
// Cells are wired ring by ring, 0..k, with a barrier between rings: a ring-r
// cell attaches its members under its representative, which its ring r-1
// parent cell attached. Every attach therefore finds its parent's delay
// final, the sink records delays as it goes, and the metrics phase is two
// max reductions instead of a second walk of the tree. Determinism needs no
// merge step: cells write disjoint parent and delay entries, so the
// finished arrays are independent of which worker ran which cell.
func wireParallel(res *Result, k, workers int, g cellGroups, dist tree.DistFunc,
	mkConn func(bisect.Attacher) connector, in instr) ([]int32, error) {
	numCells := len(g.start) - 1
	sink := &delaySink{
		parentSink: *newParentSink(len(g.order) + 1),
		delays:     make([]float64, len(g.order)+1),
		dist:       dist,
	}
	conn := mkConn(sink)
	endReps := in.phase("build/reps")
	reps := make([]int32, numCells)
	parCells(workers, 0, numCells, func(_, c int) {
		reps[c] = repOf(g.order[g.start[c]:g.start[c+1]], c, conn)
	})
	endReps()
	reps[0] = -1 // the source itself anchors ring 0; cell 0 has no separate representative
	byRing := func(fn func(w, c int)) {
		for ring := 0; ring <= k; ring++ {
			parCells(workers, grid.CellID(ring, 0), grid.CellID(ring+1, 0), fn)
		}
	}
	endWire := in.phase("build/wire")
	reg := in.obs
	if reg.Enabled() {
		// Instrumented pass: per-worker busy time and cell counts feed the
		// utilization and skew gauges; wall time spans every ring, so
		// utilization also charges the idle time at ring barriers. Each
		// worker writes only its own slot; parCells's WaitGroup publishes
		// the slices to this goroutine. All three gauges depend on timing
		// or scheduling, so they are wall-clock gauges, which flight
		// samples skip.
		wireStart := time.Now()
		busyNs := make([]int64, workers)
		cellCnt := make([]int64, workers)
		byRing(func(w, c int) {
			t0 := time.Now()
			wireCell(sink, k, c, g, reps, conn, res.Variant, in)
			busyNs[w] += int64(time.Since(t0))
			cellCnt[w]++
		})
		wall := time.Since(wireStart).Seconds()
		var busyTotal, maxCells int64
		for w := 0; w < workers; w++ {
			busyTotal += busyNs[w]
			if cellCnt[w] > maxCells {
				maxCells = cellCnt[w]
			}
		}
		if wall > 0 && workers > 0 {
			reg.WallGauge("build/wire/worker_utilization").Set(
				float64(busyTotal) / 1e9 / (wall * float64(workers)))
		}
		if numCells > 0 && workers > 0 {
			mean := float64(numCells) / float64(workers)
			reg.WallGauge("build/wire/cells_per_worker_max").Set(float64(maxCells))
			reg.WallGauge("build/wire/cells_per_worker_skew").Set(float64(maxCells) / mean)
		}
	} else {
		byRing(func(_, c int) {
			wireCell(sink, k, c, g, reps, conn, res.Variant, instr{rec: in.rec, tid: in.tid, node: in.node})
		})
	}
	endWire()
	t, err := sink.build(res.MaxOutDegree)
	if err != nil {
		return nil, fmt.Errorf("core: incomplete wiring (bug): %w", err)
	}
	endMetrics := in.phase("build/metrics")
	res.Tree = t
	res.Radius = maxOf(sink.delays)
	res.CoreDelay = coreDelay(sink.delays, reps)
	endMetrics()
	return reps, nil
}
