package core

import (
	"fmt"
	"sort"
	"unsafe"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/tree"
)

// BuildState is the incremental counterpart of Build2: it retains the grid
// geometry, the per-cell membership lists, the cell assignments and the
// parent array of the last build, so that a rebuild after churn only has to
// re-run representative selection and wiring for the cells whose membership
// changed (plus their ancestor chain, whose core edges may move). The
// result is always byte-identical to a from-scratch Build2 over the current
// membership — the differential and fuzz suites enforce this — because all
// wiring decisions are functions of per-cell membership and geometry only:
// a cell whose membership did not change, and whose children's
// representatives did not change, wires exactly as before.
//
// Membership is keyed by caller-chosen slots (small non-negative integers;
// slot 0 is the source). The exported tree uses dense node ids: 0 for the
// source and i >= 1 for the i-th smallest live slot, matching what Build2
// returns for the receivers listed in slot order. Wiring tie-breaks compare
// ids only by order, so the slot -> dense-id relabeling (which is monotone)
// preserves every decision.
//
// The state's geometry (slot positions and their polar conversion) lives in
// a SlotGeometry. NewBuildState owns its geometry and grows it per Add;
// NewBuildStateShared borrows one read-only — the multi-group substrate
// builds one per source and lends it to every group rooted there — and the
// state then only ever writes its private membership arrays. All remaining
// per-group cell state is copy-on-write with respect to the retained build:
// rebuilds copy a cell's member list into scratch before the wiring
// permutes it, and only dirty cells' retained state is touched at all.
//
// The incremental path falls back to a full rebuild whenever the cheap
// exactness conditions fail:
//   - the verified k would change (an interior cell emptied, depth k+1
//     became feasible, or the k ceiling moved with n), tracked O(1) per
//     churn event via interior-occupancy counters at depths k and k+1;
//   - the grid scale would change (a point joined beyond the current
//     outermost radius, or a point at the outermost radius left);
//   - geometry is degenerate (no receivers, or all at the source).
//
// BuildState is not safe for concurrent use. Distinct BuildStates sharing
// one SlotGeometry may be used concurrently: the geometry is never written
// after construction.
type BuildState struct {
	o       options
	variant Variant
	degCap  int

	geo    *SlotGeometry // slot positions + polars; read-only when shared
	shared bool          // borrowed geometry: Add/Move are forbidden, AddSlot is the entry

	present []bool // slot -> currently a member
	n       int    // live receiver slots

	scale float64
	k     int
	g     grid.PolarGrid
	g1    grid.PolarGrid // depth k+1, for growth detection

	members [][]int32 // cell -> live slots, ascending
	cellOf  []int32   // slot -> cell
	reps    []int32   // cell -> representative slot, -1 if empty (reps[0] = -1)
	parent  []int32   // slot -> parent slot; the wiring sink's array

	cnt1   []int32 // depth-k+1 interior cell populations
	emptyK int     // empty interior cells at depth k
	empty1 int     // empty interior cells at depth k+1

	dirty    map[int]struct{}
	needFull bool
	built    bool

	cert Certificate // eq. 7 certificate of the last completed rebuild

	last *Result // cache: valid until the next Add/Remove/Move
}

// NewBuildState returns an empty incremental build around the given source.
// It accepts the same options as Build2. WithParallelism is ignored: a full
// rebuild runs Build2's own pipeline over the live members with one worker,
// an incremental one rewires the dirty cells serially, and every worker
// count builds the identical tree anyway.
func NewBuildState(source geom.Point2, opts ...Option) (*BuildState, error) {
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo = &SlotGeometry{source: source, pts: []geom.Polar{{}}}
	s.present = []bool{true}
	s.cellOf = []int32{0}
	s.parent = []int32{tree.NoParent}
	return s, nil
}

// NewBuildStateShared returns an empty incremental build borrowing geo,
// which must stay immutable for the state's lifetime. Membership changes go
// through AddSlot/Remove; Add and Move (which would write positions) panic.
// Any number of states — one per multicast group — may borrow one geometry
// concurrently, each paying only for its private membership arrays.
func NewBuildStateShared(geo *SlotGeometry, opts ...Option) (*BuildState, error) {
	if geo == nil {
		return nil, fmt.Errorf("core: NewBuildStateShared needs a geometry")
	}
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo, s.shared = geo, true
	slots := geo.Slots()
	s.present = make([]bool, slots)
	s.present[0] = true
	s.cellOf = make([]int32, slots)
	s.parent = make([]int32, slots)
	for i := 1; i < slots; i++ {
		s.cellOf[i] = -1
		s.parent[i] = unattachedNode
	}
	s.parent[0] = tree.NoParent
	return s, nil
}

// newBuildState resolves the options shared by both constructors.
func newBuildState(opts []Option) (*BuildState, error) {
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree2D)
	if err != nil {
		return nil, err
	}
	return &BuildState{
		o:       o,
		variant: variant,
		degCap:  degCap,
		dirty:   make(map[int]struct{}),
	}, nil
}

// N returns the number of live receiver slots.
func (s *BuildState) N() int { return s.n }

// Present reports whether slot is currently a live member.
func (s *BuildState) Present(slot int) bool {
	return slot > 0 && slot < len(s.present) && s.present[slot]
}

// SetInstruments (re)attaches the metrics registry and trace recorder used
// by subsequent rebuilds, mirroring WithObserver/WithTrace on Build2.
// Instrumentation never influences the produced tree.
func (s *BuildState) SetInstruments(reg *obs.Registry, rec *trace.Recorder) {
	s.o.obs, s.o.trace = reg, rec
}

// SetFlight (re)attaches the flight recorder sampled after every rebuild,
// mirroring WithFlight on Build2. Sampling never influences the produced
// tree.
func (s *BuildState) SetFlight(fr *flight.Recorder) {
	s.o.flight = fr
}

// MemoryBytes estimates the state's private resident size (membership,
// cell, and parent arrays; the geometry is counted separately, since shared
// geometries amortize across states). Each cell's member list costs its
// slice header plus its backing array.
func (s *BuildState) MemoryBytes() int64 {
	n := int64(len(s.present)) + 4*int64(len(s.cellOf)+len(s.parent)+len(s.reps)+len(s.cnt1))
	for _, m := range s.members {
		n += sliceHeaderBytes + 4*int64(cap(m))
	}
	return n
}

// sliceHeaderBytes is the size of a slice header: pointer, length, capacity.
const sliceHeaderBytes = int64(unsafe.Sizeof([]int32(nil)))

// ensureSlot grows the slot-indexed arrays to cover slot. Only an owning
// state may grow its geometry; a shared state's slots are fixed at
// construction.
func (s *BuildState) ensureSlot(slot int) {
	if s.shared {
		if slot >= s.geo.Slots() {
			panic(fmt.Sprintf("core: slot %d outside the shared geometry's %d slots", slot, s.geo.Slots()))
		}
		return
	}
	for len(s.present) <= slot {
		s.geo.hosts = append(s.geo.hosts, geom.Point2{})
		s.geo.pts = append(s.geo.pts, geom.Polar{})
		s.present = append(s.present, false)
		s.cellOf = append(s.cellOf, -1)
		s.parent = append(s.parent, unattachedNode)
	}
}

// Add registers a new member at the given slot with an explicit position.
// Slots must be >= 1 (0 is the source) and not currently present. States
// borrowing a shared geometry must use AddSlot instead.
func (s *BuildState) Add(slot int, p geom.Point2) {
	if s.shared {
		panic("core: BuildState.Add on shared geometry (immutable positions; use AddSlot)")
	}
	if slot <= 0 {
		panic(fmt.Sprintf("core: BuildState.Add slot %d out of range", slot))
	}
	s.ensureSlot(slot)
	if s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.Add slot %d already present", slot))
	}
	s.geo.hosts[slot-1] = p
	s.geo.pts[slot] = p.PolarAround(s.geo.source)
	s.addLive(slot)
}

// AddSlot registers the member at a slot whose position the geometry
// already holds — the only join path for shared-geometry states, where
// slot h+1 is host h of the substrate the geometry was built over.
func (s *BuildState) AddSlot(slot int) {
	if slot <= 0 || slot >= s.geo.Slots() {
		panic(fmt.Sprintf("core: BuildState.AddSlot slot %d outside the geometry's %d slots", slot, s.geo.Slots()))
	}
	s.ensureSlot(slot)
	if s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.AddSlot slot %d already present", slot))
	}
	s.addLive(slot)
}

// addLive makes a slot (whose geometry is in place) live, maintaining the
// incremental bookkeeping.
func (s *BuildState) addLive(slot int) {
	c := s.geo.pts[slot]
	s.present[slot] = true
	s.n++
	s.last = nil
	if !s.built || s.needFull {
		return
	}
	if c.R > s.scale {
		// The grid scale is the outermost radius: it just grew, which moves
		// every dividing circle.
		s.needFull = true
		return
	}
	cell := s.g.CellOf(c)
	s.members[cell] = insertSorted(s.members[cell], int32(slot))
	s.cellOf[slot] = int32(cell)
	if ring, _ := grid.RingIdx(cell); ring > 0 && ring < s.k && len(s.members[cell]) == 1 {
		s.emptyK--
	}
	c1 := s.g1.CellOf(c)
	if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
		if s.cnt1[c1] == 0 {
			s.empty1--
		}
		s.cnt1[c1]++
	}
	s.dirty[cell] = struct{}{}
}

// Remove unregisters the member at the given slot.
func (s *BuildState) Remove(slot int) {
	if slot <= 0 || slot >= len(s.present) || !s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.Remove slot %d not present", slot))
	}
	s.present[slot] = false
	s.n--
	s.last = nil
	if !s.built || s.needFull {
		return
	}
	c := s.geo.pts[slot]
	if c.R == s.scale {
		// The outermost member left; the scale (and with it every cell
		// boundary) may shrink.
		s.needFull = true
		return
	}
	cell := int(s.cellOf[slot])
	s.members[cell] = removeSorted(s.members[cell], int32(slot))
	s.cellOf[slot] = -1
	if ring, _ := grid.RingIdx(cell); ring > 0 && ring < s.k && len(s.members[cell]) == 0 {
		s.emptyK++
	}
	c1 := s.g1.CellOf(c)
	if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
		s.cnt1[c1]--
		if s.cnt1[c1] == 0 {
			s.empty1++
		}
	}
	s.dirty[cell] = struct{}{}
}

// kChanged reports whether a from-scratch build over the current membership
// would pick a different k: the current depth became infeasible, the depth
// ceiling dropped below it, or depth k+1 became both feasible and allowed.
// Feasibility is downward-closed (the grids nest), so checking k and k+1
// suffices.
func (s *BuildState) kChanged() bool {
	if s.emptyK > 0 {
		return true
	}
	kMaxNow := s.o.kMax
	if kMaxNow <= 0 {
		kMaxNow = grid.DefaultKMax(s.n)
	}
	if s.k > kMaxNow {
		return true
	}
	return s.k < kMaxNow && s.empty1 == 0
}

// Rebuild returns the tree over the current membership, exactly as Build2
// would build it from scratch. The boolean reports whether a full rebuild
// ran (true) or the dirty-cell incremental path / the unchanged-membership
// cache (false). The first call after construction is always full. Like
// Build2's, a full rebuild's tree builds its child adjacency lazily: call
// Tree.Prepare before sharing it across goroutines.
func (s *BuildState) Rebuild() (*Result, bool, error) {
	if s.last != nil {
		return s.last, false, nil
	}
	s.o.obs.Gauge("build/workers").Set(1)
	in := newInstr(s.o, 2, s.n)
	defer in.finish()
	full := true
	var res *Result
	var err error
	switch {
	case !s.built || s.needFull:
		res, err = s.rebuildFull(in)
	case s.o.forceK > 0 && s.emptyK > 0:
		return nil, false, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", s.o.forceK)
	case s.o.forceK == 0 && s.kChanged():
		res, err = s.rebuildFull(in)
	default:
		full = false
		res, err = s.rebuildIncremental(in)
	}
	if err != nil {
		return nil, full, err
	}
	s.last = res
	return res, full, nil
}

// nodeSlots returns the exported tree's dense node id -> slot mapping: the
// source's slot 0, then the live slots in ascending order.
func (s *BuildState) nodeSlots() []int32 {
	slotOf := make([]int32, 1, s.n+1)
	for sl := 1; sl < len(s.present); sl++ {
		if s.present[sl] {
			slotOf = append(slotOf, int32(sl))
		}
	}
	return slotOf
}

// rebuildFull runs Build2's pipeline (buildPolar), serially, over the live
// slots' stored polars gathered into a dense slice, then, in its
// build/export phase, derives the retained state from the pipeline's
// outputs: slot-space cell lists, representatives and parents, plus the
// depth-k+1 occupancy counters. Dead slots keep their stale cellOf entries.
func (s *BuildState) rebuildFull(in instr) (*Result, error) {
	endConv := in.phase("build/convert")
	slotOf := s.nodeSlots()
	pts := s.geo.pts
	polars := make([]geom.Polar, len(slotOf))
	scale, err := convertCoords(1, len(slotOf)-1, func(i int) float64 {
		polars[i+1] = pts[slotOf[i+1]]
		return polars[i+1].R
	})
	endConv()
	if err != nil {
		return nil, err
	}
	s.scale = scale

	res := &Result{Dim: 2, Variant: s.variant, MaxOutDegree: s.degCap, Scale: scale}
	dist := func(i, j int) float64 { return s.geo.pos(slotOf[i]).Dist(s.geo.pos(slotOf[j])) }
	in.node = slotOf // trace events name slots, as incremental rebuilds do
	cellOf, reps, err := buildPolar(res, s.o, 1, polars, dist, in)
	if err != nil {
		return nil, err
	}
	clear(s.dirty)
	s.cert = Certificate{Bound: res.Bound, Radius: res.Radius}
	if cellOf == nil {
		// Degenerate geometry: stay unbuilt so the next rebuild re-evaluates
		// from scratch (there is no grid state worth retaining).
		s.built, s.needFull = false, false
		return res, nil
	}

	endExp := in.phase("build/export")
	s.k = res.K
	s.g = grid.PolarGrid{K: s.k, Scale: scale}
	s.g1 = grid.PolarGrid{K: s.k + 1, Scale: scale}
	s.members = make([][]int32, grid.NumCells(s.k))
	s.cnt1 = make([]int32, grid.NumCells(s.k+1))
	for i, cell := range cellOf {
		sl := slotOf[i+1]
		s.cellOf[sl] = cell
		s.members[cell] = append(s.members[cell], sl) // slots ascend, so lists stay sorted
		c1 := s.g1.CellOf(pts[sl])
		if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
			s.cnt1[c1]++
		}
	}
	s.emptyK = 0 // k is feasible by construction
	s.empty1 = 0
	for id := 1; id < grid.CellID(s.g1.K, 0); id++ { // interior cells of depth k+1
		if s.cnt1[id] == 0 {
			s.empty1++
		}
	}
	for c, r := range reps {
		if r >= 0 {
			reps[c] = slotOf[r]
		}
	}
	s.reps = reps
	for i := range s.parent {
		s.parent[i] = unattachedNode
	}
	s.parent[0] = tree.NoParent
	for v := 1; v < len(slotOf); v++ {
		s.parent[slotOf[v]] = slotOf[res.Tree.Parent(v)]
	}
	endExp()
	s.built, s.needFull = true, false
	return res, nil
}

// rebuildIncremental re-runs representative selection and wiring for the
// dirty cells and their ancestor chain only; every other cell's edges are
// left exactly as the previous build wired them.
func (s *BuildState) rebuildIncremental(in instr) (*Result, error) {
	endMark := in.phase("build/dirty")
	// Close the dirty set over cell ancestors: a membership change in a cell
	// can move its representative, which its parent cell attaches; the
	// parent's rewiring can move the parent's relay choice, and so on up to
	// ring 0.
	inS := make(map[int]struct{}, 2*len(s.dirty)+1)
	var cells []int
	for d := range s.dirty {
		for c := d; ; {
			if _, ok := inS[c]; ok {
				break
			}
			inS[c] = struct{}{}
			cells = append(cells, c)
			if c == 0 {
				break
			}
			ring, idx := grid.RingIdx(c)
			c = grid.CellID(ring-1, grid.ParentCell(idx))
		}
	}
	sort.Ints(cells)
	// Reset exactly the parents the rewiring will reassign: all members of
	// the affected cells, plus the representatives of their out-of-set child
	// cells (attached by the affected parent, wired inside the clean child).
	for _, c := range cells {
		for _, sl := range s.members[c] {
			s.parent[sl] = unattachedNode
		}
		ring, idx := grid.RingIdx(c)
		if ring < s.k {
			c1, c2 := grid.ChildCells(idx)
			for _, ch := range [2]int{grid.CellID(ring+1, c1), grid.CellID(ring+1, c2)} {
				if _, ok := inS[ch]; ok {
					continue
				}
				if r := s.reps[ch]; r >= 0 {
					s.parent[r] = unattachedNode
				}
			}
		}
	}
	s.parent[0] = tree.NoParent
	endMark()
	in.obs.Gauge("build/dirty_cells").Set(float64(len(cells)))

	sink := &parentSink{parents: s.parent}
	conn := &conn2{ctx: &bisect.Ctx2{B: sink, Pts: s.geo.pts}, g: s.g}
	endReps := in.phase("build/reps")
	for _, c := range cells {
		if c != 0 {
			s.reps[c] = repOf(s.members[c], c, conn)
		}
	}
	endReps()
	endWire := in.phase("build/wire")
	var scratch []int32
	for _, c := range cells {
		scratch = append(scratch[:0], s.members[c]...)
		wireCellMembers(sink, s.k, c, scratch, s.reps, conn, s.variant, in)
	}
	endWire()
	clear(s.dirty)
	res := &Result{Dim: 2, Variant: s.variant, MaxOutDegree: s.degCap, Scale: s.scale}
	return s.exportResult(in, res, s.nodeSlots())
}

// exportResult compacts the slot-space parent array into a dense validated
// tree over slotOf (nodeSlots) and computes the Result metrics with a walk
// of that tree.
func (s *BuildState) exportResult(in instr, res *Result, slotOf []int32) (*Result, error) {
	endExp := in.phase("build/export")
	rank := make([]int32, len(s.present))
	for v, sl := range slotOf {
		rank[sl] = int32(v)
	}
	parents := make([]int32, len(slotOf))
	parents[0] = tree.NoParent
	for v := 1; v < len(slotOf); v++ {
		p := s.parent[slotOf[v]]
		if p < 0 {
			return nil, fmt.Errorf("core: incomplete wiring (bug): slot %d unattached", slotOf[v])
		}
		parents[v] = rank[p]
	}
	t, err := tree.FromParents(0, parents, s.degCap)
	if err != nil {
		return nil, fmt.Errorf("core: incomplete wiring (bug): %w", err)
	}
	res.Tree = t
	endExp()

	endMetrics := in.phase("build/metrics")
	delays := t.Delays(func(i, j int) float64 { return s.geo.pos(slotOf[i]).Dist(s.geo.pos(slotOf[j])) })
	res.K = s.k
	res.Radius = maxOf(delays)
	var cd float64
	for _, r := range s.reps {
		if r >= 0 {
			if d := delays[rank[r]]; d > cd {
				cd = d
			}
		}
	}
	res.CoreDelay = cd
	res.Bound = s.g.UpperBound(arcCoeff(s.variant))
	s.cert = Certificate{Bound: res.Bound, Radius: res.Radius}
	endMetrics()
	return res, nil
}

func insertSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func removeSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return append(a[:i], a[i+1:]...)
}
