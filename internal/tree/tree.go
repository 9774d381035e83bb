// Package tree provides the rooted, degree-constrained multicast tree
// representation shared by every algorithm in this library: a compact
// parent-array tree with lazily built child adjacency, a Builder that
// enforces out-degree caps and top-down construction (which makes cycles
// unrepresentable), tree metrics (radius, depth, weighted diameter), and
// JSON / binary / DOT codecs.
//
// Node identifiers are dense integers in [0, N); geometry is intentionally
// kept out of this package — metrics accept an edge-length callback so that
// the same tree type serves 2-D, 3-D and d-dimensional builds as well as
// delay-matrix-driven trees.
package tree

import (
	"errors"
	"fmt"
)

// NoParent marks the root's entry in the parent array.
const NoParent int32 = -1

// unattached marks nodes not yet wired into the Builder's tree.
const unattached int32 = -2

// Tree is an immutable rooted spanning tree over nodes [0, N). Construct one
// with a Builder or a decoder; the zero value is an empty tree.
type Tree struct {
	root   int32
	parent []int32

	// Lazily built CSR child adjacency and BFS order (see adjacency).
	childStart []int32
	childList  []int32
	bfsOrder   []int32
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root node id.
func (t *Tree) Root() int { return int(t.root) }

// Parent returns the parent of node i, or -1 for the root.
func (t *Tree) Parent(i int) int { return int(t.parent[i]) }

// Parents returns a copy of the parent array.
func (t *Tree) Parents() []int32 {
	return append([]int32(nil), t.parent...)
}

// adjacency builds (once) the CSR representation of children plus a BFS
// order from the root. Trees are built by one goroutine and then read, so no
// locking is needed; Metrics callers that share a tree across goroutines
// should call Prepare first.
func (t *Tree) adjacency() {
	if t.childStart != nil {
		return
	}
	n := len(t.parent)
	counts := make([]int32, n+1)
	for _, p := range t.parent {
		if p >= 0 {
			counts[p+1]++
		}
	}
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i+1] = start[i] + counts[i+1]
	}
	list := make([]int32, n-1)
	fill := append([]int32(nil), start[:n]...)
	for i, p := range t.parent {
		if p >= 0 {
			list[fill[p]] = int32(i)
			fill[p]++
		}
	}

	order := make([]int32, 0, n)
	order = append(order, t.root)
	for head := 0; head < len(order); head++ {
		v := order[head]
		order = append(order, list[start[v]:start[v+1]]...)
	}

	t.childStart = start
	t.childList = list
	t.bfsOrder = order
}

// Prepare forces construction of the internal adjacency so that subsequent
// metric calls are safe to run concurrently. Builders, decoders and
// FromParents return trees whose adjacency is not built yet: the first
// Children, OutDegree, BFSOrder, Delays (or other walk) builds it without
// locking, so a tree shared across goroutines must be prepared before it is
// shared.
func (t *Tree) Prepare() { t.adjacency() }

// Children returns the children of node i. The returned slice aliases
// internal storage and must not be modified.
func (t *Tree) Children(i int) []int32 {
	t.adjacency()
	return t.childList[t.childStart[i]:t.childStart[i+1]]
}

// OutDegree returns the number of children of node i.
func (t *Tree) OutDegree(i int) int {
	t.adjacency()
	return int(t.childStart[i+1] - t.childStart[i])
}

// MaxOutDegree returns the largest out-degree in the tree (0 for a
// single-node tree).
func (t *Tree) MaxOutDegree() int {
	t.adjacency()
	maxDeg := 0
	for i := 0; i < t.N(); i++ {
		if d := int(t.childStart[i+1] - t.childStart[i]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// BFSOrder returns the nodes in breadth-first order from the root. The
// returned slice aliases internal storage and must not be modified.
func (t *Tree) BFSOrder() []int32 {
	t.adjacency()
	return t.bfsOrder
}

// PathToRoot returns the node ids from i up to and including the root.
func (t *Tree) PathToRoot(i int) []int {
	path := []int{i}
	for t.parent[i] >= 0 {
		i = int(t.parent[i])
		path = append(path, i)
	}
	return path
}

// Validate checks structural invariants from scratch — useful after
// decoding: exactly one root matching Root(), all parents in range, and
// every node reaching the root (which rules out cycles). maxOutDegree > 0
// additionally enforces the degree cap.
func (t *Tree) Validate(maxOutDegree int) error {
	n := len(t.parent)
	if n == 0 {
		return errors.New("tree: empty tree")
	}
	if t.root < 0 || int(t.root) >= n {
		return fmt.Errorf("tree: root %d out of range [0, %d)", t.root, n)
	}
	rootSeen := false
	for i, p := range t.parent {
		switch {
		case p == NoParent:
			if int32(i) != t.root {
				return fmt.Errorf("tree: node %d has no parent but is not the root", i)
			}
			rootSeen = true
		case p < 0 || int(p) >= n:
			return fmt.Errorf("tree: node %d has parent %d out of range", i, p)
		case int32(i) == t.root:
			return fmt.Errorf("tree: root %d has parent %d", i, p)
		}
	}
	if !rootSeen {
		return errors.New("tree: no root entry in parent array")
	}
	// Reachability: walk up from every node with path compression into a
	// visited state machine. state: 0 unknown, 1 reaches root, 2 on current
	// path (cycle detection).
	state := make([]int8, n)
	state[t.root] = 1
	var stack []int32
	for i := 0; i < n; i++ {
		v := int32(i)
		stack = stack[:0]
		for state[v] == 0 {
			state[v] = 2
			stack = append(stack, v)
			v = t.parent[v]
		}
		if state[v] == 2 {
			return fmt.Errorf("tree: cycle through node %d", v)
		}
		for _, u := range stack {
			state[u] = 1
		}
	}
	if maxOutDegree > 0 {
		counts := make([]int32, n)
		for _, p := range t.parent {
			if p >= 0 {
				counts[p]++
			}
		}
		for i, c := range counts {
			if int(c) > maxOutDegree {
				return fmt.Errorf("tree: node %d has out-degree %d > %d", i, c, maxOutDegree)
			}
		}
	}
	return nil
}

// DistFunc returns the communication delay (edge length) between two nodes.
type DistFunc func(i, j int) float64

// Delays returns, for every node, the total path length from the root
// (the sender-to-receiver delay of overlay multicast).
func (t *Tree) Delays(dist DistFunc) []float64 {
	t.adjacency()
	delays := make([]float64, t.N())
	for _, v := range t.bfsOrder {
		if p := t.parent[v]; p >= 0 {
			delays[v] = delays[p] + dist(int(p), int(v))
		}
	}
	return delays
}

// Radius returns the maximum sender-to-receiver delay — the objective
// minimized by the paper.
func (t *Tree) Radius(dist DistFunc) float64 {
	var r float64
	for _, d := range t.Delays(dist) {
		if d > r {
			r = d
		}
	}
	return r
}

// Depths returns the hop count from the root for every node.
func (t *Tree) Depths() []int {
	t.adjacency()
	depths := make([]int, t.N())
	for _, v := range t.bfsOrder {
		if p := t.parent[v]; p >= 0 {
			depths[v] = depths[p] + 1
		}
	}
	return depths
}

// Height returns the maximum hop count from the root.
func (t *Tree) Height() int {
	var h int
	for _, d := range t.Depths() {
		if d > h {
			h = d
		}
	}
	return h
}

// WeightedDiameter returns the longest path length between any two nodes of
// the tree (the objective of the minimum-diameter MDDL variant), computed by
// the standard two-pass dynamic program over down-heights.
func (t *Tree) WeightedDiameter(dist DistFunc) float64 {
	t.adjacency()
	n := t.N()
	down := make([]float64, n) // longest downward path starting at v
	order := t.bfsOrder
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, c := range t.Children(int(v)) {
			if h := down[c] + dist(int(v), int(c)); h > down[v] {
				down[v] = h
			}
		}
	}
	var best float64
	for v := 0; v < n; v++ {
		// Combine the two largest child heights through v.
		var first, second float64
		for _, c := range t.Children(v) {
			h := down[c] + dist(v, int(c))
			if h > first {
				first, second = h, first
			} else if h > second {
				second = h
			}
		}
		if first+second > best {
			best = first + second
		}
	}
	return best
}

// Builder constructs a Tree incrementally while enforcing degree caps and
// top-down attachment (a child's parent must already be attached), which
// makes cycles impossible by construction.
type Builder struct {
	parent   []int32
	outDeg   []int32
	maxDeg   int32
	root     int32
	attached int
}

// NewBuilder creates a builder for n nodes rooted at root. maxOutDegree <= 0
// means unconstrained.
func NewBuilder(n, root, maxOutDegree int) (*Builder, error) {
	if n <= 0 {
		return nil, errors.New("tree: builder needs n > 0")
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("tree: root %d out of range [0, %d)", root, n)
	}
	b := &Builder{
		parent: make([]int32, n),
		outDeg: make([]int32, n),
		maxDeg: int32(maxOutDegree),
		root:   int32(root),
	}
	for i := range b.parent {
		b.parent[i] = unattached
	}
	b.parent[root] = NoParent
	b.attached = 1
	return b, nil
}

// N returns the number of nodes.
func (b *Builder) N() int { return len(b.parent) }

// Root returns the root id.
func (b *Builder) Root() int { return int(b.root) }

// Attached reports whether node i has been wired into the tree.
func (b *Builder) Attached(i int) bool { return b.parent[i] != unattached }

// OutDegree returns the current out-degree of node i.
func (b *Builder) OutDegree(i int) int { return int(b.outDeg[i]) }

// ResidualDegree returns how many more children node i may take
// (a large sentinel if unconstrained).
func (b *Builder) ResidualDegree(i int) int {
	if b.maxDeg <= 0 {
		return int(^uint32(0) >> 1)
	}
	return int(b.maxDeg - b.outDeg[i])
}

// Attach wires child under parent. The parent must already be attached, the
// child must not be, and the parent must have residual degree.
func (b *Builder) Attach(child, parent int) error {
	if child == parent {
		return fmt.Errorf("tree: cannot attach node %d to itself", child)
	}
	if child < 0 || child >= len(b.parent) || parent < 0 || parent >= len(b.parent) {
		return fmt.Errorf("tree: attach (%d <- %d) out of range", parent, child)
	}
	if b.parent[child] != unattached {
		return fmt.Errorf("tree: node %d is already attached", child)
	}
	if b.parent[parent] == unattached {
		return fmt.Errorf("tree: parent %d is not attached yet", parent)
	}
	if b.maxDeg > 0 && b.outDeg[parent] >= b.maxDeg {
		return fmt.Errorf("tree: parent %d is at its out-degree cap %d", parent, b.maxDeg)
	}
	b.parent[child] = int32(parent)
	b.outDeg[parent]++
	b.attached++
	return nil
}

// MustAttach is Attach that panics on error; algorithms use it where the
// construction logic guarantees validity and an error indicates a bug.
func (b *Builder) MustAttach(child, parent int) {
	if err := b.Attach(child, parent); err != nil {
		panic(err)
	}
}

// Remaining returns how many nodes are not yet attached.
func (b *Builder) Remaining() int { return len(b.parent) - b.attached }

// Build finalizes the tree. It fails unless every node has been attached.
func (b *Builder) Build() (*Tree, error) {
	if b.attached != len(b.parent) {
		return nil, fmt.Errorf("tree: %d of %d nodes still unattached",
			len(b.parent)-b.attached, len(b.parent))
	}
	t := &Tree{root: b.root, parent: b.parent}
	b.parent = nil // the builder is spent; prevent aliasing mutations
	b.outDeg = nil
	return t, nil
}

// FromParents constructs a Tree directly from a parent array (parent[root]
// must be -1) and validates it. The array is copied.
func FromParents(root int, parents []int32, maxOutDegree int) (*Tree, error) {
	t := &Tree{root: int32(root), parent: append([]int32(nil), parents...)}
	if err := t.Validate(maxOutDegree); err != nil {
		return nil, err
	}
	return t, nil
}

// AvgDelay returns the mean sender-to-receiver delay over all nodes except
// the root. Returns 0 for a single-node tree.
func (t *Tree) AvgDelay(dist DistFunc) float64 {
	if t.N() < 2 {
		return 0
	}
	var sum float64
	for _, d := range t.Delays(dist) {
		sum += d
	}
	return sum / float64(t.N()-1)
}

// DepthHistogram returns counts of nodes per hop depth (index = depth).
func (t *Tree) DepthHistogram() []int {
	depths := t.Depths()
	h := make([]int, t.Height()+1)
	for _, d := range depths {
		h[d]++
	}
	return h
}

// SubtreeSizes returns, for every node, the size of the subtree rooted
// there (including the node itself). The root's entry equals N.
func (t *Tree) SubtreeSizes() []int {
	t.adjacency()
	sizes := make([]int, t.N())
	order := t.bfsOrder
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		sizes[v] = 1
		for _, c := range t.Children(int(v)) {
			sizes[v] += sizes[c]
		}
	}
	return sizes
}

// ForwardingLoad returns, for every node, how many descendants depend on it
// (subtree size minus one): the retransmission burden of overlay multicast.
func (t *Tree) ForwardingLoad() []int {
	sizes := t.SubtreeSizes()
	for i := range sizes {
		sizes[i]--
	}
	return sizes
}
