package core

import "omtree/internal/tree"

// Result is the outcome of a Polar_Grid build. Node 0 of the tree is the
// source; node i >= 1 is receivers[i-1] of the Build call.
type Result struct {
	// Tree is the validated multicast tree. Its child adjacency is built
	// lazily, by the first Children, BFSOrder or Delays call (the build
	// computes its metrics during wiring and does not walk the finished
	// tree); call Tree.Prepare before sharing it across goroutines.
	Tree *tree.Tree

	// Dim is the Euclidean dimension of the build.
	Dim int
	// Variant records which wiring was used.
	Variant Variant
	// MaxOutDegree is the degree cap enforced during construction (6, 10,
	// 2^d+2 for the natural variant; 2 for the binary variant).
	MaxOutDegree int

	// K is the number of grid rings chosen (0 when the grid degenerated:
	// fewer than one receiver, or all receivers coincident with the source).
	K int
	// Scale is the grid's outer radius — the distance from the source to
	// the farthest receiver.
	Scale float64

	// Radius is the realized maximum sender-to-receiver delay (the paper's
	// "Delay" column).
	Radius float64
	// CoreDelay is the longest source-to-representative path (the paper's
	// "Core" column).
	CoreDelay float64
	// Bound is the paper's upper bound (7) evaluated at j = 0, with the arc
	// coefficient 2 for the natural variant and 4 for the binary variant
	// (the paper's "Bound" column). Zero when the grid degenerated.
	Bound float64
}
