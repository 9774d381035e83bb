// Package bisect implements the paper's Bisection algorithm (§II): a
// constant-factor approximation for the degree-constrained minimum-radius
// spanning tree of points lying in a ring segment. The segment is split
// recursively by its mid-radius arc and mid-angle ray into four
// sub-segments; each non-empty sub-segment contributes a representative
// (the point whose polar radius is closest to the source's), which attaches
// to the source and becomes the local source of the recursion.
//
// Variants:
//
//   - Connect4: the natural out-degree-4 version (approximation factor 5,
//     Theorem 1). Paths move monotonically in radius, and the angular detour
//     per level is bounded by the shrinking segment angle, giving the path
//     bound max(R-q, q-r) + 2*R*a of inequality (1).
//   - Connect2: the out-degree-2 version (factor 9) — the source first
//     attaches the two points with radius closest to its own, and each of
//     those relays two of the four sub-segments; the angular term doubles
//     (inequality (2)).
//   - CtxD.ConnectFull / CtxD.Connect2 (dimension d >= 2, the 3-D trees of
//     Figure 8 included): cells split along every axis into 2^d sub-cells —
//     the radius and Theta at their midpoints, the cosine U of the first
//     polar angle at its midpoint, and each further polar angle at its
//     equal-measure point — so the natural out-degree is 2^d, and the
//     out-degree-2 version relays the sub-cell representatives through a
//     binary helper tree. Points are read from one flat coordinate array,
//     and each recursion node partitions its slice in place into contiguous
//     buckets with its scratch on the stack.
//
// Standalone entry points (BuildTree, BuildTreeD) cover an arbitrary point
// set with a thin, nearly-flat cell whose polar origin is placed far away —
// far enough that sin(a) > (5/6)a and r > 0.6R, the preconditions of the
// factor-5 proof.
//
// The package attaches nodes into a tree.Builder so that the degree caps
// are machine-checked during construction.
package bisect
