// Package core implements Algorithm Polar_Grid (paper §III–IV), the
// asymptotically optimal construction of degree-constrained minimum-radius
// overlay multicast trees:
//
//  1. Build the deepest equal-measure polar grid whose interior cells are
//     all occupied (grid package).
//  2. Wire a core network over per-cell representatives — the point of each
//     cell closest to the center — as a binary hierarchy rooted at the
//     source: each representative feeds the representatives of the two
//     aligned cells of the next ring.
//  3. Connect the remaining points of every cell with the Bisection
//     constant-factor algorithm (bisect package), using the representative
//     as the local source.
//
// Two wiring variants exist for every dimension: the natural variant
// (out-degree 6 in the plane, 10 in 3-space, 2^d + 2 in dimension d: two
// core links plus a full Bisection fan-out) and the binary variant
// (out-degree 2 everywhere, §IV-A), which routes the two core links through
// dedicated member points of each cell:
//
//   - a cell with only its representative relays the next ring directly;
//   - with one extra member, the member relays the next ring;
//   - with two or more, one member (radius closest to the representative's)
//     becomes the local Bisection source and another (the outermost) relays
//     the next ring.
//
// Two pipelines implement it: Build2's over planar polar coordinates (which
// BuildState's full rebuild shares), and BuildDFunc's in any dimension
// d >= 2 over one flat array of hyperspherical coordinates, which Build3,
// BuildD and multi-group substrates all run.
//
// The same code handles the uniform unit disk of the analysis and the
// general convex region / arbitrary interior source of §IV-C: coordinates
// are taken relative to the source and the grid is scaled to the farthest
// receiver.
//
// Every Build returns a Result carrying the realized maximum delay, the
// core delay (longest source-to-representative portion), the number of
// rings k, and the paper's upper bound (7) evaluated at j = 0 — the
// quantities reported in Table I.
package core
