// Package grid implements the hierarchical equal-measure grids at the heart
// of the Polar_Grid algorithm (paper §III-A, §IV-B):
//
//   - PolarGrid: the 2-D polar grid over a disk — k dividing circles at radii
//     scale/sqrt(2)^(k-i) produce k+1 "rings" (ring 0 is the inner disk, ring
//     i >= 1 an annulus), with ring i divided into 2^i equal-area segments,
//     each aligned with exactly two segments of ring i+1.
//   - GridD: the grid of any dimension d >= 2, the 3-D grid of Figure 8
//     included — shell radii grow by 2^(1/d), so each shell doubles the
//     enclosed volume, and cells split cycling through the d-1 angular
//     axes: the azimuth and the cosine u of the first polar angle at their
//     midpoints (the surface measure is uniform in both), each further
//     polar angle at the equal-measure point of its sin^p weight, tabulated
//     once per grid. Cells are named by their split path and never
//     materialized, so point assignment and Cell both walk O(k) levels.
//
// Both share the cell numbering: ring/shell i holds 2^i cells, cell j
// of ring i is aligned with cells 2j and 2j+1 of ring i+1, and the global
// cell id of (ring i, index j) is 2^i - 1 + j.
//
// The grids do not own points; they map already-computed polar or
// hyperspherical coordinates to cell ids. MaxFeasibleK and MaxFeasibleKD
// select the deepest grid whose interior cells (rings 1..k-1 — ring 0 is
// covered by the source, and the outermost ring is exempted by the paper's
// property 3) are all occupied.
package grid
