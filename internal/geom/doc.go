// Package geom provides the Euclidean and polar geometry primitives used
// throughout the library: fixed-dimension point types (2-D and 3-D), a
// general d-dimensional vector type, polar and hyperspherical coordinates,
// ring segments and hyperspherical cells (the grid-cell shapes of the
// Polar_Grid algorithm), convex hulls, and the surface-measure math needed to
// split hyperspherical cells into equal-measure halves in dimension d >= 3.
//
// Conventions:
//
//   - 2-D polar coordinates are (R, Theta) with Theta normalized to [0, 2*pi).
//   - d-dimensional hyperspherical coordinates (Hyperspherical, d >= 2) are
//     stored flat, one float64 per axis: R, the azimuth Theta in
//     [0, 2*pi), then for d >= 3 U = cos(Phi[0]) in [-1, 1] and the polar
//     angles Phi[1..d-3] in [0, pi]. Phi[m] carries surface measure
//     proportional to sin(Phi[m])^(m+1) d Phi[m]; for m = 0 that is uniform
//     in U, so equal-measure splits of Theta and U are midpoints, while
//     splits along Phi[m], m >= 1, invert the incomplete sine-power
//     integral. At d = 3, (R, Theta, U) are the usual spherical
//     coordinates.
//   - A CellD bounds every axis of that layout, interleaved: lower and upper
//     bound of axis a at indices 2a and 2a+1.
package geom
