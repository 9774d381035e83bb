package multigroup

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/knn"
	"omtree/internal/obs"
)

// Substrate is the shared half of a multi-group deployment: the host
// population's coordinates and every derived index that depends only on
// them. Build it once; every GroupTree borrows it read-only. See the
// package comment for the layout and the immutability contract.
type Substrate struct {
	dim  int
	axes [][]float64 // axes[a][h]: struct-of-arrays coordinate storage

	// 2-D derived structures (nil/zero in other dimensions).
	hosts2 []geom.Point2 // dense view; shared with index and every SlotGeometry
	index  *knn.Tree     // all hosts active
	refG   grid.PolarGrid
	refK   int // analytic depth of the centroid-rooted reference bucketing

	mu    sync.Mutex
	views map[geom.Point2]*core.SlotGeometry // per-source polar views, grow-only

	reg     *obs.Registry
	groupID atomic.Int64 // auto-assigned group label suffix
}

// SubstrateOption configures a Substrate.
type SubstrateOption func(*Substrate)

// WithObserver attaches a metrics registry: group churn and rebuild
// counters land there labeled by group id (bounded by the registry's label
// cap). A nil registry (the default) disables collection.
func WithObserver(r *obs.Registry) SubstrateOption {
	return func(s *Substrate) { s.reg = r }
}

// NewSubstrate builds the shared substrate over a 2-D host population. The
// hosts slice is retained and must not be modified afterwards.
func NewSubstrate(hosts []geom.Point2, opts ...SubstrateOption) (*Substrate, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("multigroup: empty host population")
	}
	s := &Substrate{
		dim:    2,
		hosts2: hosts,
		views:  make(map[geom.Point2]*core.SlotGeometry),
	}
	xs := make([]float64, len(hosts))
	ys := make([]float64, len(hosts))
	var cx, cy float64
	for h, p := range hosts {
		xs[h], ys[h] = p.X, p.Y
		cx += p.X
		cy += p.Y
	}
	s.axes = [][]float64{xs, ys}
	var err error
	if s.index, err = knn.New(hosts); err != nil {
		return nil, fmt.Errorf("multigroup: %w", err)
	}
	for h := range hosts {
		s.index.Activate(h)
	}
	// Reference bucketing: the centroid-rooted polar grid at its analytic
	// depth — a population-density summary (how deep any group's grid can
	// hope to go) that costs one classification pass.
	centroid := geom.Point2{X: cx / float64(len(hosts)), Y: cy / float64(len(hosts))}
	polars := make([]geom.Polar, len(hosts))
	var scale float64
	for h, p := range hosts {
		polars[h] = p.PolarAround(centroid)
		if polars[h].R > scale {
			scale = polars[h].R
		}
	}
	if scale > 0 {
		s.refK = grid.MaxFeasibleKAnalytic(polars, scale, grid.DefaultKMax(len(hosts)), 1)
		s.refG = grid.PolarGrid{K: s.refK, Scale: scale}
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// NewSubstrateND builds a substrate over a d-dimensional host population
// given one coordinate slice per axis (all the same length). Axis slices
// are retained. Groups on a non-2-D substrate build via the one-shot
// Build3/BuildD paths; the 2-D-only indexes (k-d tree, polar views) are
// absent.
func NewSubstrateND(axes [][]float64, opts ...SubstrateOption) (*Substrate, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("multigroup: no axes")
	}
	n := len(axes[0])
	if n == 0 {
		return nil, fmt.Errorf("multigroup: empty host population")
	}
	for a, ax := range axes {
		if len(ax) != n {
			return nil, fmt.Errorf("multigroup: axis %d has %d hosts, axis 0 has %d", a, len(ax), n)
		}
	}
	s := &Substrate{dim: len(axes), axes: axes}
	if s.dim == 2 {
		hosts := make([]geom.Point2, n)
		for h := range hosts {
			hosts[h] = geom.Point2{X: axes[0][h], Y: axes[1][h]}
		}
		return NewSubstrate(hosts, opts...)
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// NewSubstrate3 builds a 3-D substrate. The hosts slice is not retained.
func NewSubstrate3(hosts []geom.Point3, opts ...SubstrateOption) (*Substrate, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("multigroup: empty host population")
	}
	xs := make([]float64, len(hosts))
	ys := make([]float64, len(hosts))
	zs := make([]float64, len(hosts))
	for h, p := range hosts {
		xs[h], ys[h], zs[h] = p.X, p.Y, p.Z
	}
	return NewSubstrateND([][]float64{xs, ys, zs}, opts...)
}

// Dim returns the coordinate dimension.
func (s *Substrate) Dim() int { return s.dim }

// Hosts returns the host population size.
func (s *Substrate) Hosts() int { return len(s.axes[0]) }

// ReferenceK returns the analytic grid depth of the centroid-rooted
// reference bucketing (0 for non-2-D substrates or a degenerate
// population) — an upper indication of the depth per-group grids reach.
func (s *Substrate) ReferenceK() int { return s.refK }

// Host2 returns host h's position on a 2-D substrate.
func (s *Substrate) Host2(h int) geom.Point2 { return s.hosts2[h] }

// Coord returns host h's coordinate on the given axis, any dimension.
func (s *Substrate) Coord(axis, h int) float64 { return s.axes[axis][h] }

// NearestHost returns the host nearest q on a 2-D substrate, restricted to
// hosts accept admits (nil accepts all); -1 if none qualify.
func (s *Substrate) NearestHost(q geom.Point2, accept func(h int) bool) int {
	if s.index == nil {
		return -1
	}
	if accept == nil {
		accept = func(int) bool { return true }
	}
	return s.index.Nearest(q, accept)
}

// view returns the (cached) polar geometry around a source, building it on
// first use. Views share the substrate's host slice; only the polar array
// is per-source.
func (s *Substrate) view(source geom.Point2) *core.SlotGeometry {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[source]
	if !ok {
		v = core.NewSlotGeometry(source, s.hosts2)
		s.views[source] = v
	}
	return v
}

// Views returns the number of distinct sources with a cached polar view.
func (s *Substrate) Views() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.views)
}

// Checksum folds every stored coordinate (FNV-1a over the float bits, axes
// in order). The substrate never changes it after construction; the race
// hammer asserts exactly that around concurrent group builds.
func (s *Substrate) Checksum() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, ax := range s.axes {
		for _, v := range ax {
			b := math.Float64bits(v)
			for i := 0; i < 64; i += 8 {
				h = (h ^ (b >> uint(i) & 0xff)) * prime
			}
		}
	}
	return h
}

// MemoryBytes estimates the substrate's resident size: coordinate axes,
// the 2-D derived views (dense points, k-d tree arrays), and every cached
// per-source polar view. Group-private state is counted by the groups.
func (s *Substrate) MemoryBytes() int64 {
	n := int64(0)
	for _, ax := range s.axes {
		n += 8 * int64(len(ax))
	}
	if s.hosts2 != nil {
		n += 16 * int64(len(s.hosts2)) // dense Point2 view
		n += 9 * int64(len(s.hosts2))  // k-d tree: idx(4) + activeCount(4) + active(1)
	}
	s.mu.Lock()
	for _, v := range s.views {
		n += v.MemoryBytes(true) // hosts slice already counted once above
	}
	s.mu.Unlock()
	return n
}
