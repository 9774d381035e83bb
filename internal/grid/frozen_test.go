package grid

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// frozenBallPoints is the pinned 3-D input of the cell-id fingerprints:
// 100k uniform unit-ball points.
func frozenBallPoints() []geom.Point3 { return rng.New(4242).UniformBall3N(100000, 1) }

// idsSum is an FNV-1a hash of a cell-id sequence.
func idsSum(ids []int) string {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// frozenSphereCells holds, per depth k, the fingerprint of the cell ids the
// dedicated 3-D sphere grid assigned to frozenBallPoints before it was
// folded into GridD; TestGridD3MatchesSphereGrid3 holds GridD(3) to them.
var frozenSphereCells = map[int]string{
	5:  "4713d7c3ab972b49",
	12: "4c214bbbe127d4f7",
}
