package bisect

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

// treeSum fingerprints a standalone build: an FNV-1a hash of the parent
// array, then the float64 bits of the path bound and the lower bound.
func treeSum(tr *tree.Tree, pathBound, lowerBound float64) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range tr.Parents() {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x path=%016x lower=%016x", h.Sum64(),
		math.Float64bits(pathBound), math.Float64bits(lowerBound))
}

// frozenTree3Inputs lists the pinned standalone 3-D inputs: uniform
// unit-ball points at several sizes (source at index 0) plus a set of
// coincident points, each at out-degrees 2 and 8.
func frozenTree3Inputs() []struct {
	name string
	pts  []geom.Point3
	deg  int
} {
	var in []struct {
		name string
		pts  []geom.Point3
		deg  int
	}
	sets := map[string][]geom.Point3{}
	for _, n := range []int{2, 3, 10, 200, 5000} {
		sets[fmt.Sprintf("n%d", n)] = rng.New(uint64(500+n)).UniformBall3N(n, 1)
	}
	base := rng.New(501).UniformBall3N(5, 1)
	var coinc []geom.Point3
	for i := 0; i < 300; i++ {
		coinc = append(coinc, base[i%len(base)])
	}
	sets["coincident"] = coinc
	for _, name := range []string{"n2", "n3", "n10", "n200", "n5000", "coincident"} {
		for _, deg := range []int{2, 8} {
			in = append(in, struct {
				name string
				pts  []geom.Point3
				deg  int
			}{fmt.Sprintf("%s/deg%d", name, deg), sets[name], deg})
		}
	}
	return in
}

// frozenTree3 holds the fingerprints of frozenTree3Inputs, recorded from
// the dedicated 3-D standalone Bisection before it was folded into
// BuildTreeD, which must reproduce them at d = 3.
var frozenTree3 = map[string]string{
	"n2/deg2":         "4ebaad864bc6f2e1 path=402e2d8c22c49bcb lower=3ff5034e57e0ab43",
	"n2/deg8":         "4ebaad864bc6f2e1 path=400e77168de328c6 lower=3ff5034e57e0ab43",
	"n3/deg2":         "b18e3186e4a1cd71 path=402e02851a996759 lower=3ff5a3c81a61be28",
	"n3/deg8":         "b18e3186e4a1cd71 path=40124a7f2683993c lower=3ff5a3c81a61be28",
	"n10/deg2":        "33d3bd52d8be19b5 path=40397ac5ea43537b lower=3ffa16fcddfed885",
	"n10/deg8":        "d82e0fa0dcf5bfaa path=401de33a8b6bb6be lower=3ffa16fcddfed885",
	"n200/deg2":       "d29ab6f6342dbf4f path=404262ce75232f04 lower=3ffe1ad7bb4306c8",
	"n200/deg8":       "dfe56e4939f63da4 path=40246914a2b157ba lower=3ffe1ad7bb4306c8",
	"n5000/deg2":      "a8c52665bb700159 path=4043d0bd869c05b0 lower=3ffa968be318ca56",
	"n5000/deg8":      "ee92dbbe092ed146 path=40260e6f0ee2df00 lower=3ffa968be318ca56",
	"coincident/deg2": "8c4cc451bdb3c6ab path=40349ccfabc67f21 lower=3ff5badd782d977b",
	"coincident/deg8": "407d313ca07f122f path=401751ed5077e754 lower=3ff5badd782d977b",
}

func TestFrozenBuildTree3(t *testing.T) {
	for _, c := range frozenTree3Inputs() {
		tr, rep, err := BuildTreeD(vecs3(c.pts), 0, c.deg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := treeSum(tr, rep.PathBound, rep.LowerBound), frozenTree3[c.name]; got != want {
			t.Errorf("%s: got %q (path %v, lower %v), want %q", c.name, got, rep.PathBound, rep.LowerBound, want)
		}
	}
}

// frozenTreeDInputs lists pinned standalone inputs in the other dimensions
// the library builds: uniform unit-ball points, natural and degree 2.
func frozenTreeDInputs() []struct {
	name string
	pts  []geom.Vec
	deg  int
} {
	var in []struct {
		name string
		pts  []geom.Vec
		deg  int
	}
	for _, d := range []int{2, 4, 5} {
		pts := rng.New(uint64(600+d)).UniformBallDN(1500, d, 1)
		for _, deg := range []int{2, 1 << uint(d)} {
			in = append(in, struct {
				name string
				pts  []geom.Vec
				deg  int
			}{fmt.Sprintf("d%d/deg%d", d, deg), pts, deg})
		}
	}
	return in
}

// frozenTreeD holds the fingerprints of frozenTreeDInputs.
var frozenTreeD = map[string]string{
	"d2/deg2":  "33f5d1a003b659ab path=40252cb478bbb6d8 lower=3ff9c4656df43cb9",
	"d2/deg4":  "00522838df3fd28d path=401734781f6cb3e5 lower=3ff9c4656df43cb9",
	"d4/deg2":  "769489fe25ee09c6 path=405bfad7a4c92fdf lower=3ffcc4b18050100e",
	"d4/deg16": "50eb01ff6dfe5a6a path=402ec8f6355ada82 lower=3ffcc4b18050100e",
	"d5/deg2":  "143a0f805afbc223 path=4071bd0fc05aa7d9 lower=3ff9c2a430dbf14c",
	"d5/deg32": "164d1907b497352b path=4032ddec981acdbf lower=3ff9c2a430dbf14c",
}

func TestFrozenBuildTreeD(t *testing.T) {
	for _, c := range frozenTreeDInputs() {
		tr, rep, err := BuildTreeD(c.pts, 0, c.deg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := treeSum(tr, rep.PathBound, rep.LowerBound), frozenTreeD[c.name]; got != want {
			t.Errorf("%s: got %q (path %v, lower %v), want %q", c.name, got, rep.PathBound, rep.LowerBound, want)
		}
	}
}
