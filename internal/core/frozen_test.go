package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// resultSum fingerprints a build: an FNV-1a hash of the parent array, then
// K and the float64 bits of Radius, CoreDelay and Bound.
func resultSum(res *Result) string {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range res.Tree.Parents() {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x k=%d r=%016x c=%016x b=%016x", h.Sum64(), res.K,
		math.Float64bits(res.Radius), math.Float64bits(res.CoreDelay), math.Float64bits(res.Bound))
}

// checkSum compares a build's fingerprint with its pinned value, decoding
// the float fields on a mismatch so the report reads as numbers.
func checkSum(t *testing.T, name string, res *Result, err error, want string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := resultSum(res); got != want {
		t.Errorf("%s: got %q (radius %v, core %v, bound %v), want %q",
			name, got, res.Radius, res.CoreDelay, res.Bound, want)
	}
}

// parallelism returns the worker option of a frozen build: par workers, or
// for par = 0 none, leaving the default — one worker per CPU above the
// size threshold — so running the tests at several -cpu values checks the
// fingerprints against serial and parallel wiring.
func parallelism(par int) []Option {
	if par == 0 {
		return nil
	}
	return []Option{WithParallelism(par)}
}

// frozen3Input is one pinned 3-D build input.
type frozen3Input struct {
	name   string
	source geom.Point3
	recv   []geom.Point3
	opts   []Option
}

// frozen3Inputs lists the pinned 3-D inputs: uniform unit-ball receivers at
// every size and out-degree variant, a forced grid depth, an off-centre
// source, and coincident points (including receivers on the source).
func frozen3Inputs() []frozen3Input {
	var in []frozen3Input
	sizes := []int{0, 1, 2, 3, 50, 800, 10000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		recv := rng.New(uint64(1000+n)).UniformBall3N(n, 1)
		for _, deg := range []int{2, 4, 6, 10} {
			in = append(in, frozen3Input{
				name: fmt.Sprintf("n%d/deg%d", n, deg),
				recv: recv, opts: []Option{WithMaxOutDegree(deg)},
			})
		}
	}
	recv := rng.New(77).UniformBall3N(3000, 1)
	in = append(in,
		frozen3Input{name: "forcek4", recv: recv, opts: []Option{WithForceK(4)}},
		frozen3Input{name: "forcek4/deg2", recv: recv, opts: []Option{WithForceK(4), WithMaxOutDegree(2)}},
		frozen3Input{name: "offcentre", source: geom.Point3{X: 0.6, Y: -0.3, Z: 0.45}, recv: recv},
		frozen3Input{name: "offcentre/deg2", source: geom.Point3{X: 0.6, Y: -0.3, Z: 0.45}, recv: recv,
			opts: []Option{WithMaxOutDegree(2)}},
	)
	var coinc []geom.Point3
	base := rng.New(78).UniformBall3N(7, 1)
	for i := 0; i < 400; i++ {
		coinc = append(coinc, base[i%len(base)])
	}
	coinc = append(coinc, make([]geom.Point3, 20)...) // on the source
	for _, deg := range []int{2, 10} {
		in = append(in, frozen3Input{
			name: fmt.Sprintf("coincident/deg%d", deg),
			recv: coinc, opts: []Option{WithMaxOutDegree(deg)},
		})
	}
	return in
}

// frozenBuild3 holds the fingerprints of frozen3Inputs, recorded from the
// dedicated 3-D pipeline before it was folded into the d-dimensional one.
var frozenBuild3 = map[string]string{
	"n0/deg2":          "994f76653e2a3951 k=0 r=0000000000000000 c=0000000000000000 b=0000000000000000",
	"n0/deg4":          "994f76653e2a3951 k=0 r=0000000000000000 c=0000000000000000 b=0000000000000000",
	"n0/deg6":          "994f76653e2a3951 k=0 r=0000000000000000 c=0000000000000000 b=0000000000000000",
	"n0/deg10":         "994f76653e2a3951 k=0 r=0000000000000000 c=0000000000000000 b=0000000000000000",
	"n1/deg2":          "4ebaad864bc6f2e1 k=1 r=3fe3b41a50aa8e1a c=3fe3b41a50aa8e1a b=40330a2619884945",
	"n1/deg4":          "4ebaad864bc6f2e1 k=1 r=3fe3b41a50aa8e1a c=3fe3b41a50aa8e1a b=40330a2619884945",
	"n1/deg6":          "4ebaad864bc6f2e1 k=1 r=3fe3b41a50aa8e1a c=3fe3b41a50aa8e1a b=40330a2619884945",
	"n1/deg10":         "4ebaad864bc6f2e1 k=1 r=3fe3b41a50aa8e1a c=3fe3b41a50aa8e1a b=4023a7c6ec0d9db6",
	"n2/deg2":          "ef83bf98fa8061b3 k=1 r=3ff5bbd38c09c13e c=3ff5bbd38c09c13e b=403e9c792ef7360b",
	"n2/deg4":          "b18e3186e4a1cd71 k=1 r=3fefadb80ebfe9d9 c=3fefadb80ebfe9d9 b=403e9c792ef7360b",
	"n2/deg6":          "b18e3186e4a1cd71 k=1 r=3fefadb80ebfe9d9 c=3fefadb80ebfe9d9 b=403e9c792ef7360b",
	"n2/deg10":         "b18e3186e4a1cd71 k=1 r=3fefadb80ebfe9d9 c=3fefadb80ebfe9d9 b=402f99e6ef6d355a",
	"n3/deg2":          "105de1f120c84791 k=1 r=3ff814c63220245e c=3ff814c63220245e b=40337cb4ec0bc165",
	"n3/deg4":          "3a152559d0e95901 k=1 r=3fe42aa7b7ccb82f c=3fe42aa7b7ccb82f b=40337cb4ec0bc165",
	"n3/deg6":          "3a152559d0e95901 k=1 r=3fe42aa7b7ccb82f c=3fe42aa7b7ccb82f b=40337cb4ec0bc165",
	"n3/deg10":         "3a152559d0e95901 k=1 r=3fe42aa7b7ccb82f c=3fe42aa7b7ccb82f b=40241e0a29ca2727",
	"n50/deg2":         "8d3c7e9307cce042 k=3 r=4011094d466abf50 c=400bb2a393ca1f5c b=403b712bbdd88642",
	"n50/deg4":         "0b2f23744a6e0d58 k=3 r=400768df481e6f71 c=40027eaddd7a3612 b=403b712bbdd88642",
	"n50/deg6":         "0b2f23744a6e0d58 k=3 r=400768df481e6f71 c=40027eaddd7a3612 b=403b712bbdd88642",
	"n50/deg10":        "0d5cf786df665ba0 k=3 r=400768df481e6f71 c=40027eaddd7a3612 b=40320db32a46b3fc",
	"n800/deg2":        "a86aa2f829f95085 k=5 r=4013c57eccba98da c=400c41024cb36ad4 b=4035c1d52be9ed4e",
	"n800/deg4":        "2016742965a53481 k=5 r=400fe227f81e382f c=40029e1aba2ee0c6 b=4035c1d52be9ed4e",
	"n800/deg6":        "2016742965a53481 k=5 r=400fe227f81e382f c=40029e1aba2ee0c6 b=4035c1d52be9ed4e",
	"n800/deg10":       "8875bed12d61b84a k=5 r=40082bc7e26212a7 c=40029e1aba2ee0c6 b=402fa7255d9e4691",
	"n10000/deg2":      "21cef1cc54486a3a k=9 r=4008cf2878fb4f0f c=40041dce6f179b83 b=4028499c8c110610",
	"n10000/deg4":      "48bbae87a7f11f55 k=9 r=400109e88000b785 c=3ff9ec8dc8e98efd b=4028499c8c110610",
	"n10000/deg6":      "48bbae87a7f11f55 k=9 r=400109e88000b785 c=3ff9ec8dc8e98efd b=4028499c8c110610",
	"n10000/deg10":     "2d24e1757579db3e k=9 r=3ffdec49babef623 c=3ff9ec8dc8e98efd b=4023933e27967b7a",
	"n100000/deg2":     "b3f7575d770ee112 k=12 r=400044b0df4a2f04 c=3ffb255fd8777bf4 b=401e857dece5c8d4",
	"n100000/deg4":     "e2abeafd3c49ec38 k=12 r=3ff9130b24fc04e8 c=3ff3a4e1c4f8485e b=401e857dece5c8d4",
	"n100000/deg6":     "e2abeafd3c49ec38 k=12 r=3ff9130b24fc04e8 c=3ff3a4e1c4f8485e b=401e857dece5c8d4",
	"n100000/deg10":    "6bbdac2ecf509868 k=12 r=3ff61cf61c62eb70 c=3ff3a4e1c4f8485e b=4019cf1f075bc6a2",
	"forcek4":          "d74c7b8f0cb9ab26 k=4 r=40082f54f575137d c=3ffbd57b9086d96f b=40311586e54c7d33",
	"forcek4/deg2":     "fe4c5e9b9b613bd6 k=4 r=4017776fbe1216e9 c=400554b8ce1108ce b=403890841c1a28d5",
	"offcentre":        "86862ea819b5850d k=3 r=4013bd0d644bd95c c=4004c8508f875180 b=40401e62634a7d3c",
	"offcentre/deg2":   "fd90f69601a8fc3e k=3 r=40249ad35d9d59a4 c=400f75894806a6be b=404880456d76e6c5",
	"coincident/deg2":  "d84ec405156eac15 k=1 r=40009bb55acb9292 c=3fef84629c260574 b=403e74884348e634",
	"coincident/deg10": "b53fe5c5d042780a k=1 r=40009bb55acb9292 c=3fef84629c260574 b=402f70ab582a165f",
}

// TestFrozenBuild3 pins Build3's output on every frozen input, with the
// default worker count, serial and with two workers.
func TestFrozenBuild3(t *testing.T) {
	for _, c := range frozen3Inputs() {
		for _, par := range []int{0, 1, 2} {
			opts := append(parallelism(par), c.opts...)
			res, err := Build3(c.source, c.recv, opts...)
			checkSum(t, fmt.Sprintf("%s/par%d", c.name, par), res, err, frozenBuild3[c.name])
		}
	}
}

// TestBuild3AgreesWithBuildD: BuildD at d = 3 reproduces every frozen
// Build3 fingerprint from geom.Vec inputs, with the default worker count,
// serial and with two workers.
func TestBuild3AgreesWithBuildD(t *testing.T) {
	for _, c := range frozen3Inputs() {
		recv := make([]geom.Vec, len(c.recv))
		for i, p := range c.recv {
			recv[i] = p.Vec()
		}
		for _, par := range []int{0, 1, 2} {
			opts := append(parallelism(par), c.opts...)
			res, err := BuildD(c.source.Vec(), recv, opts...)
			checkSum(t, fmt.Sprintf("%s/par%d", c.name, par), res, err, frozenBuild3[c.name])
		}
	}
}

// frozenDInputs lists the pinned d-dimensional inputs: uniform unit-ball
// receivers in d = 2..5, natural and binary.
func frozenDInputs() []struct {
	name string
	recv []geom.Vec
	deg  int
} {
	var in []struct {
		name string
		recv []geom.Vec
		deg  int
	}
	for d := 2; d <= 5; d++ {
		for _, n := range []int{500, 5000} {
			recv := rng.New(uint64(2000+10*d+n)).UniformBallDN(n, d, 1)
			for _, deg := range []int{2, 1<<uint(d) + 2} {
				in = append(in, struct {
					name string
					recv []geom.Vec
					deg  int
				}{fmt.Sprintf("d%d/n%d/deg%d", d, n, deg), recv, deg})
			}
		}
	}
	return in
}

// frozenBuildD holds the fingerprints of frozenDInputs.
var frozenBuildD = map[string]string{
	"d2/n500/deg2":   "ee55fb81968f29fe k=5 r=3fffafd6fd50dfe4 c=3ffa40343dc2a395 b=401dcd213ae3e90f",
	"d2/n500/deg6":   "4aad0a6fb8eca427 k=5 r=3ff786331f9e4f4d c=3ff2aab1783963ec b=4014eb80a1a5adfa",
	"d2/n5000/deg2":  "f8216bacff1c3d2d k=8 r=3ff5121c14ca5cac c=3ff3a649822a9a39 b=400b78a47c7fae34",
	"d2/n5000/deg6":  "9e9c0a028f435f6c k=8 r=3ff230037ce0b331 c=3ff024f551c8f422 b=400530af9d8bf274",
	"d3/n500/deg2":   "7cedcf4c759d0fcb k=5 r=40145938b7c92529 c=400d25d41ceeba17 b=4035c3ea0fc1671c",
	"d3/n500/deg10":  "8ba7712ae8f2de58 k=5 r=40057422a907fecd c=40028850f6dbb319 b=402faa2ca0f5b684",
	"d3/n5000/deg2":  "733f731128b16b2f k=8 r=400e3395ae520a0b c=4008ea9f298574a5 b=402c48b91e3b7cb9",
	"d3/n5000/deg10": "cac5024e32895611 k=8 r=3fff72349953e819 c=3ffae17698ae604d b=402658d023dae334",
	"d4/n500/deg2":   "ff65a63ce12d8537 k=5 r=401eaeb8b68ff30e c=4014e9f264efb487 b=4043f2099eee6752",
	"d4/n500/deg18":  "be52ede7460ea501 k=5 r=4010877d0c902467 c=4008b007a4b89668 b=403d55056911d84e",
	"d4/n5000/deg2":  "13d4e29f319a7b1a k=8 r=401b62c377097e9a c=401586b34903c2ce b=403fd01650cfe45c",
	"d4/n5000/deg18": "ff2f9e7da683a838 k=8 r=400c9ed1bf3d2b9d c=400822cc1e2bef9f b=403987a4cf358a19",
	"d5/n500/deg2":   "f41a213836071cd3 k=6 r=402332fe18294e80 c=401f163ca1fb121a b=404d4104a094028c",
	"d5/n500/deg34":  "acc4e4a96bc18540 k=6 r=4015ddb79fef3081 c=40128df853a79042 b=40466d0e1408c408",
	"d5/n5000/deg2":  "a27aed02cb527854 k=8 r=40227788373a59e3 c=401b3e67872923da b=404ad45f5e23a09d",
	"d5/n5000/deg34": "0cd25f79e61ae777 k=8 r=401247aecc58e548 c=400f007f6b50215e b=4045a5e2ba560569",
}

// TestFrozenBuildD pins BuildD's output in d = 2..5, with the default
// worker count, serial and with two workers.
func TestFrozenBuildD(t *testing.T) {
	for _, c := range frozenDInputs() {
		src := make(geom.Vec, len(c.recv[0]))
		for _, par := range []int{0, 1, 2} {
			res, err := BuildD(src, c.recv, append(parallelism(par), WithMaxOutDegree(c.deg))...)
			checkSum(t, fmt.Sprintf("%s/par%d", c.name, par), res, err, frozenBuildD[c.name])
		}
	}
}
