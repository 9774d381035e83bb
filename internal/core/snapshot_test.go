package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/snapshot"
)

// encodeState serializes s with the raw point codec.
func encodeState(s *BuildState) []byte {
	var e snapshot.Encoder
	s.EncodeTo(&e, nil)
	return e.Bytes()
}

// TestBuildStateSnapshotRoundTrip drives a state through churn and
// rebuilds, snapshotting at every step, and checks that the decoded state
// re-encodes byte-identically and that both copies build the same tree
// from then on.
func TestBuildStateSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, err := NewBuildState(geom.Point2{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	live := []int{}
	checkpoint := func(step string) {
		t.Helper()
		blob := encodeState(s)
		got, err := DecodeBuildState(snapshot.NewDecoder(blob), nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", step, err)
		}
		if re := encodeState(got); !bytes.Equal(re, blob) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", step, len(re), len(blob))
		}
		// Both copies must rebuild to the identical tree with the same
		// full/incremental decision.
		r1, full1, err1 := s.Rebuild()
		r2, full2, err2 := got.Rebuild()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: rebuild errs diverge: %v vs %v", step, err1, err2)
		}
		if err1 != nil {
			return
		}
		if full1 != full2 {
			t.Fatalf("%s: full=%v vs %v", step, full1, full2)
		}
		if r1.Radius != r2.Radius || r1.K != r2.K || !treesEqual(r1.Tree, r2.Tree) {
			t.Fatalf("%s: rebuilt trees diverge", step)
		}
		if s.Certificate() != got.Certificate() {
			t.Fatalf("%s: certificates diverge", step)
		}
	}

	checkpoint("empty") // degenerate: no receivers yet

	for step := 0; step < 60; step++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			s.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			p := geom.Point2{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
			s.Add(next, p)
			live = append(live, next)
			next++
		}
		if step%7 == 0 {
			if _, _, err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
		if step%5 == 0 {
			checkpoint("churn")
		}
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkpoint("final")
}

// TestBuildStateSnapshotShared round-trips a state borrowing a shared
// geometry: the substrate is supplied at decode and the encoding carries
// only the per-group delta.
func TestBuildStateSnapshotShared(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	hosts := make([]geom.Point2, 40)
	for i := range hosts {
		hosts[i] = geom.Point2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	geo := NewSlotGeometry(geom.Point2{X: 5, Y: 5}, hosts)
	s, err := NewBuildStateShared(geo)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 30; slot++ {
		s.AddSlot(slot)
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	s.Remove(7)
	s.Remove(19)

	blob := encodeState(s)
	got, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var re snapshot.Encoder
	got.EncodeTo(&re, nil)
	if !bytes.Equal(re.Bytes(), blob) {
		t.Fatal("shared state re-encode differs")
	}
	r1, _, err1 := s.Rebuild()
	r2, _, err2 := got.Rebuild()
	if err1 != nil || err2 != nil {
		t.Fatalf("rebuild: %v / %v", err1, err2)
	}
	if !treesEqual(r1.Tree, r2.Tree) {
		t.Fatal("shared state trees diverge after restore")
	}

	// A shared encoding carries no host table, so it is much smaller than
	// the owned form of the same membership.
	owned, err := NewBuildState(geom.Point2{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 30; slot++ {
		owned.Add(slot, hosts[slot-1])
	}
	if _, _, err := owned.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(encodeState(owned)) {
		t.Errorf("shared encoding (%d bytes) not smaller than owned (%d bytes)", len(blob), len(encodeState(owned)))
	}

	// Decoding with the wrong entry point is a clean error both ways.
	if _, err := DecodeBuildState(snapshot.NewDecoder(blob), nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("shared blob through DecodeBuildState: %v, want ErrCorrupt", err)
	}
	ownedBlob := encodeState(owned)
	if _, err := DecodeBuildStateShared(snapshot.NewDecoder(ownedBlob), geo, nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("owned blob through DecodeBuildStateShared: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), nil, nil); err == nil {
		t.Error("DecodeBuildStateShared with nil geometry succeeded")
	}
}

// TestBuildStateSnapshotCorrupt checks that truncations and targeted
// mutations of a valid payload decode to an error, never a panic, and
// that semantic inconsistencies a checksum cannot catch are rejected.
func TestBuildStateSnapshotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 25; slot++ {
		s.Add(slot, geom.Point2{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4})
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	blob := encodeState(s)

	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := DecodeBuildState(snapshot.NewDecoder(blob[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), blob...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		st, err := DecodeBuildState(snapshot.NewDecoder(mut), nil)
		if err != nil {
			continue
		}
		// A mutation that still decodes must yield a state safe to rebuild
		// (the flip may have landed in a float or a counter).
		if _, _, err := st.Rebuild(); err != nil {
			continue
		}
	}
}

// TestBuildStateSnapshotRejectsTrialK: the retired trial-loop k-search
// flag is always written false; a payload setting it is corrupt.
func TestBuildStateSnapshotRejectsTrialK(t *testing.T) {
	s, err := NewBuildState(geom.Point2{}, WithMaxOutDegree(4), WithKMax(7))
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1, geom.Point2{X: 1})
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	blob := encodeState(s)
	var prefix snapshot.Encoder // maxOutDegree, forceK, kMax precede the flag
	prefix.Int(4)
	prefix.Int(0)
	prefix.Int(7)
	off := len(prefix.Bytes())
	if blob[off] != 0 {
		t.Fatalf("flag byte at %d = %d, want 0", off, blob[off])
	}
	if _, err := DecodeBuildState(snapshot.NewDecoder(blob), nil); err != nil {
		t.Fatalf("valid payload: %v", err)
	}
	blob[off] = 1
	if _, err := DecodeBuildState(snapshot.NewDecoder(blob), nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("trial-k payload: err = %v, want ErrCorrupt", err)
	}
}

func treesEqual(a, b interface{ Parent(int) int }) bool {
	ta, ok1 := a.(interface {
		Parent(int) int
		N() int
	})
	tb, ok2 := b.(interface {
		Parent(int) int
		N() int
	})
	if !ok1 || !ok2 || ta.N() != tb.N() {
		return false
	}
	for i := 0; i < ta.N(); i++ {
		if ta.Parent(i) != tb.Parent(i) {
			return false
		}
	}
	return true
}
