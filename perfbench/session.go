package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"

	"omtree"
)

// sessionWorkload is one live overlay session over a lossy control plane:
// grow by n joins, Rebuild (freezing the eq. 7 certificate), Optimize,
// attach a seeded drift model, then rounds of churn (half Leave, half
// Join) each followed by a MaintenanceRound, then WriteSnapshot into
// memory and RestoreBytes. Every iteration replays the same inputs, so
// every iteration must end in the same state.
type sessionWorkload struct {
	n, rounds, churn int
	k                int
	faultSeed        uint64
	driftSeed        uint64
	grow             []omtree.Point2 // the n growth joins
	churnJoins       []omtree.Point2 // rounds*churn/2 churn joins
	picks            []uint64        // rounds*churn/2 leave picks, reduced modulo the live count
	input            uint64

	ids  []int
	blob bytes.Buffer

	// The most recent iteration's state.
	o, restored *omtree.Overlay
	plane       *omtree.FaultPlane
	cert        omtree.TreeCertificate
}

const (
	sessionLoss   = 0.01 // control-message loss rate of the fault plane
	sessionDegree = 6
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newSession(n, rounds, churn int, seed uint64) *sessionWorkload {
	r := omtree.NewRand(seed)
	w := &sessionWorkload{
		n: n, rounds: rounds, churn: churn,
		k:         omtree.SuggestOverlayK(n),
		faultSeed: r.Uint64(),
		driftSeed: r.Uint64(),
		grow:      r.UniformDiskN(n, 1),
	}
	half := rounds * churn / 2
	w.churnJoins = r.UniformDiskN(half, 1)
	w.picks = make([]uint64, half)
	for i := range w.picks {
		w.picks[i] = r.Uint64()
	}
	h := newSum()
	h.word(w.faultSeed)
	h.word(w.driftSeed)
	for _, p := range w.grow {
		h.floats(p.X, p.Y)
	}
	for _, p := range w.churnJoins {
		h.floats(p.X, p.Y)
	}
	for _, u := range w.picks {
		h.word(u)
	}
	w.input = uint64(h)
	w.ids = make([]int, 0, n+half)
	return w
}

func (w *sessionWorkload) nodes() int            { return w.n }
func (w *sessionWorkload) inputChecksum() uint64 { return w.input }

func (w *sessionWorkload) callsPerIteration() [numKinds]int {
	var c [numKinds]int
	c[kJoin] = w.n + len(w.churnJoins)
	c[kLeave] = len(w.picks)
	c[kRebuild], c[kOptimize], c[kSnapshot], c[kRestore] = 1, 1, 1, 1
	c[kMaintenance] = w.rounds
	return c
}

// join and leave run one member operation. A failed call is counted, not
// fatal: the session carries on without that member change.
func (w *sessionWorkload) join(r *recorder, o *omtree.Overlay, p omtree.Point2) {
	t := r.begin(kJoin)
	id, _, err := o.Join(p)
	r.end(kJoin, t)
	if err != nil {
		r.failed++
		return
	}
	w.ids = append(w.ids, id)
}

func (w *sessionWorkload) leave(r *recorder, o *omtree.Overlay, pick uint64) {
	i := int(pick % uint64(len(w.ids)))
	id := w.ids[i]
	w.ids[i] = w.ids[len(w.ids)-1]
	w.ids = w.ids[:len(w.ids)-1]
	t := r.begin(kLeave)
	_, err := o.Leave(id)
	r.end(kLeave, t)
	if err != nil {
		r.failed++
	}
}

// call runs one session-level call under its span. Traced, the session
// registry is read around it so the build/* phases inside attach to the
// span, and when allocMetric is named the call's heap allocations are
// recorded under it.
func call(r *recorder, k callKind, reg *omtree.Observer, allocMetric string, f func() error) error {
	var before phaseSet
	var m0 runtime.MemStats
	if r.traced {
		before = phaseTotals(reg)
		if allocMetric != "" {
			runtime.ReadMemStats(&m0)
		}
	}
	t := r.begin(k)
	err := f()
	r.end(k, t)
	if r.traced {
		if allocMetric != "" {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			r.extra(allocMetric, float64(m1.Mallocs-m0.Mallocs))
		}
		after := phaseTotals(reg)
		for i := range after {
			after[i] -= before[i]
		}
		r.attach(t, after)
	}
	if err != nil {
		r.failed++
		return fmt.Errorf("%s: %w", kindNames[k], err)
	}
	return nil
}

func (w *sessionWorkload) iterate(r *recorder) error {
	plane, err := omtree.NewFaultPlane(omtree.FaultScenario{Seed: w.faultSeed, LossRate: sessionLoss})
	if err != nil {
		return err
	}
	o, err := omtree.NewOverlay(omtree.OverlayConfig{
		Scale: 1, K: w.k, MaxOutDegree: sessionDegree,
		Transport: plane, Faults: omtree.DefaultOverlayFaultConfig(),
		Drift: omtree.OverlayDriftConfig{
			ReestimatePeriod: 1, DegradationThreshold: 1.02, Policy: omtree.OverlayRepairLocal,
		},
	})
	if err != nil {
		return err
	}
	var reg *omtree.Observer
	if r.traced {
		reg = omtree.NewObserver()
		o.Observe(reg)
		plane.Observe(reg)
	}
	w.ids = w.ids[:0]
	for _, p := range w.grow {
		w.join(r, o, p)
	}
	if err := call(r, kRebuild, reg, "core.allocs_per_build", func() error { _, err := o.Rebuild(); return err }); err != nil {
		return err
	}
	cert := o.Certificate()
	if err := call(r, kOptimize, reg, "protocol.optimize_allocs", func() error { _, err := o.Optimize(); return err }); err != nil {
		return err
	}
	drift, err := omtree.NewDriftModel(omtree.DriftModelConfig{
		Seed: w.driftSeed, JumpRate: 0.002, JumpMean: 0.15, InflationPerEpoch: 0.05, Bound: 0.99,
	})
	if err != nil {
		return err
	}
	if err := o.SetDrift(drift); err != nil {
		return err
	}
	half := w.churn / 2
	for round := 0; round < w.rounds; round++ {
		for j := 0; j < half; j++ {
			w.leave(r, o, w.picks[round*half+j])
			w.join(r, o, w.churnJoins[round*half+j])
		}
		if err := call(r, kMaintenance, reg, "", func() error { _, err := o.MaintenanceRound(); return err }); err != nil {
			return err
		}
	}
	w.blob.Reset()
	if err := call(r, kSnapshot, reg, "snapshot.encode_allocs", func() error { return o.WriteSnapshot(&w.blob) }); err != nil {
		return err
	}
	var restored *omtree.Overlay
	if err := call(r, kRestore, reg, "snapshot.decode_allocs", func() error {
		var err error
		restored, err = omtree.RestoreOverlayBytes(w.blob.Bytes())
		return err
	}); err != nil {
		return err
	}
	if r.traced {
		r.extra("core.dirty_cells", gauge(reg, "build/dirty_cells"))
	}
	w.o, w.restored, w.plane, w.cert = o, restored, plane, cert
	return nil
}

func (w *sessionWorkload) release() { w.o, w.restored, w.plane = nil, nil, nil }

// verify runs the full output checks on the most recent session: the
// Rebuild tree met its eq. 7 bound, the final overlay passes Audit, the
// message accounting identity holds, and the snapshot restores into a
// session whose re-encode is byte-identical.
func (w *sessionWorkload) verify() error {
	if !(w.cert.Radius > 0 && w.cert.Radius <= w.cert.Bound) {
		return fmt.Errorf("rebuilt radius %v outside (0, eq. 7 bound %v]", w.cert.Radius, w.cert.Bound)
	}
	if err := w.o.Audit(); err != nil {
		return fmt.Errorf("audit after the last round: %w", err)
	}
	st := w.o.Stats
	if st.Attempts != st.AttemptsDelivered+st.MessagesLost {
		return fmt.Errorf("accounting: Attempts %d != AttemptsDelivered %d + MessagesLost %d",
			st.Attempts, st.AttemptsDelivered, st.MessagesLost)
	}
	if _, ok := w.o.CertificateRatio(); !ok {
		return errors.New("no certificate armed after Rebuild")
	}
	// A restore counts itself in Stats.Restores; undo that one bump so the
	// re-encode must reproduce the original bytes exactly.
	w.restored.Stats.Restores--
	var again bytes.Buffer
	err := w.restored.WriteSnapshot(&again)
	w.restored.Stats.Restores++
	if err != nil {
		return fmt.Errorf("re-encode: %w", err)
	}
	w.restored.Stats.SnapshotWrites-- // leave the restored session as it was
	if !bytes.Equal(again.Bytes(), w.blob.Bytes()) {
		return fmt.Errorf("snapshot round trip: re-encode of %d bytes differs from the %d-byte original",
			again.Len(), w.blob.Len())
	}
	return nil
}

// checksum fingerprints the most recent session by its snapshot, which
// holds the whole state: tree, membership, drift, and every counter.
func (w *sessionWorkload) checksum() uint64 {
	return uint64(crc32.Checksum(w.blob.Bytes(), castagnoli))
}

// outputs reports the deterministic results of the most recent session.
func (w *sessionWorkload) outputs() map[string]float64 {
	st, ps := w.o.Stats, w.plane.Stats
	radius, _ := w.o.Radius()
	ratio, _ := w.o.CertificateRatio()
	memberOps := st.Joins + st.Leaves
	return map[string]float64{
		"radius":                          radius,
		"cert_ratio":                      ratio,
		"grid.rings":                      float64(w.k),
		"protocol.messages_per_member_op": float64(st.JoinMessages+st.LeaveMessages) / float64(memberOps),
		"protocol.join_messages":          float64(st.JoinMessages),
		"protocol.leave_messages":         float64(st.LeaveMessages),
		"protocol.maintenance_messages":   float64(st.MaintenanceMessages),
		"protocol.retries":                float64(st.Retries),
		"protocol.timeouts":               float64(st.Timeouts),
		"protocol.delivered_ratio":        float64(st.AttemptsDelivered) / float64(st.Attempts),
		"protocol.local_repairs":          float64(st.LocalRepairs),
		"protocol.full_rebuild_fallbacks": float64(st.FullRebuildFallbacks),
		"protocol.false_confirms":         float64(st.FalseConfirms),
		"coords.drifted_nodes":            float64(st.DriftedNodes),
		"faultplane.loss_ratio":           float64(ps.Lost) / float64(ps.Attempts),
		"snapshot.blob_bytes":             float64(w.blob.Len()),
	}
}
