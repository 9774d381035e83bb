package main

// metricDef describes one reported metric. The two tables below are the
// benchmark's schema: BENCHMARK.json lists the same names, units and
// directions (TestBenchmarkJSONMatchesTables keeps them in step), and a run
// prints exactly endToEnd untraced and exactly perLayer traced.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the median (end-to-end only)
}

// endToEnd holds the metrics a user of the library sees on every workload.
// Each is measured untraced and is never zero on any workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},              // input generation plus one untimed warm-up iteration; median of the run's set-ups
	{"iteration_s", "s", "lower", 0.25},          // median wall time of one closed-loop iteration: a Table I row, a Fig. 8 row, or a whole session
	{"radius", "delay", "lower", 0.15},           // realized maximum delay: the natural-variant tree of the row, or the session tree after its last round
	{"alloc_bytes_per_node", "B", "lower", 0.20}, // bytes allocated per receiver or member in one timed iteration (median over iterations)
	{"live_heap_mb", "MB", "lower", 0.05},        // heap in use after a forced GC while the inputs and the last result or session are held
}

// perLayer holds the traced run's metrics. Build-layer values come from the
// registry's build/* phase spans, protocol and snapshot values from the
// driver's own spans and the session counters. A metric whose layer a
// workload does not exercise reads 0 on that workload. The last group are
// workload-specific user-facing figures (member-operation latency,
// maintenance rounds, checkpoint and restore); they are taken from the
// untraced iterations of the traced run.
var perLayer = []metricDef{
	{"geom.convert_ms", "ms", "lower", 0},                    // build/convert self time per iteration
	{"grid.ksearch_ms", "ms", "lower", 0},                    // build/grid (ring-count search) self time per iteration
	{"grid.bucketing_ms", "ms", "lower", 0},                  // build/bucketing self time per iteration
	{"core.reps_ms", "ms", "lower", 0},                       // build/reps self time per iteration
	{"bisect.wire_ms", "ms", "lower", 0},                     // build/wire self time per iteration
	{"tree.metrics_ms", "ms", "lower", 0},                    // build/metrics self time per iteration
	{"core.build_self_ms", "ms", "lower", 0},                 // build-call time outside the six pipeline phases (incremental dirty/export phases on the session)
	{"bisect.worker_utilization", "ratio", "higher", 0},      // parallel wiring busy time over wall time times workers
	{"grid.rings", "count", "higher", 0},                     // grid ring count K of the natural build (the session's published K)
	{"core.allocs_per_build", "count", "lower", 0},           // heap allocations per Build/Build3D/Rebuild call
	{"protocol.join_us", "us", "lower", 0},                   // median Overlay.Join call
	{"protocol.leave_us", "us", "lower", 0},                  // median Overlay.Leave call
	{"protocol.optimize_ms", "ms", "lower", 0},               // Overlay.Optimize call
	{"protocol.optimize_allocs", "count", "lower", 0},        // heap allocations per Optimize call
	{"protocol.rebuild_ms", "ms", "lower", 0},                // Overlay.Rebuild self time (build/* phases excluded)
	{"protocol.maintenance_ms", "ms", "lower", 0},            // median MaintenanceRound self time (build/* phases excluded)
	{"protocol.messages_per_member_op", "count", "lower", 0}, // join and leave control messages per Join or Leave
	{"protocol.retries", "count", "lower", 0},                // re-sent message attempts per session
	{"protocol.timeouts", "count", "lower", 0},               // exchanges that exhausted their retry budget per session
	{"protocol.delivered_ratio", "ratio", "higher", 0},       // AttemptsDelivered / Attempts
	{"protocol.local_repairs", "count", "lower", 0},          // certificate-triggered dirty-cell repairs per session
	{"protocol.full_rebuild_fallbacks", "count", "lower", 0}, // local repairs escalated to a full rebuild per session
	{"protocol.false_confirms", "count", "lower", 0},         // live members wrongly confirmed dead per session
	{"coords.drifted_nodes", "count", "lower", 0},            // refreshed members whose coordinates had moved per session
	{"core.dirty_cells", "count", "lower", 0},                // cells rewired by the session's last incremental rebuild
	{"faultplane.loss_ratio", "ratio", "lower", 0},           // attempts lost over attempts made; input check, near 0.01
	{"snapshot.blob_bytes", "B", "lower", 0},                 // size of the WriteSnapshot envelope
	{"snapshot.encode_allocs", "count", "lower", 0},          // heap allocations per WriteSnapshot call
	{"snapshot.decode_allocs", "count", "lower", 0},          // heap allocations per RestoreBytes call
	{"harness.self_ms", "ms", "lower", 0},                    // iteration time outside every public call (driver bookkeeping)
	{"harness.trace_overhead_frac", "frac", "lower", 0},      // traced over untraced median iteration time, minus one
	{"radius_binary", "delay", "lower", 0},                   // realized maximum delay of the degree-2 tree of the row
	{"member_op_p50_us", "us", "lower", 0},                   // median Join or Leave call, untraced
	{"member_op_p99_us", "us", "lower", 0},                   // 99th percentile Join or Leave call, untraced
	{"maint_round_ms", "ms", "lower", 0},                     // median MaintenanceRound call, untraced
	{"maint_round_tail_ms", "ms", "lower", 0},                // highest ladder percentile of MaintenanceRound with >= 10 samples beyond it, untraced
	{"checkpoint_ms", "ms", "lower", 0},                      // WriteSnapshot into memory, untraced
	{"restore_ms", "ms", "lower", 0},                         // RestoreBytes, untraced
	{"cert_ratio", "ratio", "lower", 0},                      // final realized radius over the radius frozen by Rebuild
	{"failed_frac", "frac", "lower", 0},                      // failed calls over attempted calls
}
