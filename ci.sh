#!/bin/sh
# ci.sh — the repo's full gate: formatting, vet, the regular test suite,
# the benchmark harness's own tests, the race-detector run that guards the
# parallel build pipeline and the shared multi-group substrate, the
# build-state differential at 1 and 4 CPUs, and short fuzz smokes over
# the codec, fault-schedule, partition-schedule, drift-schedule,
# incremental-rebuild, multi-group, SLO-rule, and snapshot round-trip
# fuzzers. `ci.sh bench` runs the benchmark regression gate instead.
set -eu

cd "$(dirname "$0")"

# `ci.sh bench` runs only the benchmark regression gate: a fresh snapshot
# (scripts/bench.sh) diffed against BENCH_baseline.json, failing on >2%
# ns/op regressions (override with BENCH_TOLERANCE). It is not part of the
# default gate because ns/op is too noisy on shared runners to block every
# PR on it.
if [ "${1:-}" = "bench" ]; then
    echo "== bench compare =="
    exec scripts/bench_compare.sh
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

# The benchmark harness is its own module, so the root run above skips it.
# Its tests pin the harness's output checks to the library's API and
# behaviour; a change that breaks them fails here, not in the benchmark.
echo "== perfbench harness =="
(cd perfbench && go vet ./... && go test ./...)

echo "== coverage floors =="
# Checked-in floors for the packages whose correctness the rest of the repo
# leans on. Floors sit a few points below the coverage measured when each
# was set (grid was ~91% when its floor landed) so honest refactors pass
# but a PR that lands untested code fails.
check_cover() {
    pkg=$1 floor=$2
    pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: no figure reported for $pkg" >&2
        exit 1
    fi
    if [ "$(printf '%s %s\n' "$pct" "$floor" | awk '{print ($1 < $2)}')" = 1 ]; then
        echo "coverage: $pkg at ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/obs 92
check_cover ./internal/obs/trace 90
check_cover ./internal/obs/flight 90
check_cover ./internal/core 89
check_cover ./internal/coords 92
check_cover ./internal/grid 90
check_cover ./internal/bisect 91
check_cover ./internal/geom 87
check_cover ./internal/protocol 92
check_cover ./internal/multigroup 90
check_cover ./internal/snapshot 90

# Golden files (cmd/omt-sim and cmd/omt-experiments CLI output;
# internal/protocol trace timelines) are compared byte-for-byte by the
# regular test run above. After an INTENDED behavior or format change,
# regenerate with
#   go test ./cmd/omt-sim ./cmd/omt-experiments ./internal/protocol -update
# and review the diff — never hand-edit a .golden file.

echo "== go test -race =="
go test -race ./...

# The serial BuildState against Build2's default worker choice, at one CPU
# (serial Build2) and four (parallel Build2 above its size threshold),
# whatever the runner's core count; and the frozen 3-D and d-D build
# checksums, whose default-worker builds then wire serially and in
# parallel.
echo "== build-state and frozen-checksum differential at 1 and 4 CPUs =="
go test -run '^(TestBuildStateMatchesFromScratch|TestBuildMetricsMatchTreeDelays|TestFrozenBuild3|TestFrozenBuildD|TestBuild3AgreesWithBuildD)$' -cpu 1,4 ./internal/core

echo "== fuzz smoke =="
go test -run='^$' -fuzz='^FuzzWireRoundTrip$' -fuzztime=10s ./internal/core
go test -run='^$' -fuzz='^FuzzCodecRoundTrip$' -fuzztime=10s ./internal/tree
go test -run='^$' -fuzz='^FuzzFaultSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzPartitionSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzDriftSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzIncrementalRebuild$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzMultiGroup$' -fuzztime=10s ./internal/multigroup
go test -run='^$' -fuzz='^FuzzSLORules$' -fuzztime=10s ./internal/obs/flight
go test -run='^$' -fuzz='^FuzzSnapshotRoundTrip$' -fuzztime=10s ./internal/protocol

echo "ci: all green"
