#!/usr/bin/env sh
# bench_wire.sh — measure the binary verdict wire protocol against the
# compact-JSON baseline and record the result as BENCH_10.json.
#
# Three measurements, all against this working tree:
#
#   1. BenchmarkServeSolveAllocs / BenchmarkServeSolveBinaryAllocs —
#      the cached-hit /v1/solvable hot path through the full middleware
#      stack, once per encoding. Both are alloc-gated by
#      TestServeSolveAllocsGate and TestServeSolveBinaryAllocsGate
#      (serveAllocBudget and serveBinaryAllocBudget, read from
#      internal/serve/bench_test.go), which run first so the recorded
#      numbers are the enforced ones.
#
#   2. capbench -batch — the PR-9 batch-vs-single comparison, re-run so
#      BENCH_10 carries the number the CI trend gate compares against
#      BENCH_9 (a regression > 10% fails).
#
#   3. capbench -wire — the same warmed batch workload served twice by
#      a self-contained 3-backend cluster: JSON lines vs binary frames.
#      Acceptance bars: binary bytes/item <= 0.6x JSON (>= 40% fewer
#      bytes) at equal-or-better p99, and binary items/sec >= 1.2x the
#      JSON-batch baseline (capbench exits 1 otherwise).
#
# Usage:
#
#   ./scripts/bench_wire.sh [bench10.json]
set -eu

cd "$(dirname "$0")/.."

OUT10="${1:-BENCH_10.json}"
BASELINE="${BENCH10_BASELINE:-BENCH_9.json}"
ITEMS="${BENCH10_ITEMS:-4096}"
BATCH_SIZE="${BENCH10_BATCH_SIZE:-16}"
BATCH_BAR="${BENCH10_BATCH_BAR:-1.5}"
WIRE_BAR="${BENCH10_WIRE_BAR:-1.2}"
WIRE_BYTES_BAR="${BENCH10_WIRE_BYTES_BAR:-0.6}"
TREND_SLACK="${BENCH10_TREND_SLACK:-0.10}"

# The budgets the gates enforce, read from the test source so the
# record cannot drift from them.
alloc_budget() { # alloc_budget <const-name>
	sed -n "s/^const $1 = \([0-9][0-9]*\)\$/\1/p" internal/serve/bench_test.go
}
BUDGET="$(alloc_budget serveAllocBudget)"
BBUDGET="$(alloc_budget serveBinaryAllocBudget)"
if [ -z "${BUDGET}" ] || [ -z "${BBUDGET}" ]; then
	echo "bench_wire: an alloc budget is missing from internal/serve/bench_test.go" >&2
	exit 1
fi

echo "== alloc gates (JSON + binary) =="
go test -run '^TestServeSolve(Binary)?AllocsGate$' -count=1 ./internal/serve/

echo "== BenchmarkServeSolveAllocs / BenchmarkServeSolveBinaryAllocs =="
RAW="$(go test -run '^$' -bench '^BenchmarkServeSolve(Binary)?Allocs$' -benchmem -benchtime "${BENCH_COUNT:-50000x}" ./internal/serve/)"
echo "${RAW}"
bench_field() { # bench_field <benchmark-name> <unit-following-field|ns>
	if [ "$2" = "ns" ]; then
		echo "${RAW}" | awk -v b="$1" '$1 ~ "^" b "(-[0-9]+)?$" {print $3}'
	else
		echo "${RAW}" | awk -v b="$1" -v u="$2" '$1 ~ "^" b "(-[0-9]+)?$" {for (i = 1; i < NF; i++) if ($(i + 1) == u) print $i}'
	fi
}
NS="$(bench_field BenchmarkServeSolveAllocs ns)"
BYTES="$(bench_field BenchmarkServeSolveAllocs B/op)"
ALLOCS="$(bench_field BenchmarkServeSolveAllocs allocs/op)"
BNS="$(bench_field BenchmarkServeSolveBinaryAllocs ns)"
BBYTES="$(bench_field BenchmarkServeSolveBinaryAllocs B/op)"
BALLOCS="$(bench_field BenchmarkServeSolveBinaryAllocs allocs/op)"
if [ -z "${NS}" ] || [ -z "${BNS}" ] || [ -z "${ALLOCS}" ] || [ -z "${BALLOCS}" ]; then
	echo "bench_wire: benchmark output missing a serve alloc line" >&2
	exit 1
fi

echo "== capbench -batch -wire (3-backend cluster; wire bars ${WIRE_BAR}x items/sec, ${WIRE_BYTES_BAR}x bytes) =="
go run ./cmd/capbench \
	-backends-n 3 -replicas 2 -slow-delay 0 \
	-duration 1s -warmup 500ms \
	-batch -batch-items "${ITEMS}" -batch-size "${BATCH_SIZE}" -batch-bar "${BATCH_BAR}" \
	-wire -wire-bar "${WIRE_BAR}" -wire-bytes-bar "${WIRE_BYTES_BAR}" \
	-out "${OUT10}.capbench"

# Merge the alloc benchmarks into the capbench report and check the
# trend against the BENCH_9 baseline: the PR-9 batch speedup and the
# serve alloc count must not regress by more than TREND_SLACK.
STATUS=0
python3 - "$OUT10" "$OUT10.capbench" "$BASELINE" <<EOF || STATUS=$?
import json, sys
out, src, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]
rep = json.load(open(src))
record = {
    "benchmark": "BenchmarkServeSolve{,Binary}Allocs + capbench -batch -wire",
    "serveAllocs": {
        "json":   {"nsPerOp": ${NS}, "bytesPerOp": ${BYTES}, "allocsPerOp": ${ALLOCS}, "allocBudget": ${BUDGET}},
        "binary": {"nsPerOp": ${BNS}, "bytesPerOp": ${BBYTES}, "allocsPerOp": ${BALLOCS}, "allocBudget": ${BBUDGET}},
    },
    "batchComparison": rep["batchComparison"],
    "wireComparison": rep["wireComparison"],
}

failures = []
try:
    base = json.load(open(baseline_path))
except FileNotFoundError:
    base = None
if base:
    slack = ${TREND_SLACK}
    base_speedup = base["batchComparison"]["speedupX"]
    got_speedup = record["batchComparison"]["speedupX"]
    if got_speedup < base_speedup * (1 - slack):
        failures.append(
            f"batch speedup {got_speedup:.2f}x regressed >{slack:.0%} from {baseline_path}'s {base_speedup:.2f}x")
    base_allocs = base["serveAllocs"]["allocsPerOp"]
    got_allocs = record["serveAllocs"]["json"]["allocsPerOp"]
    if got_allocs > base_allocs * (1 + slack):
        failures.append(
            f"serve allocs {got_allocs}/op regressed >{slack:.0%} from {baseline_path}'s {base_allocs}/op")
    record["trend"] = {
        "baseline": baseline_path,
        "slack": slack,
        "baselineBatchSpeedupX": base_speedup,
        "baselineAllocsPerOp": base_allocs,
        "ok": not failures,
    }
json.dump(record, open(out, "w"), indent=2)
open(out, "a").write("\n")
for f in failures:
    print("bench_wire: TREND REGRESSION:", f, file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
rm -f "${OUT10}.capbench"
[ "${STATUS}" -eq 0 ] || exit "${STATUS}"

SPEEDUP="$(sed -n 's/.*"speedupX": \([0-9.]*\).*/\1/p' "${OUT10}" | tail -n 1)"
RATIO="$(sed -n 's/.*"bytesRatio": \([0-9.]*\).*/\1/p' "${OUT10}" | head -n 1)"
echo "bench_wire: wrote ${OUT10} (binary hot path ${BALLOCS} allocs/op; wire speedup ${SPEEDUP:-?}x, bytes ratio ${RATIO:-?} vs bar ${WIRE_BYTES_BAR})"
