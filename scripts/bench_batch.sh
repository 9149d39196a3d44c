#!/usr/bin/env sh
# bench_batch.sh — measure the zero-alloc service hot path and the
# batch endpoint, and record the result as BENCH_9.json.
#
# Two measurements, both against this working tree:
#
#   1. BenchmarkServeSolveAllocs — a cached-hit /v1/solvable request
#      driven through the full middleware stack (admission, breaker,
#      decode, key, cache, pooled encode). allocs/op is pinned by
#      TestServeSolveAllocsGate at <= serveAllocBudget (read from
#      internal/serve/bench_test.go); the gate runs first so the
#      recorded number is also the enforced one. The pre-refactor seed
#      (commit 4f494fa, measured with the same driver before the pooled
#      I/O / streaming-encode / scratch-reuse work) is recorded
#      alongside for the before/after.
#
#   2. capbench -batch — a self-contained 3-backend cluster serving the
#      same warmed query population two ways: one request per query vs
#      /v1/solve/batch groups, with equal items in flight. Acceptance
#      bar: batch items/sec >= 1.5x single-item qps at equal-or-better
#      p99 (capbench exits 1 otherwise).
#
# The heap profile the batch run writes (-memprofile) is kept next to
# the report for CI artifact upload. Usage:
#
#   ./scripts/bench_batch.sh [bench9.json] [heap.pprof]
set -eu

cd "$(dirname "$0")/.."

OUT9="${1:-BENCH_9.json}"
PROF="${2:-capbench_heap.pprof}"
ITEMS="${BENCH9_ITEMS:-4096}"
BATCH_SIZE="${BENCH9_BATCH_SIZE:-16}"
BAR="${BENCH9_BAR:-1.5}"

# Seed baseline: BenchmarkServeSolveAllocs run at the pre-refactor seed
# commit (4f494fa) with this same driver. Re-measure by checking out
# that commit, copying internal/serve/bench_test.go across, and running
# the benchmark there.
SEED_COMMIT="4f494fa"
SEED_ALLOCS=43
SEED_BYTES=4392
SEED_NS=11021

# The budget the gate enforces, read from the test source so the record
# cannot drift from it.
BUDGET="$(sed -n 's/^const serveAllocBudget = \([0-9][0-9]*\)$/\1/p' internal/serve/bench_test.go)"
if [ -z "${BUDGET}" ]; then
	echo "bench_batch: serveAllocBudget not found in internal/serve/bench_test.go" >&2
	exit 1
fi

echo "== alloc gate =="
go test -run '^TestServeSolveAllocsGate$' -count=1 ./internal/serve/

echo "== BenchmarkServeSolveAllocs =="
RAW="$(go test -run '^$' -bench '^BenchmarkServeSolveAllocs$' -benchmem -benchtime "${BENCH_COUNT:-50000x}" ./internal/serve/)"
echo "${RAW}"
NS="$(echo "${RAW}" | awk '/^BenchmarkServeSolveAllocs/ {print $3}')"
BYTES="$(echo "${RAW}" | awk '/^BenchmarkServeSolveAllocs/ {for (i = 1; i < NF; i++) if ($(i + 1) == "B/op") print $i}')"
ALLOCS="$(echo "${RAW}" | awk '/^BenchmarkServeSolveAllocs/ {for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i}')"
if [ -z "${NS}" ] || [ -z "${BYTES}" ] || [ -z "${ALLOCS}" ]; then
	echo "bench_batch: benchmark output missing the serve alloc line" >&2
	exit 1
fi

echo "== capbench -batch (3-backend cluster, bar ${BAR}x) =="
go run ./cmd/capbench \
	-backends-n 3 -replicas 2 -slow-delay 0 \
	-duration 1s -warmup 500ms \
	-batch -batch-items "${ITEMS}" -batch-size "${BATCH_SIZE}" \
	-batch-bar "${BAR}" -memprofile "${PROF}" \
	-out "${OUT9}.capbench"

# Merge the alloc benchmark and the seed baseline into the capbench
# report's batchComparison to form the BENCH_9 record.
SPEEDUP="$(sed -n 's/.*"speedupX": \([0-9.]*\).*/\1/p' "${OUT9}.capbench" | head -n 1)"
python3 - "$OUT9" "$OUT9.capbench" <<EOF
import json, sys
out, src = sys.argv[1], sys.argv[2]
rep = json.load(open(src))
record = {
    "benchmark": "BenchmarkServeSolveAllocs + capbench -batch",
    "serveAllocs": {
        "seedCommit": "${SEED_COMMIT}",
        "seedNsPerOp": ${SEED_NS},
        "seedBytesPerOp": ${SEED_BYTES},
        "seedAllocsPerOp": ${SEED_ALLOCS},
        "nsPerOp": ${NS},
        "bytesPerOp": ${BYTES},
        "allocsPerOp": ${ALLOCS},
        "allocBudget": ${BUDGET},
    },
    "batchComparison": rep["batchComparison"],
}
json.dump(record, open(out, "w"), indent=2)
open(out, "a").write("\n")
EOF
rm -f "${OUT9}.capbench"
echo "bench_batch: wrote ${OUT9} (cached hit ${ALLOCS} allocs/op vs seed ${SEED_ALLOCS}; batch speedup ${SPEEDUP:-?}x, bar ${BAR}x)"
