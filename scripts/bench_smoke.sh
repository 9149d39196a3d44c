#!/usr/bin/env sh
# bench_smoke.sh — measure the repo's MinRounds engines and record the
# results as BENCH_4.json and BENCH_6.json.
#
# BENCH_4: the incremental engine against the per-horizon restart
# strategy on R1 (never solvable, so both sides walk every horizon
# 0..maxR). Acceptance bar ≥2×: the restart side rebuilds interners,
# union-find, and the walk at every horizon, while the incremental side
# grows one frontier. One search takes tens of microseconds, so the pair
# is timed over 300 iterations by default: at 3 the ratio rode on
# scheduler noise and fell below the bar on some runs.
#
# BENCH_5.json is a historical record: the frontier-dedup engine against
# a frozen older engine. Both are gone, so it is no longer regenerated.
#
# BENCH_6: the symbolic index-interval backend sweeping the R1
# MinRounds search to BENCH6_MAXR (default 40 — 4·3^40 configurations,
# beyond int64 and beyond any enumeration budget) against the
# enumerating engine at BENCH6_FLAT_MAXR (default 13). Acceptance bars: the
# symbolic horizon must reach ≥25 and the symbolic sweep must still beat
# the 3×-shallower enumeration by ≥10×. The exact configuration count at
# the top horizon is recorded alongside. Usage:
#
#   ./scripts/bench_smoke.sh [bench4.json] [bench6.json]
set -eu

cd "$(dirname "$0")/.."

OUT4="${1:-BENCH_4.json}"
OUT6="${2:-BENCH_6.json}"
MAXR=8
FLAT_MAXR="${BENCH6_FLAT_MAXR:-13}"
MAXR6="${BENCH6_MAXR:-40}"
COUNT4="${BENCH_COUNT:-300x}"
COUNT6="${BENCH_COUNT:-3x}"

RAW="$(go test -run '^$' -bench '^BenchmarkMinRoundsIncrementalVsRestart$' -benchtime "${COUNT4}" .)"
echo "${RAW}"

RESTART_NS="$(echo "${RAW}" | awk '/\/restart/ {print $3}')"
INCREMENTAL_NS="$(echo "${RAW}" | awk '/\/incremental/ {print $3}')"
if [ -z "${RESTART_NS}" ] || [ -z "${INCREMENTAL_NS}" ]; then
	echo "bench_smoke: benchmark output missing restart/incremental lines" >&2
	exit 1
fi

SPEEDUP="$(awk "BEGIN {printf \"%.2f\", ${RESTART_NS} / ${INCREMENTAL_NS}}")"
cat >"${OUT4}" <<EOF
{
  "benchmark": "BenchmarkMinRoundsIncrementalVsRestart",
  "scheme": "R1",
  "max_horizon": ${MAXR},
  "restart_ns_per_op": ${RESTART_NS},
  "incremental_ns_per_op": ${INCREMENTAL_NS},
  "speedup": ${SPEEDUP}
}
EOF
echo "bench_smoke: wrote ${OUT4} (speedup ${SPEEDUP}x)"

if ! awk "BEGIN {exit !(${SPEEDUP} >= 2.0)}"; then
	echo "bench_smoke: speedup ${SPEEDUP}x is below the 2x acceptance bar" >&2
	exit 1
fi

RAW6="$(BENCH6_FLAT_MAXR="${FLAT_MAXR}" BENCH6_MAXR="${MAXR6}" go test -run '^$' -bench '^BenchmarkMinRoundsSymbolicVsFlat$' -benchtime "${COUNT6}" ./internal/chain/)"
echo "${RAW6}"

SYM_NS="$(echo "${RAW6}" | awk '/\/symbolic/ {for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i}' | head -n 1)"
FLAT_NS="$(echo "${RAW6}" | awk '/\/flat/ {for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i}' | head -n 1)"
CONFIGS_EXACT="$(echo "${RAW6}" | awk '{for (i = 1; i < NF; i++) if ($i == "bench6_configs_exact") {print $(i + 1); exit}}')"
if [ -z "${SYM_NS}" ] || [ -z "${FLAT_NS}" ] || [ -z "${CONFIGS_EXACT}" ]; then
	echo "bench_smoke: benchmark output missing symbolic/flat/configs lines" >&2
	exit 1
fi

SPEEDUP6="$(awk "BEGIN {printf \"%.2f\", ${FLAT_NS} / ${SYM_NS}}")"
cat >"${OUT6}" <<EOF
{
  "benchmark": "BenchmarkMinRoundsSymbolicVsFlat",
  "scheme": "R1",
  "symbolic_max_horizon": ${MAXR6},
  "symbolic_ns_per_op": ${SYM_NS},
  "configs_exact_at_max": "${CONFIGS_EXACT}",
  "enumerate_max_horizon": ${FLAT_MAXR},
  "enumerate_ns_per_op": ${FLAT_NS},
  "speedup": ${SPEEDUP6}
}
EOF
echo "bench_smoke: wrote ${OUT6} (symbolic horizon ${MAXR6}, speedup ${SPEEDUP6}x over enumeration at ${FLAT_MAXR})"

if ! awk "BEGIN {exit !(${MAXR6} >= 25)}"; then
	echo "bench_smoke: symbolic horizon ${MAXR6} is below the 25-round acceptance bar" >&2
	exit 1
fi
if ! awk "BEGIN {exit !(${SPEEDUP6} >= 10.0)}"; then
	echo "bench_smoke: speedup ${SPEEDUP6}x is below the 10x acceptance bar" >&2
	exit 1
fi
