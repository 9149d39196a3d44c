#!/usr/bin/env sh
# bench_churn.sh — measure the clustered coordinator through membership
# churn and record the result as BENCH_8.json.
#
# capbench -churn boots the self-contained cluster (3 backends + one
# coordinator with the health prober enabled), measures a healthy
# phase, then runs a churn phase: one backend is killed a quarter of
# the way in — the prober must eject it — and restarted at the halfway
# mark — the prober must readmit it and the ring must converge back to
# full membership. The phase's availability is the fraction of replies
# that were neither shed nor errors.
#
# The kill is a gate in front of the backend's handler (capbench's
# killGate): the process and its LRU survive, so the readmitted backend
# is not cold. The bench measures eject and readmit, not a cold restart.
#
# Acceptance bars:
#   -availability-bar 0.99 — >= 99% of churn-phase requests answered
#   -p99-bar 2             — churn p99 within 2x the healthy p99
# plus the implicit convergence gate (>= 1 ejection, readmissions catch
# up to ejections, all backends routable again).
#
# The defaults are sized for a small CI box (the repo's reference
# machine is a single core); raise BENCH8_RPS / BENCH8_MAX_HORIZON on
# real hardware. Usage:
#
#   ./scripts/bench_churn.sh [bench8.json]
set -eu

cd "$(dirname "$0")/.."

OUT8="${1:-BENCH_8.json}"
RPS="${BENCH8_RPS:-60}"
DURATION="${BENCH8_DURATION:-4s}"
MAXH="${BENCH8_MAX_HORIZON:-6}"

go run ./cmd/capbench \
	-backends-n 3 -replicas 2 \
	-churn -slow-delay 0 \
	-rps "${RPS}" -duration "${DURATION}" -warmup 1s \
	-max-horizon "${MAXH}" \
	-p99-bar 2 -availability-bar 0.99 -out "${OUT8}"

AVAIL="$(sed -n 's/.*"availability": \([0-9.]*\).*/\1/p' "${OUT8}" | tail -n 1)"
RATIO="$(sed -n 's/.*"churnP99Ratio": \([0-9.]*\).*/\1/p' "${OUT8}" | head -n 1)"
echo "bench_churn: wrote ${OUT8} (churn availability ${AVAIL:-?} bar 0.99, churn/healthy p99 ratio ${RATIO:-?} bar 2)"
