#!/usr/bin/env bash
# ab_pairs.sh — A/B a parent revision against this working tree on one
# verdictbench workload, in alternated pairs of 15 s runs.
#
#   ./scripts/ab_pairs.sh <parent-rev> <workload> <seed>...
#
# The parent revision is exported with `git archive` into a fresh
# directory under ${TMPDIR:-/tmp} (an export, not a worktree, so the
# repository's own metadata is untouched) and its benchmark builds and
# runs there; the change is this checkout, working tree included. Each
# seed is one pair: the parent runs first on odd seeds and the change
# first on even ones, because the first of two back-to-back hot-reads
# runs measures faster whichever commit it is, and only alternation
# cancels that.
#
# For every end-to-end metric of BENCHMARK.json it prints each pair,
# each side's median, the median of the per-pair change/parent ratios,
# and in how many pairs the change was better (in the metric's own
# direction). A run that fails or reports "correct":false stops the
# script. The reports stay in the export directory, whose path is
# printed; nothing is written under verdictbench/.
#
# Example: ./scripts/ab_pairs.sh HEAD~1 hot-reads 13 14 15 16 17 18
set -euo pipefail

# The run length of BENCHMARK.json, so a pair measures what the benchmark does.
SECONDS_PER_RUN=15

if [ "$#" -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <seed>..." >&2
	exit 2
fi
PARENT="$1"
WORKLOAD="$2"
shift 2

cd "$(dirname "$0")/.."
CHANGE="$(pwd)"
REV="$(git rev-parse --short "${PARENT}^{commit}")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
mkdir -p "${WORK}/parent" "${WORK}/reports"
git archive "${REV}" | tar -x -C "${WORK}/parent"
echo "ab_pairs: parent ${REV} exported to ${WORK}/parent; ${WORKLOAD}, ${SECONDS_PER_RUN} s runs, seeds $*" >&2

# The end-to-end metrics and the direction each one improves in.
METRICS="$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)"

run() { # <side> <tree> <seed>
	out="${WORK}/reports/$1-$3.json"
	echo "ab_pairs: seed $3, $1" >&2
	if ! bash "$2/verdictbench/run.sh" --workload "${WORKLOAD}" --seed "$3" \
		--seconds "${SECONDS_PER_RUN}" --trace 0 >"${out}"; then
		echo "ab_pairs: the $1 run of seed $3 failed; report in ${out}" >&2
		exit 1
	fi
	if ! tail -n 1 "${out}" | grep -q '"correct":true'; then
		echo "ab_pairs: the $1 run of seed $3 served wrong verdicts; report in ${out}" >&2
		exit 1
	fi
}

for seed in "$@"; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "${WORK}/parent" "${seed}"
		run change "${CHANGE}" "${seed}"
	else
		run change "${CHANGE}" "${seed}"
		run parent "${WORK}/parent" "${seed}"
	fi
done

value() { # <side> <seed> <metric>
	tail -n 1 "${WORK}/reports/$1-$2.json" | jq -r --arg m "$3" '.metrics[$m].value'
}

echo "workload ${WORKLOAD}: parent ${REV} vs this tree, ${#} pairs of ${SECONDS_PER_RUN} s runs"
echo "${METRICS}" | while read -r metric better; do
	rows=""
	for seed in "$@"; do
		rows="${rows}${seed} $(value parent "${seed}" "${metric}") $(value change "${seed}" "${metric}")
"
	done
	printf '%s' "${rows}" | awk -v metric="${metric}" -v better="${better}" '
		function median(a, n,   i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
			return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
		}
		{
			n++
			p[n] = $2; c[n] = $3
			r[n] = $2 != 0 ? $3 / $2 : 0
			if ((better == "higher" && $3 > $2) || (better == "lower" && $3 < $2)) wins++
			printf "  %-20s seed %-4s parent %-12.6g change %-12.6g ratio %.3f\n", metric, $1, $2, $3, r[n]
		}
		END {
			printf "%-22s median parent %.6g, change %.6g; pair-ratio median %.3f; change better in %d/%d (%s is better)\n",
				metric, median(p, n), median(c, n), median(r, n), wins, n, better
		}'
done
echo "ab_pairs: reports in ${WORK}/reports" >&2
