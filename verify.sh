#!/usr/bin/env sh
# verify.sh — the full pre-merge gate.
#
# Tier 1 (must stay green): build + tests.
# Extended: gofmt staleness + vet + race (an engine run is one
# goroutine, so this guards request-level concurrency: the chain and
# nchain tests that share one scratch-arena pool across eight goroutines,
# and the serve suites) + the
# verdictbench module's vet and tests + a 2 s verdictbench run per
# workload (plus one traced run) + the engine and service suites at
# GOMAXPROCS 1, 2 and 4 + a short native-fuzz pass per fuzz target (go
# test runs one -fuzz target per invocation) + a capserved lifecycle smoke (serve, query, SIGTERM,
# assert a clean drained exit) — which now includes a 3-node coordinator
# leg with a mid-run backend kill and an admin-API membership-churn leg
# — + a short capbench cluster load run with a churn phase.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "${UNFORMATTED}" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "${UNFORMATTED}" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race ./...

echo "== verdictbench module (vet + test) =="
# The benchmark is its own module, so the root ./... never builds it,
# yet it imports serve, serve/client, serve/cluster and serve/wire.
(cd verdictbench && go vet ./... && go test ./...)

echo "== verdictbench (2 s per workload) =="
# A short run of the repository benchmark on every workload: the build,
# every validity check and the oracle's verdicts have to hold. A run
# with wrong verdicts exits 0 with "correct":false on its last line, so
# that line is checked too. The traced miss-writes run also replays a
# node's /v1/warm/export into a fresh OpenVerdictStore. Reports stay in
# the gitignored .bench_build/.
mkdir -p .bench_build
bench() { # <workload> <trace>
	out=".bench_build/verify-$1-trace$2.json"
	if ! bash verdictbench/run.sh --workload "$1" --seed 1 --seconds 2 --trace "$2" >"${out}"; then
		echo "verify.sh: verdictbench $1 (trace $2) failed; report in ${out}" >&2
		exit 1
	fi
	if ! tail -n 1 "${out}" | grep -q '"correct":true'; then
		echo "verify.sh: verdictbench $1 (trace $2) served wrong verdicts; report in ${out}" >&2
		exit 1
	fi
}
for w in hot-reads miss-writes enum-heavy cluster-mixed; do
	bench "${w}" 0
done
bench miss-writes 1

echo "== GOMAXPROCS matrix (engine + service + chaos, -cpu 1,2,4) =="
# Verdict bodies must not depend on scheduling: the engine and service
# suites run at three core counts, three times each, so a report that
# varies with how concurrent requests interleave (shared scratch pools,
# the server's admission and singleflight paths) fails here instead of
# shipping. The chaos suite runs there too: both campaign kinds,
# including the goroutine-per-node host, must give the same Report on
# any core count.
go test -cpu 1,2,4 -count=3 ./internal/fullinfo ./internal/chain ./internal/nchain ./internal/serve/... ./internal/chaos

echo "== serve alloc gates (unraced, JSON + binary; node and coordinator; single and batch hits) =="
# The alloc gates skip themselves under -race (the detector's
# instrumentation allocates), so the budgets are enforced here
# explicitly — once per response encoding, on a node and on a
# coordinator, for single hits, 16-item all-hit batches, and a node
# hit whose body is too large for the request memo.
go test -run '^TestServe(Solve(Binary|Parse)?|BatchHit)AllocsGate$' -count=1 ./internal/serve/
go test -run '^TestCoordinator(Solve(Binary)?|BatchHit)AllocsGate$' -count=1 ./internal/serve/cluster/

FUZZTIME="${FUZZTIME:-10s}"
echo "== go fuzz (${FUZZTIME} per target) =="
for target in FuzzIndexRoundTrip FuzzParseScenario FuzzScenarioEquality; do
	echo "-- ${target}"
	go test -run "^${target}$" -fuzz "^${target}$" -fuzztime "${FUZZTIME}" ./internal/omission/
done
echo "-- FuzzEmptinessVsReference"
go test -run '^FuzzEmptinessVsReference$' -fuzz '^FuzzEmptinessVsReference$' -fuzztime "${FUZZTIME}" ./internal/buchi/
echo "-- FuzzSymbolicVsReference"
go test -run '^FuzzSymbolicVsReference$' -fuzz '^FuzzSymbolicVsReference$' -fuzztime "${FUZZTIME}" ./internal/chain/
for pkg in ./internal/sim/ ./internal/netsim/; do
	echo "-- FuzzRunnersVsReference (${pkg})"
	go test -run '^FuzzRunnersVsReference$' -fuzz '^FuzzRunnersVsReference$' -fuzztime "${FUZZTIME}" "${pkg}"
done
echo "-- FuzzCampaignsVsReference"
go test -run '^FuzzCampaignsVsReference$' -fuzz '^FuzzCampaignsVsReference$' -fuzztime "${FUZZTIME}" ./internal/chaos/
for target in FuzzWireFrameDecode FuzzWarmSegment; do
	echo "-- ${target}"
	go test -run "^${target}$" -fuzz "^${target}$" -fuzztime "${FUZZTIME}" ./internal/serve/wire/
done
for target in FuzzParseQuery FuzzParseBatch FuzzNetTheoremVsEngine; do
	echo "-- ${target}"
	go test -run "^${target}$" -fuzz "^${target}$" -fuzztime "${FUZZTIME}" ./internal/serve/
done

echo "== capserved smoke (default backend + 3-node coordinator) =="
./smoke_capserved.sh

echo "== capserved smoke (enumerate backend) =="
SMOKE_BACKEND=enumerate SMOKE_CLUSTER=0 ./smoke_capserved.sh

echo "== capbench (short cluster load + churn run) =="
# A brief self-contained 3-backend run: report only (no bars — the
# gating runs are scripts/bench_cluster.sh and scripts/bench_churn.sh),
# but the generator, coordinator, hedging, the health prober's
# eject/readmit cycle, and the stats scrape all have to work end to
# end. CI uploads the report as an artifact.
go run ./cmd/capbench -rps 40 -duration 2s -warmup 500ms -max-horizon 5 \
	-churn -batch -batch-items 128 -out capbench_report.json
grep -q '"one-slow-backend"' capbench_report.json || {
	echo "verify.sh: capbench report is missing the degraded phase" >&2
	exit 1
}
grep -q '"churn"' capbench_report.json || {
	echo "verify.sh: capbench report is missing the churn phase" >&2
	exit 1
}
grep -q '"churnConverged": true' capbench_report.json || {
	echo "verify.sh: churn phase did not converge (killed backend not readmitted)" >&2
	exit 1
}
grep -q '"batchComparison"' capbench_report.json || {
	echo "verify.sh: capbench report is missing the batch comparison" >&2
	exit 1
}

echo "verify.sh: all gates passed"
