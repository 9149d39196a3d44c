#!/usr/bin/env bash
# run.sh — build the benchmark from this checkout and run one workload.
#
#   bash verdictbench/run.sh --workload hot-reads --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache, the binary, per-run scratch files and the spans of
# traced runs. Without the repository's module next to this directory the
# build fails and the script exits non-zero before printing any result.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

(cd "$here" && go build -o "$build/verdictbench" .)
exec "$build/verdictbench" -root "$root" "$@"
