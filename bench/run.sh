#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs one workload:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write (Go build cache, temp files, the
# binary, the stores) stays under .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
SCALANA_BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export SCALANA_BENCH_GIT_SHA
go build -C "$root/bench" -o "$build/scalana-e2e" ./cmd/scalana-e2e
exec "$build/scalana-e2e" "$@"
