#!/usr/bin/env bash
# bench-snapshot.sh — run the sweep and profiler benchmarks with -benchmem
# and write a machine-readable JSON snapshot.
#
# Usage:
#   scripts/bench-snapshot.sh OUT.json [vm|sched]
#
# The second argument only labels the snapshot: both modes run the
# bytecode VM. sched distinguishes snapshots taken under the cooperative
# run-to-block scheduler from the pre-scheduler BENCH_vm.json numbers:
#
#   scripts/bench-snapshot.sh BENCH_vm.json vm
#   scripts/bench-snapshot.sh BENCH_sched.json sched
#
# BENCH_baseline.json is the tree-walking interpreter's reference
# snapshot. It is history: the interpreter is now reachable only through
# RunConfig.Interp (the difftest oracle), so no mode regenerates it.
#
# TestBenchBaselinesParse keeps the files loadable, holds the VM snapshot
# to its speedup/allocation gates against the baseline, and holds the
# scheduler snapshot to >= 2x over BENCH_vm.json on BenchmarkSweepNP64.
# BENCHTIME overrides the go test -benchtime value (default 1s).
set -euo pipefail

out=${1:?usage: bench-snapshot.sh OUT.json [vm|sched]}
mode=${2:-vm}
case "$mode" in
vm | sched) ;;
*)
	echo "bench-snapshot.sh: unknown mode \"$mode\" (want vm or sched)" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench Sweep -benchmem \
	-benchtime "${BENCHTIME:-1s}" . | tee "$tmp"
go test -run '^$' -bench . -benchmem \
	-benchtime "${BENCHTIME:-1s}" ./internal/prof | tee -a "$tmp"

# An empty snapshot is worse than no snapshot: TestBenchBaselinesParse
# would load it and gate against nothing.
if ! grep -q '^Benchmark' "$tmp"; then
	echo "bench-snapshot.sh: no benchmark output captured" >&2
	exit 1
fi

awk -v mode="$mode" -v goversion="$(go env GOVERSION)" \
	-v created="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v gomaxprocs="${GOMAXPROCS:-$(nproc)}" \
	-v cpus="$(nproc)" \
	-v gitsha="$(git rev-parse HEAD 2>/dev/null || echo unknown)" '
BEGIN {
	printf "{\n \"created\": \"%s\",\n \"go\": \"%s\",\n \"exec\": \"%s\",\n \"gomaxprocs\": %s,\n \"cpus\": %s,\n \"git_sha\": \"%s\",\n \"benchmarks\": [", created, goversion, mode, gomaxprocs, cpus, gitsha
}
/^Benchmark/ {
	name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	if (n++) printf ","
	printf "\n  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, iters, ns
	if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	printf "}"
}
END { printf "\n ]\n}\n" }
' "$tmp" >"$out"

echo "snapshot written to $out"
