#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-long --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
#
# "all" runs every workload untraced and then traced, each in its own
# process, and fails if any output check fails. Every build and run output
# stays under .bench_build/ in the current directory: the Go build cache,
# the binary, the spans files and the service workload's data directories.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/perfbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -C perfbench -buildvcs=false -o "$out/bin/perfbench" .

commit=unknown
if git rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD)
fi
bench() {
	"$out/bin/perfbench" --commit "$commit" --out "$out/perfbench" "$@"
}

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" != "all" ]; then
	bench --workload "$workload" "${args[@]}"
	exit
fi
status=0
for w in sim-long forecast-aging service-quick; do
	for t in 0 1; do
		bench --workload "$w" "${args[@]}" --trace "$t" || status=1
	done
done
exit "$status"
