#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload drain --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -base ../parent -head . -workloads drain
# Every build product and cache stays under .bench_build in the root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
