#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh -workload iris-single -seed 1 -seconds 10 -trace 0
#
# Every build product, cache and temporary file goes under .bench_build/
# in the repository root; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (bench/go.mod and go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" "$@"
