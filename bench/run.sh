#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh                       # all four workloads, every metric
#   bash bench/run.sh --workload steady-knee --seed 3 --seconds 20 --trace 0
#
# Every Go cache and temporary file stays under .bench_build/ in the
# checkout. The build fails (and nothing runs) outside a full checkout,
# because bench/go.mod resolves the simulator module from "..".
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/spiffi-bench" .
exec "$out/spiffi-bench" "$@"
