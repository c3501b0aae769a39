#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root: the Go build cache, the binary, the span files
# of traced runs and each run's scratch directory (removed on exit).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The build fails, and so does this script, where the module the
# benchmark replaces (the repository root) is missing.
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
