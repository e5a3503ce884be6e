#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; all
# arguments go to the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sparse-inproc --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, temporary files (the shm transport's
# backing files among them) and span files stay under the build directory,
# $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/perfbench"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
