#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark inside the checkout
# and runs one workload.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Everything the build writes (Go's build
# cache included) stays under .bench_build/ there.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/qgraph-benchmark" .
exec "$build/qgraph-benchmark" run "$@"
