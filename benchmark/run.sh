#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from the checkout
# it stands in and runs it with the given arguments, keeping the Go build
# cache, the toolchain's work directories and everything the run writes inside
# the checkout, under .bench_build/. By hand, `go run ./benchmark` does the
# same with the user's own Go cache and writes to benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/meterd ]; then
    echo "benchmark: no decentmeter module here (go.mod and cmd/meterd are needed)" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -outdir .bench_build/out "$@"
