#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source inside the
# checkout, then run it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build leaves behind — the Go build cache and the binary
# — goes under .bench_build/ in the checkout, so nothing is read from or
# written to a place outside it. A checkout without go.mod (only
# BENCHMARK.json and this directory) fails here, before any result line.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
