#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout — binary and Go build cache both under .bench_build/, so that
# nothing is written outside — and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -o "$build/canely-bench" ./bench
exec "$build/canely-bench" "$@"
