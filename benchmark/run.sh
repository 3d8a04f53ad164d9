#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — binary, compiler cache, the go
# command's own config directory — goes under .bench_build/ in the
# checkout. Run from the repository root:
#
#   bash benchmark/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/canec-benchmark" ./benchmark
exec "$build/canec-benchmark" "$@"
