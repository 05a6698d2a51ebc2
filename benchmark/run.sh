#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build leaves behind (binary, Go build
# cache) stays in .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it; only the first run pays for the
# build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/pyxis-benchmark" .
exec "$build/pyxis-benchmark" "$@"
