#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The driver calls this from
# the root of a checkout; everything it writes (the Go build cache, the
# binary, the temporary host volumes) stays under .bench_build there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/loadbench" ./cmd/loadbench
exec "$build/loadbench" -scratch "$build/tmp" "$@"
