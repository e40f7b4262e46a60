#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the root of the checkout, so a run reads and writes
# only inside the checkout and needs no HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" -out "$here/out" "$@"
