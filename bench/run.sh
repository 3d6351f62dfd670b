#!/bin/sh
# Build the benchmark from source into .bench_build/ at the root of the
# checkout and run it there. Everything the go tool writes (build cache,
# temporary files, module cache) stays inside the checkout.
#
#   sh bench/run.sh --workload dp_steady --seed 1 --seconds 20 --trace 0
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
go build -C "$here" -buildvcs=false -o "$build/fastrak-bench" .
cd "$root"
exec "$build/fastrak-bench" "$@"
