#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of
# the checkout. Everything the build and the run write — Go build cache,
# temp files, the binary, the mesh's checkpoint files, traced
# spans — stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload sim-accounted --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$src" build -o "$build/perfbench" .
exec "$build/perfbench" --work "$build" "$@"
