#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload se-human --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, scratch inputs,
# traces and run records all stay under .bench_build in that root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go"
export GOMODCACHE="$build/home/go/pkg/mod" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" "$@"
