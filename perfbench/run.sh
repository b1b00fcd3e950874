#!/usr/bin/env bash
# Builds cupidd and the benchmark from source into .bench_build/ at the
# repository root, then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload probe --seed 1 --seconds 15 --trace 0
# Run it from the repository root. Everything it writes stays under
# .bench_build/ (Go build cache included).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$build/bin/cupidd" ./cmd/cupidd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --cupidd "$build/bin/cupidd" --work "$build" "$@"
