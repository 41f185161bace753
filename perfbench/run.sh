#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload plan-heavy --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
