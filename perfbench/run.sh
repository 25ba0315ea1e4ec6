#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload ring-seq --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the root of the checkout (Go build cache, the binary, span files).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
