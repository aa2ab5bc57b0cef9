#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload paper-ls --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache included, stay in .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
