#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the repository root:
#
#   bash bench/run.sh -workload sim-noc -seed 0
#
# Build outputs and the Go build cache go to .bench_build at the root,
# so nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" -root "$root" "$@"
