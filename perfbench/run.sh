#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the per-run spans, profiles and
# full results go under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark writes nothing outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$(dirname "$0")" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --outdir "$out/perfbench" "$@"
