#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs it
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload kv-gated --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the traced run's artifacts stay under
# .bench_build in the checkout ($CARGO_TARGET_DIR when set). Without the
# repository's sources next to benchmark/ the build fails and so does this
# script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-tmp"
out="$(cd "$out" && pwd)"
# The go command's cache, temporary files, module cache and its
# configuration and telemetry (under XDG_CONFIG_HOME) all stay in $out.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -buildvcs=false -o "$out/treesls-benchmark" .
exec "$out/treesls-benchmark" --out "$out/trace" "$@"
