#!/usr/bin/env bash
# Builds chronobench from this checkout's sources and runs it. Run from
# the repository root, e.g.
#
#   bash chronobench/run.sh --workload pmbench-fault --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every scratch file (chronod state
# directories, span files) stay under $CARGO_TARGET_DIR, default
# .bench_build, in the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$here" -o "$out/chronobench" .
exec "$out/chronobench" --work-dir "$out" "$@"
