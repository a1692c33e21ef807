#!/usr/bin/env bash
# Builds the debugdet benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus-eval --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the go command's caches, temporary files and configuration
# (including telemetry counters) inside the checkout, and never download.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
