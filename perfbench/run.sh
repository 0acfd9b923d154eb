#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-uniform --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so nothing is written elsewhere.
# The benchmark module replaces `sepsp` with the parent directory; without the
# repository around it the build fails and nothing is run.
set -euo pipefail

here=$(dirname "$0")
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/mod"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
