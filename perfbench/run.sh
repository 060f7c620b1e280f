#!/usr/bin/env bash
# Builds the benchmark and the trace validator from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload region-bcast --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build and module caches, and the go command's
# config and telemetry files (XDG_CONFIG_HOME) stay under .bench_build/ in
# the current directory, so a run writes nothing outside it. GOPROXY=off
# and GOTOOLCHAIN=local keep the build off the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/ompcloud-tracecheck" ./cmd/ompcloud-tracecheck >&2

exec "$out/bin/perfbench" "$@"
