#!/usr/bin/env bash
# Builds the benchmark program and the trace checker from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload pkt-ring --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, module and config directories, temporary
# files, binaries, traces and run records.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/tracecheck" ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod, internal/ or cmd/tracecheck/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/tracecheck" ./cmd/tracecheck
exec "$out/perfbench" "$@"
