#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload read-mvcc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go
# build cache, binary, device images, span files) stays under
# .bench_build/ in that root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
