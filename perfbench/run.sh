#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload swarm_track --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.json new.json
#
# Build cache, binary, span logs and result records all stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
  GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -out "$build/perfbench-out" "$@"
