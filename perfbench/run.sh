#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload disjoint --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary all live under .bench_build
# in the current directory, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
