#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root;
# every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 20 --trace 0
#
# The build, its Go caches and the benchmark's own output stay inside the
# checkout under .bench_build/perfbench.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
