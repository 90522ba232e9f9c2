#!/usr/bin/env bash
# Builds the discovery benchmark from the checkout this script lives in and
# runs it once, passing every argument through:
#
#   bash discbench/run.sh --workload cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, the run record and
# the span trace. The benchmark's go.mod points at the enclosing module
# with a relative replace, so outside a checkout of the repository the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/discbench" && go build -o "$build/discbench.bin" .)
exec "$build/discbench.bin" --out "$build/discbench" "$@"
