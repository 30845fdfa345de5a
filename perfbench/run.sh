#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload casestudy --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory: the Go build cache, the binary
# and the span traces of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Build offline, with the local toolchain, into the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The program's width and cache size must not come from the environment.
unset M3D_WORKERS M3D_CACHE_CAP GOMAXPROCS GOGC GOMEMLIMIT GODEBUG
exec "$out/perfbench" "$@"
