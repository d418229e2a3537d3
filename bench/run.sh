#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the toolchain writes stays under .bench_build/ at the
# checkout's root; trace files go to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOFLAGS=-modcacherw GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/dynbench" .
exec "$build/dynbench" "$@"
