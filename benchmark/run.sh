#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's caches included, so the build writes nothing outside it
# and needs no HOME) and runs it with the given arguments, from the root
# of the checkout. Exits non-zero without output if the build fails, as it
# must where the repository's own module is missing.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -buildvcs=false -o "$root/.bench_build/benchmark" .
cd "$root"
exec "$root/.bench_build/benchmark" "$@"
