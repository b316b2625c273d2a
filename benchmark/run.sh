#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the checkout root. Everything it writes stays inside the
# checkout: build caches and binaries under .bench_build/, work directories
# and span files under benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOPATH="${GOPATH:-$build/gopath}"
export XDG_CONFIG_HOME="${XDG_CONFIG_HOME:-$build/config}"
export GOFLAGS="${GOFLAGS:--buildvcs=false}"
export GOTOOLCHAIN="${GOTOOLCHAIN:-local}"
export GOPROXY="${GOPROXY:-off}"
mkdir -p "$build/bin"
go build -C "$root/benchmark" -o "$build/bin/ripple-benchmark" .
exec "$build/bin/ripple-benchmark" "$@"
