#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the toolchain or the benchmark writes lands under .bench_build/ at the
# checkout root, so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/aptrace-bench" .)
cd "$root"
exec "$build/aptrace-bench" "$@"
