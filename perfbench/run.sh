#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through. Build outputs, the Go build cache and run
# files stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/run" "$@"
