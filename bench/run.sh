#!/usr/bin/env bash
# Builds the benchmark from source and replaces this shell with it: no
# `go run`, no background job, no child left behind. bench/ is a module
# of its own (go.mod replaces `repro` with the checkout it sits in).
# Everything written — build cache, binary, fixtures, service state —
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/choirbench" .
exec "$build/choirbench" -root "$build/run" "$@"
