#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments. Everything the Go toolchain writes (build cache, temp
# files, the binary) stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "atumbench/run.sh: no go.mod here: run it from the root of a full checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/atumbench" ./atumbench
exec "$build/atumbench" "$@"
