#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the current directory, and nothing is fetched: the benchmark module needs
# only the standard library and the pogo module one directory up.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
