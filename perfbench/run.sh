#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload static-random --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the run
# records and the spans all go under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it. Build output goes to stderr;
# stdout carries the named results and, last, one JSON result line.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/out" "$@"
