#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the root of the repository; every argument is passed through:
#
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout, and the toolchain is kept off the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off GOTELEMETRY=off
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
