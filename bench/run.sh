#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the
# checkout it is started in and runs it; every file it or the Go toolchain
# writes (build cache, binary, store directories, span files) stays under
# .bench_build in that checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/optimatch-bench" .
exec "$build/optimatch-bench" "$@"
