#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload attack-exact --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, temporaries, the binary)
# stays under .bench_build/ in the current directory, the go command's own
# usage telemetry is off, and the toolchain is kept offline: the benchmark
# has no dependencies beyond the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$out/edbench" .)
exec "$out/edbench" "$@"
