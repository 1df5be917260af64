#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <figures|sweep-cold|sweep-warm|serve> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# Go's build cache, temporary files, the binary, stores, traces and
# results — stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
# The module has no dependencies outside this repository: never download
# a toolchain or a module.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
