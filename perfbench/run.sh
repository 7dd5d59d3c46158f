#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing the benchmark's flags:
#
#   bash perfbench/run.sh --workload stacked-build --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
