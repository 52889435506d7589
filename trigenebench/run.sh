#!/usr/bin/env bash
# Builds the trigene benchmark from the sources in the current directory
# (the repository root) and runs one workload, for example:
#
#   bash trigenebench/run.sh --workload scan3 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build: the Go
# build cache, the binary, generated inputs, traces and results. Nothing
# is downloaded: the benchmark module needs only the trigene module next
# to it and the standard library.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd trigenebench && go build -o "$build/trigenebench" .)
exec "$build/trigenebench" "$@"
