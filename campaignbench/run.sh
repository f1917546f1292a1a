#!/usr/bin/env bash
# Builds the campaign benchmark from the source tree it sits in and runs
# it with the given arguments, from the repository root:
#
#   bash campaignbench/run.sh --workload fi-sweep --seed 3 --seconds 20 --trace 0
#
# The build cache, the binary, temporary run directories and trace files
# all stay under .bench_build/ in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C campaignbench build -o "$build/campaignbench" .
exec "$build/campaignbench" --trace-dir "$build" "$@"
