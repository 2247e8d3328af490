#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, scratch files and per-run result
# records all stay under .bench_build in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
