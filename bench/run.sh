#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the command in
# BENCHMARK.json; run it from the root of a checkout:
#
#   bash bench/run.sh --workload chain_64B --seed 7 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/ (compiler cache, temporary files, the go command's own
# configuration, the binary).
set -euo pipefail

# Without the module there is nothing to measure: say so before the go
# command is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod and internal/ here: run from the root of a checkout that holds the program" >&2
	exit 3
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry under the user's configuration
# directory and, the first time it sees a fresh one, starts a detached
# child of itself to tidy the counter files: a process that outlives the
# run. Give it a directory of the checkout, with telemetry switched off.
echo off >"$build/config/go/telemetry/mode"

XDG_CONFIG_HOME="$build/config" go build -o "$build/harmless-bench" ./bench
exec "$build/harmless-bench" "$@"
