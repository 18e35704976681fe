#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it,
# passing every argument through. Run it from the repository root:
#
#	bash bench/run.sh --workload field10k --seed 1 --seconds 15 --trace 0
#	bash bench/run.sh -seed 1 -out a.json        # all four workloads
#	bash bench/run.sh -compare a.json b.json
#
# Every file the Go toolchain writes (build cache, temporary work
# directories, telemetry) stays under .bench_build in the checkout, and the
# calling user's Go configuration is not read.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/envbench" .
exec "$out/envbench" "$@"
