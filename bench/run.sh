#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out bench/out/set.jsonl      # every workload
#
# The build, the Go caches and the toolchain's own config and telemetry
# files stay inside the checkout, in .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd bench && go build -o "$build/nucabench" ./nucabench)
exec "$build/nucabench" "$@"
