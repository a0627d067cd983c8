#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the root of a geoserp checkout:
#
#   bash perfbench/run.sh --workload mono-local --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache,
# temporary files, the binary, the traced run's spans) stays under
# .bench_build/ in the checkout. Nothing is fetched over the network.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a geoserp checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/trace" "$@"
