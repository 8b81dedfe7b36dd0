#!/usr/bin/env bash
# Builds the benchmark and the cmd/sweep fleet worker from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload bigfield --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/sim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a wsncover checkout" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/gocache" "$build/gopath" "$build/tmp"

# Keep the go command's caches, config and temporary files inside the
# checkout, and never let it reach for a network toolchain or proxy.
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -o "$build/bin/sweep" ./cmd/sweep >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -sweep "$build/bin/sweep" -work "$build/work" "$@"
