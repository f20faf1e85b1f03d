#!/usr/bin/env bash
# Builds spatialload from this checkout's sources and runs one workload:
#
#   bash bench/run.sh --workload wire-mixed --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. The Go build cache and the binary go
# to $CARGO_TARGET_DIR (default .bench_build/); reports, span files and
# temporary stores go to bench/out/. The last line of output is the run's
# JSON result. Without the repository's sources the build fails and the
# script exits non-zero before printing anything.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
# Everything the go command writes (build and module caches, temporary
# files, its config and telemetry counters) stays under $build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

cd "$root/bench"
go build -o "$build/spatialload" ./spatialload
exec "$build/spatialload" "$@"
