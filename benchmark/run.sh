#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build writes — binary, Go build cache, temp files, the go command's own
# config — inside the checkout. BENCHMARK.json names this script as the
# benchmark's command; `go run ./benchmark` is the same program for a
# developer who does not mind the shared build cache.
#
#   bash benchmark/run.sh --workload embed-query --seed 1 --seconds 6 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Without the program there is nothing to build or measure: refuse before
# starting anything.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the program is not in this checkout" >&2
	exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config/go/telemetry" "$build/gopath"

# A go command that finds a fresh config directory starts a detached
# telemetry sidecar that outlives it. Mode "off" starts none, so the only
# processes this script starts are the build and the benchmark, and it
# waits for both.
echo off >"$build/config/go/telemetry/mode"

GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local \
	go build -buildvcs=false -o "$build/latest-benchmark" ./benchmark

exec "$build/latest-benchmark" "$@"
