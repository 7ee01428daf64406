#!/usr/bin/env bash
# Builds eventbench from this checkout into .bench_build and runs it with
# the given arguments, e.g.
#   bash eventbench/run.sh --workload ans-dynamics --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Every file it writes stays under
# .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/eventbench" && go build -o "$build/eventbench" .) >&2
exec "$build/eventbench" --work "$build" "$@"
