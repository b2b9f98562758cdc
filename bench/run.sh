#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there. Nothing is written outside that root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's own files too: build cache, temp files, module cache, and
# the config directory its telemetry counters go to.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$here" build -o "$build/graphsd-bench" .
cd "$root"
exec "$build/graphsd-bench" "$@"
