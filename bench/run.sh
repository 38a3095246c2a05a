#!/usr/bin/env bash
# Builds the harness from source into the checkout's .bench_build/ and
# runs it with the given arguments. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
(cd "$root/bench" && go build -o "$build/dlis-bench" .)
cd "$root"
exec "$build/dlis-bench" "$@"
