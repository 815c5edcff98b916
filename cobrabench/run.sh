#!/usr/bin/env bash
# Builds the cobrad end-to-end benchmark from this checkout's source and
# runs it with the given flags. Run from the repository root:
#
#	bash cobrabench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# (ledger directories, spans, run records) stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches and its user configuration (including its
# telemetry counters) inside the checkout, and ignore any user go env file.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/cobrabench" && go build -o "$build/cobrabench" .) >&2
exec "$build/cobrabench" "$@"
