#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, from the root
# of a checkout:
#
#   bash e2ebench/run.sh --workload bulk-taxi --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# binary, the Go build cache, the generated inputs, span files and
# result records.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" --out "$build/e2ebench" "$@"
