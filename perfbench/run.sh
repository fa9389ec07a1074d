#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload kv-write --seed 1 --seconds 9 --trace 0
#
# The binary, the Go build cache and Go's other state files stay under
# .bench_build/ at the checkout root. Without the repository's sources
# next to perfbench/ the build fails and nothing is printed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
