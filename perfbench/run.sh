#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload medium-dram-kmp --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches, temporary build files and the binary
# live in .bench_build/ under the current directory, and nothing is
# fetched from the network.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
