#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload sweep-kernel --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the
# benchmark binary, the store of the stemsd workload and the traced
# runs' ledgers.
set -euo pipefail

out="$PWD/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
