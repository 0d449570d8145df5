#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Build state (Go build cache, temp files, the binary) and the benchmark's
# own output stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
