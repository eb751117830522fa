#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload sample-3m --seed 1 --seconds 20 --trace 0
#
# The binary and every Go cache live under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
