#!/usr/bin/env bash
# Builds the real-socket benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of
# a checkout: everything the build writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
# Build outputs go to $CARGO_TARGET_DIR when it is set, else .bench_build.
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

# Keep the toolchain offline and inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" HOME="$out"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
