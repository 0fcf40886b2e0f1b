#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 0
#
# Every build artefact, the Go build cache and the trace output land under
# .bench_build/ at the root of the checkout; nothing is read or written
# outside it. The build fails (and the script exits non-zero) when the
# powercap sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" -out "$out/perfbench" "$@"
