#!/usr/bin/env bash
# Builds intellog, intellogd and the benchmark from the checkout's
# sources, then runs the benchmark. Run from the checkout root:
#
#   bash benchmark/run.sh --workload ils1-online --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and run scratch all stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
# With telemetry on, the go command forks a detached upload process that
# outlives this script; turning it off first keeps every go command in
# the foreground.
go telemetry off
go build -o "$out/bin/" ./cmd/intellog ./cmd/intellogd
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" "$@"
