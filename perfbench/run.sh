#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#
#   bash perfbench/run.sh --workload owner_rw --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# run's scratch files all stay under .bench_build/ in that root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporary files and per-user state
# (telemetry, go env) inside the checkout, and never reach the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
