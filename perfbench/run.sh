#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it. Run it
# from the root of the checkout; every argument is passed through:
#
#   bash perfbench/run.sh --workload select_cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's temporary and
# telemetry files all stay under .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
