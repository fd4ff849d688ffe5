#!/usr/bin/env bash
# Builds netout and the serve-path benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh steady -runs 10 -seed0 1   # steadiness of every workload
#
# Build outputs, the Go build cache and the compiler's temporary files live
# under .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/netout ] || [ ! -f servebench/go.mod ]; then
    echo "servebench: run from the repository root (needs go.mod, cmd/netout and servebench/)" >&2
    exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/netout" ./cmd/netout
(cd servebench && go build -o "$out/bin/servebench" .)
if [ "${1:-}" = steady ]; then
    shift
    exec "$out/bin/servebench" steady -netout "$out/bin/netout" "$@"
fi
exec "$out/bin/servebench" -netout "$out/bin/netout" "$@"
