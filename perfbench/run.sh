#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload table3-ci --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build so the
# benchmark reads and writes only inside the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
