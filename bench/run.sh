#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source into .bench_build/ at the checkout
# root on first use (Go build cache included, so nothing is written outside
# the checkout), then replaces itself with the binary. The last line the
# binary prints is the result object. Run it from the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local

# go build is a no-op when nothing changed; it fails (and so do we, with
# its exit code and no result line) when the repo's packages are missing.
go build -C "$root/bench" -o "$build/softcell-bench" .

cd "$root/bench"
exec "$build/softcell-bench" "$@"
