#!/usr/bin/env bash
# Builds bench_suite (Release, into .bench_build at the repository root) and
# runs it with the given arguments. Build output goes to stderr, so the last
# line of stdout is bench_suite's own result.
#
#   bash bench_suite/run.sh --workload sparse_1e5 --seed 1 --seconds 20 --trace 0
#   bash bench_suite/run.sh --suite --seed 1 [--trace] [--json FILE]
#   bash bench_suite/run.sh --smoke | --self-test
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=".bench_build"
mkdir -p "$BUILD_DIR/tmp"
# Keep the compiler's temporaries inside the checkout as well.
export TMPDIR="$PWD/$BUILD_DIR/tmp"

cmake -S bench_suite -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$BUILD_DIR" -j 4 --target bench_suite >&2

exec "$BUILD_DIR/bench_suite" "$@"
