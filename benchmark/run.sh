#!/usr/bin/env bash
# The repo's benchmark, one command. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N]            all seven workloads, both passes,
#                                          writes benchmark/out/result.json
#   benchmark/run.sh --smoke               the same at 1/64 size (< 15 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one pass of one workload; the last
#                                          line of stdout is the result object
#   benchmark/run.sh compare A.json B.json compare two result.json files
#
# Builds the benchmark package from source first (offline; into
# $CARGO_TARGET_DIR if set, else target/benchmark, both git-ignored) and
# exits non-zero if the build, any op, any check (the BENCH_baseline.json
# reference check included) or the CPU pinning fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
# Cargo reports on stderr, so stdout stays the benchmark's alone.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/afs-benchmark" "$@"
