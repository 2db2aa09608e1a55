#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result as one JSON object
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       every workload, each in a fresh child process; table on stdout,
#       benchmark/out/results.json beside the traces
#
# Run it from the repository root. Scratch (WAL and snapshot directories,
# traces, results) lives under benchmark/out/ and nowhere else.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/rdb-benchmark" --out "$here/out" "$@"
