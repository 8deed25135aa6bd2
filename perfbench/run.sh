#!/usr/bin/env bash
# Build the repository's release binaries and the benchmark, then run
# one workload. Usage (from the repository root):
#   bash perfbench/run.sh --workload search_cold --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; stdout ends with the JSON result line.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin autofp --bin evald >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
