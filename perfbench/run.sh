#!/usr/bin/env bash
# Builds the dmt-serve daemon and the benchmark program from source, then
# runs the program with every argument passed through. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload table3_serial --seed 42 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Both
# builds are offline and locked; in a directory without the workspace
# they fail, and so does this script.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --locked --offline -q --manifest-path Cargo.toml -p dmt-serve --bin dmt-serve
cargo build --release --locked --offline -q --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/dmt-serve" "$@"
