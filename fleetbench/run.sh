#!/usr/bin/env bash
# Build the shipped ftc-server and the benchmark from source, then run the
# benchmark with the given arguments. Run from the repository root:
#   bash fleetbench/run.sh --workload spill-large --seed 1 --seconds 45 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin ftc-server >&2
cargo build --release --offline --quiet --manifest-path fleetbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fleetbench" \
    --server-bin "$CARGO_TARGET_DIR/release/ftc-server" "$@"
