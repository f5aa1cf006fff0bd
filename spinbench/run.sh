#!/usr/bin/env bash
# Builds spinctl and spinbench from the source tree in the current
# directory (a quicspin checkout) and runs the benchmark with the given
# arguments. Build output goes to standard error, so the benchmark's
# result stays the last line of standard output.
#
#   bash spinbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/spinctl ]]; then
    echo "spinbench: run from the root of a quicspin checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p quicspin-spinctl >&2
cargo build --release --offline --quiet --manifest-path spinbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/spinbench" "$@"
