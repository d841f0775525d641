#!/usr/bin/env bash
# Builds the product (`xbar`, from the repository workspace) and the
# benchmark binary from source, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload table2_full --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The benchmark binary runs as a child, not
# exec'd, so the peak-memory figure it reads for its children never
# includes the compiler.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p xbar-exp --bin xbar >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" --xbar "$CARGO_TARGET_DIR/release/xbar" "$@"
