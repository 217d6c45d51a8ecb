#!/usr/bin/env bash
# Build the `repro` CLI and the benchmark runner from source, then run the
# runner from the repository root with the given arguments:
#
#   bash e2ebench/run.sh --workload population --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target); the runner's
# scratch files live under it too and are removed when a run ends.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --locked --offline --quiet -p repro >&2
cargo build --release --locked --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/e2ebench" --repro "$target/release/repro" --work "$target/e2ebench-work" "$@"
