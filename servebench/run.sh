#!/usr/bin/env bash
# Builds the `dsud` daemon and the benchmark from source, then runs one
# benchmark run. From the root of a checkout:
#
#   bash servebench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --selftest    # unit tests + tiny-N smoke of every workload
#
# Build output goes to $CARGO_TARGET_DIR (default: target), generated data
# to .bench_work. The result is the last line of stdout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
cargo build --release -q --manifest-path "$root/Cargo.toml" -p dsud-cli --bin dsud >&2
cargo build --release -q --manifest-path "$here/Cargo.toml" >&2
export DSUD_BIN=$target/release/dsud
if [ "${1:-}" = "--selftest" ]; then
    exec cargo test --release -q --manifest-path "$here/Cargo.toml" >&2
fi
exec "$target/release/servebench" --dsud "$DSUD_BIN" --work "$root/.bench_work" "$@"
