#!/usr/bin/env bash
# Regenerates the F1 verifier baseline: release-build the workspace,
# run the benchmark, and leave BENCH_verifier.json plus a
# phase-attribution profile (PROFILE_verifier.txt) under target/bench/.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR=target/bench
IVC_DIR=$OUT_DIR/ivc
mkdir -p "$OUT_DIR"
rm -rf "$IVC_DIR"

cargo build --release -p daenerys-bench
# Incremental warm-rerun sweep: a cold pass populates the per-case
# verdict stores, then the measured pass restores from them, so the
# baseline's "incremental" section and per-case methods_reverified
# report the warm restore path instead of null.
cargo run --release -q -p daenerys-bench --bin tables -- \
    --f1 --cache-dir "$IVC_DIR" --repeat 1 --out-dir "$OUT_DIR" > /dev/null
cargo run --release -q -p daenerys-bench --bin tables -- \
    --f1 --json --cache-dir "$IVC_DIR" --out-dir "$OUT_DIR" "$@"
cargo run --release -q -p daenerys-bench --bin tables -- \
    --profile --out-dir "$OUT_DIR" > /dev/null

# Monorepo-scale edit-replay sweep (DESIGN.md §15): generated 10k-method
# DAG, cold → warm → scripted edits, every phase gated against the
# generator's ground truth, warm store load gated at 50 ms.
cargo run --release -q -p daenerys-bench --bin store_replay -- \
    --methods 10000 --depth 20 --max-load-ms 50 \
    --out "$OUT_DIR/BENCH_incremental.json"

echo "baseline written to $(pwd)/$OUT_DIR/BENCH_verifier.json"
echo "profile  written to $(pwd)/$OUT_DIR/PROFILE_verifier.txt"
echo "replay   written to $(pwd)/$OUT_DIR/BENCH_incremental.json"
