#!/usr/bin/env bash
# CLI smoke: drive every `daenerys` subcommand over the F1 corpus as
# files, then stage the watch-mode incremental gate — cold-verify a
# generated 1k-method corpus into a fresh store, apply a leaf-body
# edit, and require `daenerys watch --once` to re-verify EXACTLY the
# generator's ground-truth cone (1 method) through the warm store,
# under the wall-clock ceiling. Also pins the exit-code contract:
# positive cases exit 0, negative cases exit 1 with a rendered
# failure report, usage errors exit 2; and a closed stdout never
# panics.
#
# Artifacts: the per-method measured cost report (text + JSON) over the
# diverging workload, under $OUT_DIR.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR=${1:-target/cli-smoke}
F1_DIR="$OUT_DIR/f1"
STORE_DIR="$OUT_DIR/store"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

cargo build --release -p daenerys-cli -p daenerys-bench
DAENERYS=./target/release/daenerys
CORPUS_GEN=./target/release/corpus_gen

# --- F1 corpus as files -------------------------------------------------
"$CORPUS_GEN" --f1-dir "$F1_DIR"

# check + explain + cost must succeed over every file, positive and
# negative alike: lints never run the solver, and cost reports a method
# that fails verification as a verdict-only row instead of failing.
"$DAENERYS" check "$F1_DIR"/pos/*.idf "$F1_DIR"/neg/*.idf --no-color > "$OUT_DIR/check.txt"
"$DAENERYS" explain "$F1_DIR"/pos/*.idf --no-color > "$OUT_DIR/explain.txt"
"$DAENERYS" cost "$F1_DIR"/pos/*.idf "$F1_DIR"/neg/*.idf --no-color > "$OUT_DIR/cost.txt"

# verify: every positive case passes (exit 0)...
"$DAENERYS" verify "$F1_DIR"/pos/*.idf --no-color > "$OUT_DIR/verify_pos.txt"
# ...and every negative case is rejected with a rendered report.
for f in "$F1_DIR"/neg/*.idf; do
    STATUS=0
    "$DAENERYS" verify "$f" --no-color > "$OUT_DIR/verify_neg.txt" || STATUS=$?
    [ "$STATUS" -eq 1 ] || {
        echo "negative case $f exited $STATUS, want 1"
        cat "$OUT_DIR/verify_neg.txt"; exit 1;
    }
    grep -q 'first failure:' "$OUT_DIR/verify_neg.txt" || {
        echo "negative case $f rendered no failure report"
        cat "$OUT_DIR/verify_neg.txt"; exit 1;
    }
done

# Usage errors exit 2, not 1.
STATUS=0
"$DAENERYS" frobnicate 2>/dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "usage error exited $STATUS, want 2"; exit 1; }

# --- cost report artifact ----------------------------------------------
# The diverging workload's case split is where the solver spends its
# fuel: `diverge` must top the measured report. A second run through
# the warm store must restore the same counters byte for byte.
"$DAENERYS" cost "$F1_DIR/pos/diverging_6.idf" --no-color > "$OUT_DIR/COST_diverging.txt"
"$DAENERYS" cost "$F1_DIR/pos/diverging_6.idf" --json > "$OUT_DIR/COST_diverging.json"
grep -q '"method":"diverge"' "$OUT_DIR/COST_diverging.json"
FIRST=$(sed -n '5p' "$OUT_DIR/COST_diverging.txt" | awk '{print $1}')
[ "$FIRST" = diverge ] || {
    echo "first cost row is '$FIRST', want diverge"
    cat "$OUT_DIR/COST_diverging.txt"; exit 1;
}
for run in cold warm; do
    "$DAENERYS" cost "$F1_DIR/pos/diverging_6.idf" --no-color \
        --cache-dir "$OUT_DIR/cost-store" > "$OUT_DIR/cost_$run.txt"
done
cmp "$OUT_DIR/cost_cold.txt" "$OUT_DIR/cost_warm.txt"
cmp "$OUT_DIR/cost_cold.txt" "$OUT_DIR/COST_diverging.txt"

# --- watch-mode incremental gate ---------------------------------------
# Cold-verify the generated 1k-method corpus, then apply the scripted
# leaf-body edit and require the warm watch pass to re-verify exactly
# the generator's ground-truth cone under the wall-clock ceiling. The
# ceiling only binds on the release binary built above.
CORPUS="$OUT_DIR/corpus.idf"
"$CORPUS_GEN" --out "$CORPUS" --methods 1000 --depth 10 --seed 7
"$DAENERYS" verify "$CORPUS" --cache-dir "$STORE_DIR" --no-color \
    > "$OUT_DIR/watch_cold.txt"

# A reader that closes the pipe early ends the CLI quietly. The corpus
# is passed twice so the second report is written after `head` has
# exited. The writer's status (SIGPIPE) is ignored; its stderr must not
# show a panic.
{ "$DAENERYS" verify "$CORPUS" "$CORPUS" --no-color 2> "$OUT_DIR/pipe_stderr.txt" |
    head -1 > /dev/null; } || true
if grep -q panicked "$OUT_DIR/pipe_stderr.txt"; then
    echo "verify panicked on a closed stdout:"
    cat "$OUT_DIR/pipe_stderr.txt"; exit 1
fi

EXPECT=$("$CORPUS_GEN" --out "$CORPUS" --methods 1000 --depth 10 --seed 7 \
    --edit leaf-body --print-expected 2>/dev/null)
"$DAENERYS" watch "$CORPUS" --once --cache-dir "$STORE_DIR" --no-color \
    --expect-reverified "$EXPECT" --max-wall-ms 100 \
    > "$OUT_DIR/watch_warm.txt"
grep -q "re-verified $EXPECT," "$OUT_DIR/watch_warm.txt"
grep -q 'dirty cone:' "$OUT_DIR/watch_warm.txt"

# A byte-identical rewrite must not fire anything: the warm pass over
# the unchanged corpus re-verifies 0.
"$DAENERYS" watch "$CORPUS" --once --cache-dir "$STORE_DIR" --no-color \
    --expect-reverified 0 --max-wall-ms 100 > "$OUT_DIR/watch_noop.txt"

echo "cli smoke PASSED (leaf-body cone = $EXPECT method)"
