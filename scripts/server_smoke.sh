#!/usr/bin/env bash
# Server smoke: start the daemon, chaos-replay the F1 corpus over it
# (full wire-fault matrix + a fault-free reference pass), SIGTERM, and
# assert a graceful drain — the daemon exits 0 on its own, reports
# zero leaked sessions, and leaves an uncorrupted verdict store (each
# request's commit wrote it; the drain writes nothing). The replay
# driver enforces the bit-identical chaos gate AND the admission
# conservation invariant (its mid-run health scrapes) via its own exit
# code.
#
# The admin plane is smoked alongside: daenerys-top scrapes live
# metrics/health while the chaos replay hammers the daemon, the trace
# tail must revalidate through trace_validate, SIGUSR1 must produce a
# live snapshot line without stopping the daemon, and the final health
# scrape must conserve. One over-deep JSON frame and one over-deep
# IDF source must be refused, and one over-deep term answered
# `unknown`, without taking the daemon down.
# Artifacts: BENCH_server.json, the daemon's final metrics snapshot,
# the mid-run daenerys-top frames, one raw metrics scrape, the health
# body, the streamed trace tail, and the four probe answers.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR=${1:-target/server-smoke}
STORE_DIR="$OUT_DIR/store"
mkdir -p "$OUT_DIR"
rm -rf "$STORE_DIR"

cargo build --release -p daenerysd -p daenerys-bench

# A check that fails exits through `set -e`; on any exit, stop the
# daemon and daenerys-top if they are still running. Each PID is
# cleared once its process has been waited for.
DAEMON_PID=""
TOP_PID=""
stop_children() {
    for pid in $DAEMON_PID $TOP_PID; do
        kill "$pid" 2>/dev/null || true
    done
}
trap stop_children EXIT

LOG="$OUT_DIR/daenerysd.log"
./target/release/daenerysd \
    --cache-dir "$STORE_DIR" \
    --metrics-out "$OUT_DIR/metrics.json" > "$LOG" 2>&1 &
DAEMON_PID=$!

# Scrape the ephemeral port from the startup line.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^daenerysd listening on //p' "$LOG" | head -1)
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "daemon died during startup"; cat "$LOG"; exit 1;
    }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "daemon never reported an address"; cat "$LOG"; exit 1; }

# Chaos replay against the live daemon; non-zero exit = gate failure
# (a lost request, a verdict that diverged under chaos, a mid-run
# health scrape that violated the conservation ledger, ...). The admin
# plane is scraped concurrently: daenerys-top renders live frames off
# the same listener while the replay saturates it.
./target/release/daenerys-top --addr "$ADDR" --interval-ms 500 \
    --frames 8 --no-clear > "$OUT_DIR/daenerys-top.txt" 2>&1 &
TOP_PID=$!
./target/release/server_replay --addr "$ADDR" --requests 96 \
    --out "$OUT_DIR/BENCH_server.json"
TOP_STATUS=0
wait "$TOP_PID" || TOP_STATUS=$?
TOP_PID=""
[ "$TOP_STATUS" -eq 0 ] || {
    echo "daenerys-top exited $TOP_STATUS under load"
    cat "$OUT_DIR/daenerys-top.txt"; exit 1;
}
grep -q 'conserved yes' "$OUT_DIR/daenerys-top.txt"
grep -q '^tenant-' "$OUT_DIR/daenerys-top.txt"

# One live scrape, kept raw. The daemon keeps one ledger: after the
# replay it holds request latencies, and every cell is the daemon's own
# (`daenerysd.*`) or a store-upkeep cell (`store.*`).
./target/release/daenerys-top --addr "$ADDR" --raw --frames 1 \
    > "$OUT_DIR/metrics_scrape.json"
grep -q '"name":"daenerysd.latency_us"' "$OUT_DIR/metrics_scrape.json" \
    || { echo "scrape has no daenerysd.latency_us:"; cat "$OUT_DIR/metrics_scrape.json"; exit 1; }
FOREIGN=$(grep -o '"name":"[^"]*"' "$OUT_DIR/metrics_scrape.json" \
    | grep -v '^"name":"\(daenerysd\|store\)\.' || true)
[ -z "$FOREIGN" ] || { echo "scrape cells outside the daemon's ledger:"; echo "$FOREIGN"; exit 1; }

# The replay's own conservation gate ran mid-chaos; the final ledger
# must conserve too (daenerys-top --health exits non-zero otherwise).
./target/release/daenerys-top --addr "$ADDR" --health \
    > "$OUT_DIR/health.json"

# The trace tail is a stream: every tailed event must revalidate as
# JSONL through the same validator the bench traces use.
./target/release/daenerys-top --addr "$ADDR" --tail \
    > "$OUT_DIR/trace_tail.jsonl" 2> "$OUT_DIR/trace_tail.summary"
test -s "$OUT_DIR/trace_tail.jsonl"
./target/release/trace_validate "$OUT_DIR/trace_tail.jsonl"

# SIGUSR1: a live snapshot line on stdout, daemon keeps serving.
kill -USR1 "$DAEMON_PID"
SNAPSHOT_SEEN=""
for _ in $(seq 1 100); do
    if grep -q '^daenerysd snapshot {' "$LOG"; then SNAPSHOT_SEEN=1; break; fi
    sleep 0.1
done
[ -n "$SNAPSHOT_SEEN" ] || { echo "no snapshot after SIGUSR1"; cat "$LOG"; exit 1; }
./target/release/daenerys-top --addr "$ADDR" --health > /dev/null \
    || { echo "daemon stopped answering after SIGUSR1"; exit 1; }

# Nesting caps: one frame over the JSON reader's depth cap and one
# source over the IDF parser's, each sent raw over bash's /dev/tcp, are
# answered `bad_request` and `parse`; a normal request right after is
# still verified. Without the caps either frame aborts the daemon.
probe() {
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    printf 'DAE1 %d\n%s\n' "${#1}" "$1" >&3
    local header
    IFS= read -r header <&3
    head -c "${header#DAE1 }" <&3
    exec 3<&-
}
DEEP_JSON=$(printf '{"id":1,"tenant":"smoke","source":"x","z":%s%s}' \
    "$(printf '[%.0s' $(seq 1 10000))" "$(printf ']%.0s' $(seq 1 10000))")
probe "$DEEP_JSON" > "$OUT_DIR/deep_json.json"
grep -q '"code":"bad_request"' "$OUT_DIR/deep_json.json" \
    || { echo "over-deep JSON frame:"; cat "$OUT_DIR/deep_json.json"; exit 1; }
DEEP_IDF=$(printf '{"id":2,"tenant":"smoke","source":"method m() returns (r: Int) { r := %s1%s }"}' \
    "$(printf '(%.0s' $(seq 1 1000))" "$(printf ')%.0s' $(seq 1 1000))")
probe "$DEEP_IDF" > "$OUT_DIR/deep_idf.json"
grep -q '"code":"parse"' "$OUT_DIR/deep_idf.json" \
    || { echo "over-deep IDF source:"; cat "$OUT_DIR/deep_idf.json"; exit 1; }
# A term's depth grows with the statements that build it: 20 000
# statements `r := r + y` parse (no AST node is deeper than 3) and are
# answered `unknown` on the `terms` budget axis once the term passes
# the verifier's depth bound. Without the bound the session overflows
# its stack and aborts the daemon.
DEEP_TERM=$(printf '{"id":4,"tenant":"smoke","source":"method m(y: Int) returns (r: Int) ensures r == 20000 * y { r := 0%s }"}' \
    "$(printf '; r := r + y%.0s' $(seq 1 20000))")
probe "$DEEP_TERM" > "$OUT_DIR/deep_term.json"
grep -q '"detail":"budget exhausted (terms)[^"]*","verdict":"unknown"' "$OUT_DIR/deep_term.json" \
    || { echo "over-deep term:"; cat "$OUT_DIR/deep_term.json"; exit 1; }
probe '{"id":3,"tenant":"smoke","source":"method m() returns (r: Int) ensures r == 1 { r := 1 }"}' \
    > "$OUT_DIR/after_deep.json"
grep -q '"status":"ok"' "$OUT_DIR/after_deep.json" \
    || { echo "not served after the deep frames:"; cat "$OUT_DIR/after_deep.json"; exit 1; }

# The BENCH server block carries the phase attribution the scrapes saw.
grep -q '"server":{' "$OUT_DIR/BENCH_server.json"
grep -q '"phases":{' "$OUT_DIR/BENCH_server.json"
grep -q '"conserved_failures":0' "$OUT_DIR/BENCH_server.json"

# Graceful drain: on SIGTERM the daemon must finish in-flight work,
# write its snapshot, and exit 0 by itself.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
DAEMON_PID=""
[ "$DAEMON_STATUS" -eq 0 ] || {
    echo "daemon exited $DAEMON_STATUS after SIGTERM"; cat "$LOG"; exit 1;
}

# Zero leaked sessions and zero contained panics (the external-daemon
# replay cannot see either), store clean, written as the one DAES1
# file (the store's only encoding).
grep -q '"leaked_sessions":0' "$OUT_DIR/metrics.json"
grep -q '"internal_crashes":0' "$OUT_DIR/metrics.json"
grep -q '"store_corrupt_lines":0' "$OUT_DIR/metrics.json"
test -s "$STORE_DIR/verdicts.daes"

echo "server smoke PASSED ($ADDR)"
cat "$OUT_DIR/metrics.json"
