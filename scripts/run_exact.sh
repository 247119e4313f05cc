#!/usr/bin/env bash
# Runs one named test and fails unless exactly the expected number of
# tests ran and passed. A name filter that matches nothing passes with
# 0 tests, so without this check a renamed or deleted test would leave
# its CI step green.
#
# Usage: scripts/run_exact.sh N <cargo test args...>
#   e.g. scripts/run_exact.sh 1 -p daenerys-idf --lib smt::tests::NAME
#
# The name is matched with `--exact`, so a test, property tests
# included, runs once (N = 1).
set -euo pipefail
cd "$(dirname "$0")/.."

want=$1
shift
out=$(cargo test "$@" -- --exact 2>&1) || { echo "$out"; exit 1; }
echo "$out"
echo "$out" | grep -q "test result: ok. $want passed" \
  || { echo "expected exactly $want test(s) to run for: $*"; exit 1; }
