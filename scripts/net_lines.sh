#!/usr/bin/env bash
# Net non-test lines of a change: for every Rust file changed since BASE
# (the working tree, untracked files included) outside a `tests/`
# directory, count the lines before the file's first `#[cfg(test)]`
# (every line when it has none) at BASE and now, and print the
# difference per file and in total. An added file counts from 0, a
# deleted one to 0.
#
# Usage: scripts/net_lines.sh BASE      (BASE: any commit, e.g. HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:?usage: scripts/net_lines.sh BASE}
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
  echo "net_lines: unknown commit $base" >&2
  exit 2
fi

# Non-test lines of the text on stdin.
count() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

total=0
while IFS= read -r f; do
  before=$(git show "$base:$f" 2>/dev/null | count || true)
  after=0
  if [ -f "$f" ]; then
    after=$(count <"$f")
  fi
  delta=$((after - before))
  total=$((total + delta))
  printf '%+6d  %s (%d -> %d)\n' "$delta" "$f" "$before" "$after"
done < <(
  { git diff --name-only "$base" -- '*.rs'; git ls-files --others --exclude-standard -- '*.rs'; } |
    grep -v '\(^\|/\)tests/' | sort -u
)
printf '%+6d  total\n' "$total"
