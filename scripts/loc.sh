#!/usr/bin/env bash
# Non-test line counts: every `.rs` file under `crates/*/src` counts up to
# its first `#[cfg(test)]` line (files under `tests/` are all test code and
# are not counted). Prints one line per crate, one for the replica module
# (`crates/core/src/replica/`) and the total.
#
# Usage: scripts/loc.sh [repo-root]   (default: the repository this script
# lives in)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
  find "$@" -name '*.rs' -print0 | sort -z |
    xargs -0 -r awk '
      FNR == 1 { done = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
      !done { n++ }
      END { print n + 0 }'
}

total=0
for dir in crates/*/; do
  [ -d "$dir/src" ] || continue
  lines=$(count "$dir/src")
  total=$((total + lines))
  printf '%-28s %6d\n' "$(basename "$dir")" "$lines"
done
printf '%-28s %6d\n' "core/src/replica" "$(count crates/core/src/replica)"
printf '%-28s %6d\n' "total" "$total"
