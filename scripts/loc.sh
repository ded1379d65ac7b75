#!/usr/bin/env bash
# Non-test line counts: every `.rs` file under `crates/*/src` counts all its
# lines except each `#[cfg(test)]` item — the attribute line and the item
# it applies to, up to its matching closing brace or, for an item with no
# body (a field, a `use`, a `const`), its closing `;` or `,` outside any
# parentheses or brackets. A `,` does not end an item inside a `where`
# clause. Files under `tests/` are all test code and are not counted.
# Delimiters are counted naively, so an unbalanced one in a string or char
# literal inside a test item miscounts, as does a generic parameter list
# broken over lines. Prints one line per crate, one for the replica module
# (`crates/core/src/replica/`) and the total. `scripts/loc-fixture/` is a
# tree with known counts, checked by `scripts/ci.sh`.
#
# Usage: scripts/loc.sh [repo-root]   (default: the repository this script
# lives in)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
  find "$@" -name '*.rs' -print0 | sort -z |
    xargs -0 -r awk '
      FNR == 1 { skip = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ {
        skip = 1; depth = 0; nest = 0; opened = 0; inwhere = 0; next
      }
      skip {
        line = $0
        o = gsub(/\{/, "", line)
        c = gsub(/\}/, "", line)
        depth += o - c
        nest += gsub(/[([]/, "", line) - gsub(/[])]/, "", line)
        if (o > 0) opened = 1
        if ($0 ~ /(^|[^[:alnum:]_])where([^[:alnum:]_]|$)/) inwhere = 1
        if (opened) {
          if (depth <= 0) skip = 0
        } else if (nest <= 0 && ($0 ~ /;[[:space:]]*$/ || (!inwhere && $0 ~ /,[[:space:]]*$/))) {
          skip = 0
        }
        next
      }
      { n++ }
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
