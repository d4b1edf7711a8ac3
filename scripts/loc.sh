#!/usr/bin/env bash
# Rust lines per crate outside crates/shims, split into shipped and test
# lines: a file is shipped up to its first `#[cfg(test)]` and test from there
# on; a `tests.rs` (a unit-test module kept in its own file) and everything
# under `tests/` is test. Blank lines and comments count: this is the number
# ROADMAP's "Current state" keeps, not a complexity measure.
#
#   scripts/loc.sh [checkout]      (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-22s %8s %8s %8s\n' package shipped test total
total_shipped=0
total_test=0
for dir in crates/*/ examples/ tests/; do
  dir=${dir%/}
  [ "$dir" = crates/shims ] && continue
  [ -d "$dir" ] || continue
  counts=$(find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | sort -z |
    xargs -0 -r awk -v all_test="$([ "$dir" = tests ] && echo 1 || echo 0)" '
      FNR == 1 { in_test = all_test || FILENAME ~ /(^|\/)tests\.rs$/ }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
      { if (in_test) test++; else shipped++ }
      END { print shipped + 0, test + 0 }')
  read -r shipped test <<<"${counts:-0 0}"
  printf '%-22s %8d %8d %8d\n' "$dir" "$shipped" "$test" $((shipped + test))
  total_shipped=$((total_shipped + shipped))
  total_test=$((total_test + test))
done
printf '%-22s %8d %8d %8d\n' total "$total_shipped" "$total_test" $((total_shipped + total_test))
