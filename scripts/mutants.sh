#!/usr/bin/env bash
# Mutation check: does the test suite notice one plausible fault at a time?
#
#   scripts/mutants.sh [rev] [patch…]
#
# For each patch (default: every tests/mutants/*.patch of this checkout, in
# name order) it exports <rev> (default HEAD) with `git archive` into a
# scratch tree under target/mutants/, applies the patch there with
# `git apply`, builds the tests (`cargo test --no-run`, with no time limit)
# and then runs `cargo test -q --offline` in that tree for at most
# TEST_SECONDS. The mutant is killed when the tests fail, and the line names
# the first test that panicked (or the test binary); it is a "timeout", and
# counted as killed, when the built tests ran longer than that; it survived
# when every test passed. A patch that does not apply to <rev> is reported
# as "n/a" and not counted. Nothing is fetched: the build is offline.
#
# Each patch gets a fresh export, but all of them build into one target
# directory. `git archive` stamps every file with the commit's time, so a
# file the previous patch changed is touched after the export: cargo then
# rebuilds it from the clean source, and the crates no patch touches are
# built once.
#
# Prints one line per patch and the kill rate over the patches that applied,
# and writes the same lines to target/mutants/<rev>.tsv. Exits non-zero only
# when a patch's tree fails to build with the patch applied (a broken patch,
# not a mutant).
#
# The whole suite runs in well under a minute on two cores once built; ten
# minutes is a hang, not a slow runner.
set -euo pipefail

TEST_SECONDS=600

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
rev=${1:-HEAD}
shift $(($# > 0 ? 1 : 0))
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
  patches=(tests/mutants/*.patch)
fi
commit=$(git rev-parse --verify "$rev^{commit}")
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
mkdir -p "$work"
report=$work/${commit:0:12}.tsv
: >"$report"

previous=()
killed=0
applied=0
broken=0
timeouts=0
for patch in "${patches[@]}"; do
  patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
  name=$(basename "$patch" .patch)
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$commit" | tar -x -C "$tree"
  for file in "${previous[@]}"; do
    [ -e "$tree/$file" ] && touch "$tree/$file"
  done
  # The tree may lie inside this checkout: stop git from finding its
  # repository, or it would read the patch's paths relative to that.
  if ! (cd "$tree" && GIT_CEILING_DIRECTORIES=$work git apply "$patch" 2>/dev/null); then
    printf '%s\tn/a\tdoes not apply to %s\n' "$name" "${commit:0:12}" | tee -a "$report"
    continue
  fi
  mapfile -t previous < <(sed -n 's|^+++ b/||p' "$patch")
  applied=$((applied + 1))
  log=$work/$name.log
  status=0
  (cd "$tree" && cargo test -q --offline --no-run) >"$log" 2>&1 || status=$?
  if [ "$status" -eq 0 ]; then
    (cd "$tree" && timeout "$TEST_SECONDS" cargo test -q --offline) >>"$log" 2>&1 || status=$?
  else
    status=build
  fi
  if [ "$status" = 0 ]; then
    verdict=survived
    by=-
  elif [ "$status" = build ]; then
    verdict=broken
    by="does not build (see $log)"
    broken=$((broken + 1))
    applied=$((applied - 1))
  elif [ "$status" = 124 ]; then
    verdict=timeout
    by="tests ran past ${TEST_SECONDS}s"
    timeouts=$((timeouts + 1))
  else
    verdict=killed
    test=$(sed -n "s/^thread '\([^']*\)'.* panicked at.*/\1/p" "$log" | head -n 1)
    binary=$(sed -n 's/.*to rerun pass `\(.*\)`.*/\1/p' "$log" | head -n 1)
    by="${binary:-?} ${test:-?}"
  fi
  case $verdict in killed | timeout) killed=$((killed + 1)) ;; esac
  printf '%s\t%s\t%s\n' "$name" "$verdict" "$by" | tee -a "$report"
done

if [ "$applied" -gt 0 ]; then
  printf 'killed %d of %d mutants that apply to %s (%d%%), %d of them by timeout\n' \
    "$killed" "$applied" "${commit:0:12}" $((100 * killed / applied)) "$timeouts" | tee -a "$report"
fi
[ "$broken" -eq 0 ]
