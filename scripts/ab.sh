#!/usr/bin/env bash
# The house rule's measurement as one command: alternate the e2e benchmark of
# a parent revision and of this checkout's working tree, pair by pair, and
# say who won.
#
#   scripts/ab.sh <parent-rev> <workload>[,<workload>…] [pairs] [seeds…]
#
# For example `scripts/ab.sh 3aa8c26 talkback,lookup,churn,analytic,nested 10`
# measures the claimed workload and checks that no other got worse, in one
# command.
#
# Builds BENCHMARK.json's command (the standalone e2e manifest, release,
# offline) twice: for <parent-rev>, exported with `git archive` under
# target/ab/<rev>/, and for the working tree as it is, uncommitted edits
# included. Each is built into its own target directory under target/ab/.
# Then, for each workload in the comma-separated list, in order, and each
# seed (default 20090104 20090105), it runs [pairs] (default
# 10) pairs of runs of e2e's default length, the parent first in odd pairs
# and the change first in even ones, prints every pair's stmt_per_s and how
# many pairs the change won, and hands the seed's result files, kept in
# target/ab/runs/<workload>/<seed>/{parent,change}/, to `e2e compare` for
# each side's medians and quartiles against BENCHMARK.json's bounds. Each
# seed ends with one line: the median of the pairs' change/parent ratios, the
# two medians, the parent's interquartile range (the exclusive method, as
# `e2e compare` computes it) and whether the house rule for a claim holds —
# the change won at least nine pairs in ten, and its median is above the
# parent's by more than the parent's IQR. The output ends with a summary: one
# line per workload and seed, that line and whether `e2e compare` found every
# metric within its bound.
#
# A claim-sized run (ten pairs or more) in which nothing failed appends one
# line for the first workload in the list, the claimed one, to
# BENCH_TRAJECTORY.jsonl: the parent, `nproc`, and per seed the pairs, wins,
# both medians, the median pair ratio and the parent's IQR (absolute and as
# a percentage of its median). `commit` is null, since the change is the
# working tree, and so is `pr`; fill them in when the change is committed.
# `calib_us` is null because an untraced run does not report
# `harness.calib_us`.
#
# Exits non-zero if any run fails (e2e exits non-zero when `failed` > 0) or
# `e2e compare` finds a metric worse than its bound.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n 's/^#   \(scripts\/ab.sh .*\)/usage: \1/p' "$0" >&2
  exit 2
fi
parent_rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
seeds=("${@:-}")
[ -n "${seeds[0]}" ] || seeds=(20090104 20090105)

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
manifest=crates/bench/src/bin/e2e/Cargo.toml
ab=target/ab
commit=$(git rev-parse --verify "$parent_rev^{commit}")
parent_tree=$ab/${commit:0:12}

# The parent, exported once per commit; the change is this checkout.
if [ ! -f "$parent_tree/$manifest" ]; then
  rm -rf "$parent_tree"
  mkdir -p "$parent_tree"
  git archive "$commit" | tar -x -C "$parent_tree"
fi
build() { # <tree> <target-dir>
  CARGO_TARGET_DIR=$root/$2 cargo build --release --quiet --offline \
    --manifest-path "$1/$manifest"
}
build "$parent_tree" "$ab/target-parent"
build "$root" "$ab/target-change"
declare -A bin=([parent]=$ab/target-parent/release/e2e [change]=$ab/target-change/release/e2e)

# `stmt_per_s <file>`: the throughput an e2e result file reports.
stmt_per_s() { sed -n 's/.*"stmt_per_s": *{"value": *\([-0-9.e+]*\).*/\1/p' "$1"; }

# `verdict <wins> <pairs> <seed>`, with one "parent change" line per pair on
# stdin: the seed's summary line, then the seed's trajectory entry (JSON).
verdict() {
  awk -v wins="$1" -v pairs="$2" -v seed="$3" '
    function sort(a, n, i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function median(a, n) { sort(a, n); return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
    # Quartile i (1 or 3) by the exclusive method; a is sorted, n >= 2.
    function quartile(a, n, i, j, delta) {
      j = int(i * (n + 1) / 4)
      if (j < 1) j = 1
      if (j > n - 1) j = n - 1
      delta = i * (n + 1) - j * 4
      return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
    }
    { n++; p[n] = $1; c[n] = $2; r[n] = $2 / $1 }
    END {
      ratio = median(r, n); pm = median(p, n); cm = median(c, n)
      iqr = n > 1 ? quartile(p, n, 3) - quartile(p, n, 1) : 0
      holds = wins * 10 >= pairs * 9 && cm - pm > iqr
      printf "median pair ratio %.3f; medians %.1f -> %.1f, parent IQR %.1f; house rule %s (%d of %d wins)\n",
        ratio, pm, cm, iqr, holds ? "holds" : "fails", wins, pairs
      printf "{\"seed\": %s, \"pairs\": %d, \"wins\": %d, \"parent_median\": %.1f, \"change_median\": %.1f, \"ratio\": %.3f, \"parent_iqr\": %.1f, \"parent_iqr_pct\": %.1f}\n",
        seed, pairs, wins, pm, cm, ratio, iqr, 100 * iqr / pm
    }'
}

failed=0
summary=()
trajectory=()
for workload in "${workloads[@]}"; do
  echo "workload $workload, ${commit:0:12} against the working tree, $pairs pairs, nproc $(nproc)"
  for seed in "${seeds[@]}"; do
    runs=$ab/runs/$workload/$seed
    rm -rf "$runs"
    mkdir -p "$runs/parent" "$runs/change"
    printf '\nseed %s\n%4s %12s %12s %8s\n' "$seed" pair parent change ratio
    wins=0
    results=""
    for i in $(seq 1 "$pairs"); do
      # Which side runs first alternates from pair to pair.
      order="parent change"
      [ $((i % 2)) = 0 ] && order="change parent"
      for side in $order; do
        out=$runs/$side/$i.json
        if ! "${bin[$side]}" --workload "$workload" --seed "$seed" \
          --json "$out" >"${out%.json}.log" 2>&1; then
          echo "the $side run $i of seed $seed failed: see ${out%.json}.log" >&2
          failed=1
        fi
      done
      p=$(stmt_per_s "$runs/parent/$i.json")
      c=$(stmt_per_s "$runs/change/$i.json")
      wins=$((wins + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c > p) }')))
      results+="$p $c"$'\n'
      awk -v i="$i" -v p="$p" -v c="$c" 'BEGIN { printf "%4d %12.1f %12.1f %8.3f\n", i, p, c, c / p }'
    done
    echo "change won $wins of $pairs pairs"
    bounds="every metric within its bound"
    "${bin[change]}" compare "$runs/parent" "$runs/change" || {
      bounds="a metric worse than its bound"
      failed=1
    }
    verdicts=$(printf '%s' "$results" | verdict "$wins" "$pairs" "$seed")
    line=${verdicts%%$'\n'*}
    [ "$workload" = "${workloads[0]}" ] && trajectory+=("${verdicts#*$'\n'}")
    printf 'seed %s: %s\n' "$seed" "$line"
    summary+=("$(printf '%-8s seed %s: %s; %s' "$workload" "$seed" "$line" "$bounds")")
  done
  echo
done

echo "summary, ${commit:0:12} against the working tree:"
printf '%s\n' "${summary[@]}"
if [ "$failed" = 0 ] && [ "$pairs" -ge 10 ]; then
  printf '{"pr": null, "commit": null, "parent": "%s", "workload": "%s", "metric": "stmt_per_s", "nproc": %s, "calib_us": null, "seeds": [%s]}\n' \
    "${commit:0:7}" "${workloads[0]}" "$(nproc)" "$(IFS=,; echo "${trajectory[*]}" | sed 's/},{/}, {/g')" \
    >>BENCH_TRAJECTORY.jsonl
  echo "appended the ${workloads[0]} line to BENCH_TRAJECTORY.jsonl"
fi
exit "$failed"
