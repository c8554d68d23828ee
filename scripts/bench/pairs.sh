#!/usr/bin/env bash
# Alternating parent/change pairs of one `benchmark/` workload: how a gain
# on a gated metric is claimed (benchmark/README.md "How the metrics
# interact"; the verify skill's "Judging a hot-path change").
#
#   scripts/bench/pairs.sh PARENT_CHECKOUT WORKLOAD [N=10] [FIRST_SEED=101]
#
# PARENT_CHECKOUT is a `git clone` of the parent commit (not a worktree).
# Builds each side's `stapl-benchmark` into a target directory of its own,
# runs seeds FIRST_SEED.. untraced, alternating which side goes first, each
# side from its own checkout's root into its own --out directory, then
# prints `--compare PARENT_OUT CHANGE_OUT` (medians, spreads, bounds) and,
# per gated metric and for the two derived P=2 values an RMI hot-path change
# is judged on (`solve_s`, `sync_op_p50_us`), in how many pairs the change
# read lower than the parent.
# Use seeds that were not used while writing the change. Needs two idle
# cores and no STAPL_* set; ~20 s per run, so ~7 min for ten pairs.
# PAIRS_OUT overrides where both sides' results and builds go.
set -euo pipefail
usage='usage: scripts/bench/pairs.sh PARENT_CHECKOUT WORKLOAD [N=10] [FIRST_SEED=101]'
parent=$(cd "${1:?$usage}" && pwd)
workload=${2:?$usage}
n=${3:-10}
first=${4:-101}
change=$(cd "$(dirname "$0")/../.." && pwd)
out=${PAIRS_OUT:-$change/bench/out/pairs}
unset "${!STAPL_@}" 2>/dev/null || true

build() { # checkout, target directory
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$parent" "$out/target-parent"
build "$change" "$out/target-change"

run() { # side, checkout, seed
  (cd "$2" && "$out/target-$1/release/stapl-benchmark" --workload "$workload" --seed "$3" \
    --trace 0 --out "$out/$1/$workload" >/dev/null 2> >(grep -v '^# ' >&2))
}
rm -rf "$out/parent/$workload" "$out/change/$workload"
mkdir -p "$out/parent/$workload" "$out/change/$workload"
for i in $(seq 0 $((n - 1))); do
  seed=$((first + i))
  if [ $((i % 2)) = 0 ]; then
    run parent "$parent" "$seed"; run change "$change" "$seed"
  else
    run change "$change" "$seed"; run parent "$parent" "$seed"
  fi
  echo "pair $((i + 1))/$n (seed $seed) done"
done

# The compare's exit code says whether the two sets agree; here they are
# meant not to, so it is not this script's.
"$out/target-change/release/stapl-benchmark" --compare "$out/parent/$workload" "$out/change/$workload" || true

# "value" of metric $2 in result file $1 (one `"name": {` line, then the value).
value() { awk -v m="\"$2\":" '$1 == m { getline; gsub(/,/, "", $2); print $2; exit }' "$1"; }
echo
echo "per pair, change vs parent (lower is better on all five; the last two are derived, not gated):"
for metric in abstraction_cost_x setup_s peak_rss_mb solve_s sync_op_p50_us; do
  wins=0; losses=0; row=""
  for i in $(seq 0 $((n - 1))); do
    file=$workload-s$((first + i))-t0.json
    p=$(value "$out/parent/$workload/$file" "$metric")
    c=$(value "$out/change/$workload/$file" "$metric")
    # A workload without blocking operations reports no sync_op_p50_us.
    [ -n "$p" ] && [ -n "$c" ] || continue 2
    row="$row $(printf '%.4g>%.4g' "$p" "$c")"
    case $(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? "win" : (c > p) ? "loss" : "tie" }') in
      win) wins=$((wins + 1)) ;;
      loss) losses=$((losses + 1)) ;;
    esac
  done
  printf '%-20s change wins %d, loses %d of %d  (parent>change:%s)\n' "$metric" "$wins" "$losses" "$n" "$row"
done
