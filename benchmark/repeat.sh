#!/usr/bin/env bash
# Runs two sets (A, then B) of N untraced runs per workload, seeds 1..N,
# and compares them: the same check the driver makes before it accepts
# the benchmark. Usage, from the repository root:
#
#   benchmark/repeat.sh N [OUT_DIR]        (default OUT_DIR: benchmark/out/repeat)
#
# Exit code is that of `--compare OUT_DIR/A OUT_DIR/B`.
set -euo pipefail
n=${1:?usage: benchmark/repeat.sh N [OUT_DIR]}
here=$(cd "$(dirname "$0")" && pwd)
out=${2:-$here/out/repeat}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/stapl-benchmark
workloads=$("$bin" --list | awk '/^metrics:/{exit} /^  /{print $1}')
for set in A B; do
  mkdir -p "$out/$set"
  for seed in $(seq 1 "$n"); do
    for w in $workloads; do
      "$bin" --workload "$w" --seed "$seed" --trace 0 --out "$out/$set" >/dev/null
    done
  done
done
"$bin" --compare "$out/A" "$out/B"
