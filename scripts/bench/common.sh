# Shared plumbing for the counter sweep scripts. Source, don't run.
#
# Layout:
#   bench/baselines/BENCH_<area>.json   checked-in baselines
#   bench/out/                          fresh runs (gitignored)
#
# Env knobs:
#   BENCH_OUT      output dir for the fresh run (default bench/out/sweep)
#   BENCH_COMPARE  "0" to skip the baseline gate (e.g. while iterating)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
BASELINES="$REPO_ROOT/bench/baselines"

run_sweep() {
    local out="${BENCH_OUT:-$REPO_ROOT/bench/out/sweep}"

    # The harness must not inherit STAPL_* overrides: records are only
    # comparable if every run uses the explicit per-scenario configs.
    unset "${!STAPL_@}" 2>/dev/null || true

    cargo build --release -p stapl-bench --bin experiments --bin bench-compare
    rm -rf "$out"
    "$REPO_ROOT/target/release/experiments" --json "$out"

    if [ "${BENCH_COMPARE:-1}" = "1" ]; then
        # Every fresh record must match a baseline record, and vice versa.
        "$REPO_ROOT/target/release/bench-compare" "$BASELINES" "$out"
    else
        echo "bench-compare skipped (BENCH_COMPARE=0); fresh run in $out"
    fi
}
