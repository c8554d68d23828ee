# Shared plumbing for the counter sweep scripts. Source, don't run.
#
# Layout:
#   bench/baselines/BENCH_<area>.json   checked-in baselines: the expected
#                                       output of a sweep, byte for byte
#   bench/out/                          fresh runs (gitignored)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
BASELINES="$REPO_ROOT/bench/baselines"

# run_sweep DIR: builds `experiments` and writes every area's
# BENCH_<area>.json into DIR (its old BENCH_*.json removed first), checking
# every area's claims.
run_sweep() {
    local out="$1"

    # The harness must not inherit STAPL_* overrides: records are only
    # comparable if every run uses the explicit per-scenario configs.
    unset "${!STAPL_@}" 2>/dev/null || true

    cargo build --release -p stapl-bench --bin experiments
    mkdir -p "$out"
    rm -f "$out"/BENCH_*.json
    "$REPO_ROOT/target/release/experiments" --json "$out"
}
