#!/usr/bin/env bash
# Self-test of the regression gate itself (run by CI after kick-tires.sh):
#   1. determinism: two sweeps must write byte-identical files
#      (a BENCH_*.json holds only what is gated) and agree with --exact
#      (zero tolerance) — the property the whole counter gate rests on;
#   2. sensitivity: a synthetic counter regression injected into one run
#      must make bench-compare exit nonzero.
. "$(dirname "$0")/common.sh"

out_a="$REPO_ROOT/bench/out/selftest-a"
out_b="$REPO_ROOT/bench/out/selftest-b"

unset "${!STAPL_@}" 2>/dev/null || true
cargo build --release -p stapl-bench --bin experiments --bin bench-compare
rm -rf "$out_a" "$out_b"
"$REPO_ROOT/target/release/experiments" --json "$out_a"
"$REPO_ROOT/target/release/experiments" --json "$out_b"

echo "== selftest 1: run-to-run determinism (diff -r, --exact) =="
diff -r "$out_a" "$out_b"
"$REPO_ROOT/target/release/bench-compare" "$out_a" "$out_b" --exact

echo "== selftest 2: synthetic regression must be caught =="
# Inflate every remote_requests counter by 100x in run B.
sed -i -E 's/"remote_requests": ([0-9]+)/"remote_requests": \100/' \
    "$out_b"/BENCH_*.json
if "$REPO_ROOT/target/release/bench-compare" "$out_a" "$out_b"; then
    echo "FATAL: bench-compare did not flag a 100x remote_requests regression" >&2
    exit 1
fi
echo "synthetic regression correctly rejected — gate is live"
