#!/usr/bin/env bash
# Self-test of the counter gate itself (run by CI after kick-tires.sh):
#   1. determinism: two sweeps must write byte-identical files (a
#      BENCH_*.json holds only what is gated) — the property the whole
#      gate rests on;
#   2. sensitivity: each of five edits to a copy of a sweep must make
#      `diff -r`, the gate kick-tires.sh applies, fail.
. "$(dirname "$0")/common.sh"

out_a="$REPO_ROOT/bench/out/selftest-a"
out_b="$REPO_ROOT/bench/out/selftest-b"
edited="$REPO_ROOT/bench/out/selftest-edited"

run_sweep "$out_a"
run_sweep "$out_b"

echo "== selftest 1: run-to-run determinism (diff -r) =="
diff -r "$out_a" "$out_b"

echo "== selftest 2: every edit must be caught =="
# must_fail WHAT CMD...: copies run A, applies CMD inside the copy, and
# requires the gate to reject the result.
must_fail() {
    local what="$1"
    shift
    rm -rf "$edited"
    cp -r "$out_a" "$edited"
    (cd "$edited" && "$@")
    if diff -r "$out_a" "$edited" > /dev/null; then
        echo "FATAL: the gate passed $what" >&2
        exit 1
    fi
    echo "caught: $what"
}
# A counter edit moves the first nonzero value of that counter in the file.
must_fail "remote_requests +1 in one record" \
    perl -0pi -e 's/"remote_requests": ([1-9][0-9]*)/"remote_requests": ${\($1+1)}/' BENCH_directory.json
must_fail "localized_chunks -1 in one record" \
    perl -0pi -e 's/"localized_chunks": ([1-9][0-9]*)/"localized_chunks": ${\($1-1)}/' BENCH_localization.json
must_fail "a record deleted" \
    perl -0pi -e 's/    \{\n      "id": "word-count\/p4\/words800\/per-pair".*?\n    \},\n//s' BENCH_dynamic.json
must_fail "a stray BENCH_extra.json" \
    cp BENCH_chaos.json BENCH_extra.json
must_fail "an area's file removed" \
    rm BENCH_transport.json
rm -rf "$edited"
echo "every edit rejected — the gate is live"
