#!/usr/bin/env bash
# The counter sweep CI gates on (about a second in release): runs every
# benchmark area, checks every area's claims, and requires the files it
# writes to be bench/baselines/ byte for byte (no file more, none less).
. "$(dirname "$0")/common.sh"
out="$REPO_ROOT/bench/out/sweep"
run_sweep "$out"
if ! diff -r "$BASELINES" "$out"; then
    echo "FAIL: the sweep in $out differs from bench/baselines/ (above);" >&2
    echo "after a deliberate counter change, run scripts/bench/regen-baselines.sh and commit the diff" >&2
    exit 1
fi
echo "PASS: the sweep reproduces bench/baselines/ byte for byte"
