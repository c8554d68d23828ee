#!/usr/bin/env bash
# The counter sweep CI gates on (about a second in release): runs every
# benchmark area, checks every area's claims, and diffs the deterministic
# counters against bench/baselines/.
. "$(dirname "$0")/common.sh"
run_sweep
