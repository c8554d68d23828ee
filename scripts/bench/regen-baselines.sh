#!/usr/bin/env bash
# Regenerates bench/baselines/ from a fresh sweep. Use after a
# deliberate counter change, and commit the diff — the per-line counter
# layout makes the regression review part of the PR review. The files
# hold only gated (deterministic) values: on an unchanged tree this leaves
# `git status bench/baselines` clean, so any diff is a real change.
. "$(dirname "$0")/common.sh"
run_sweep "$BASELINES"
echo "baselines refreshed in $BASELINES — \`git status bench/baselines\` is clean unless a"
echo "gated counter, a record or the schema really changed; review and commit the diff"
