#!/usr/bin/env bash
# The pArray element hit is inline in the workloads' loops (DESIGN.md
# "Address resolution (Fig. 7) as implemented"). Builds the phase probe,
# which links the `benchmark/` workloads, with `--emit=asm` and fails,
# naming the symbol, if the `rmi-reads` or `rmi-writes` `Workload::pass`
# calls one of the functions the inline probe exists to keep out of it.
#
#   scripts/bench/hot-path-check.sh [CHECKOUT=this one]
#
# CHECKOUT is the tree to build (e.g. a clone of the parent commit: the
# check is meant to fail there). The build goes to HOT_PATH_OUT, by default
# bench/out/hot-path of that checkout — never under benchmark/. Needs
# `c++filt` (binutils) to demangle.
set -euo pipefail
root=$(cd "${1:-$(dirname "$0")/../..}" && pwd)
out=${HOT_PATH_OUT:-$root/bench/out/hot-path}

RUSTFLAGS=--emit=asm CARGO_TARGET_DIR=$out \
  cargo build --release --offline --quiet --manifest-path "$root/scripts/bench/phase-probe/Cargo.toml"
asm=$(ls -t "$out"/release/deps/stapl_benchmark-*.s | head -1)

# Demangled, hash suffix included, so that `with` does not match `with_cold`.
# Any reference counts: a call may go through a register loaded from the GOT.
forbidden='(stapl_containers::array::ArrayRep<T>::(with|with_mut)|stapl_containers::array::ArrayBc<T>::offset_of::strided|stapl_core::thread_safety::ThreadSafety::lock)::h[0-9a-f]+'

c++filt <"$asm" | awk -v forbidden="$forbidden" '
  # A function label (not a local .L label, not a directive): is it the pass
  # of one of the two RMI workloads, or a closure of one?
  /^[^ \t.]/ && /:$/ {
    cur = ""
    if ($0 ~ /^<stapl_benchmark::workloads::rmi_(reads::RmiReads|writes::RmiWrites) as stapl_benchmark::harness::Workload>::pass/) {
      cur = $0 ~ /rmi_reads/ ? "rmi-reads" : "rmi-writes"
      seen[cur] = 1
    }
    next
  }
  /^\.Lfunc_end/ { cur = ""; next }
  cur != "" && match($0, forbidden) {
    sym = substr($0, RSTART, RLENGTH)
    if (!((cur, sym) in said)) printf "FAIL %s Workload::pass calls %s\n", cur, sym
    said[cur, sym] = 1
  }
  cur != "" && $1 ~ /^call/ { calls[cur]++ }
  END {
    for (w in seen) n++
    if (n != 2) { print "FAIL: did not find both rmi-reads and rmi-writes Workload::pass in the assembly"; exit 1 }
    for (k in said) exit 1
    printf "PASS: rmi-reads and rmi-writes Workload::pass call none of ArrayRep::with, ArrayRep::with_mut, ArrayBc::offset_of::strided, ThreadSafety::lock (%d and %d calls to other functions)\n", calls["rmi-reads"], calls["rmi-writes"]
  }
'
