#!/usr/bin/env bash
# The pArray element hit and the pHashMap hit are inline in the workloads'
# loops, and their misses locate the owner without an indirect call
# (DESIGN.md "Address resolution (Fig. 7) as implemented" and "Hashing").
# Builds the phase probe, which links the `benchmark/` workloads, with
# `--emit=asm` and fails, naming the symbol, if:
#   - the `rmi-reads` or `rmi-writes` `Workload::pass` calls one of the
#     functions the inline paths exist to keep out of it — pArray's probe
#     and resolution, pHashMap's `find` and `update_async`, any
#     `KeyPartition` method;
#   - that pass, or a miss path — `ArrayRep::far`, `PAssoc::find_at_owner`,
#     `PAssoc::update_at_owner` — calls through a vtable slot (`call
#     *N(%reg)`, or `call *%reg` on a register the function loads no GOT
#     entry into);
#   - one of those five functions is not in the assembly (the newest `.s`
#     of every crate the probe builds).
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
# The newest `.s` of each crate: a generic the workloads share with an
# upstream crate (`ArrayRep::far`) is emitted there, not in the benchmark's.
asm=$(ls -t "$out"/release/deps/*.s | awk '{ c = $0; sub(/-[0-9a-f]+\.s$/, "", c) } !(c in s) { s[c]; print }')

# Demangled, hash suffix included, so that `with` does not match `with_cold`.
# Any reference counts: a call may go through a register loaded from the GOT.
array='stapl_containers::array::ArrayRep<T>::(with|with_mut)|stapl_containers::array::ArrayBc<T>::strided_offset'
assoc='<stapl_containers::associative::PAssoc<K,V,S> as stapl_core::interfaces::AssociativeContainer<K>>::find|stapl_containers::associative::PAssoc<K,V,S>::update_async(::\{\{closure\}\})?|as stapl_core::partition::KeyPartition<K>>::[a-z_]+'
forbidden="($array|$assoc)::h[0-9a-f]+"

cat $asm | c++filt | awk -v forbidden="$forbidden" '
  # A function label (not a local .L label, not a directive): is it the pass
  # of one of the two RMI workloads, or a miss path? `cur` names it in a
  # FAIL line; only a pass is held to the forbidden symbols.
  /^[^ \t.]/ && /:$/ {
    cur = ""
    pass = 0
    split("", got)
    split("", via)
    if ($0 ~ /^<stapl_benchmark::workloads::rmi_(reads::RmiReads|writes::RmiWrites) as stapl_benchmark::harness::Workload>::pass/) {
      cur = ($0 ~ /rmi_reads/ ? "rmi-reads" : "rmi-writes") " Workload::pass"
      pass = 1
    } else if ($0 ~ /^stapl_containers::array::ArrayRep<T>::far::h[0-9a-f]+:$/) {
      cur = "ArrayRep::far"
    } else if ($0 ~ /^stapl_containers::associative::PAssoc<K,V,S>::(find|update)_at_owner::h[0-9a-f]+:$/) {
      cur = $0 ~ /find_at_owner/ ? "PAssoc::find_at_owner" : "PAssoc::update_at_owner"
    }
    if (cur != "") seen[cur] = 1
    next
  }
  /^\.Lfunc_end/ && cur != "" {
    for (reg in via) if (!(reg in got)) {
      sym = "a vtable slot, *" reg
      if (!((cur, sym) in said)) printf "FAIL %s calls %s\n", cur, sym
      said[cur, sym] = 1
    }
    cur = ""
    next
  }
  pass && cur != "" && match($0, forbidden) {
    sym = substr($0, RSTART, RLENGTH)
    if (!((cur, sym) in said)) printf "FAIL %s calls %s\n", cur, sym
    said[cur, sym] = 1
  }
  # A call through a memory operand on a register base is a vtable slot (a
  # GOT entry is `sym@GOTPCREL(%rip)`).
  cur != "" && $1 ~ /^call/ && $2 ~ /^\*-?[0-9]*\(%r[a-z0-9]+\)$/ && $2 !~ /%rip/ {
    sym = "a vtable slot, " $2
    if (!((cur, sym) in said)) printf "FAIL %s calls %s\n", cur, sym
    said[cur, sym] = 1
  }
  # So is a call through a register, unless the function loads a GOT entry
  # into that register somewhere: LLVM hoists the address of a named
  # function into a callee-saved register out of a loop. Block order is not
  # control flow, so the register is judged at the function end.
  cur != "" && $1 ~ /^call/ && $2 ~ /^\*%r[a-z0-9]+$/ { via[substr($2, 2)] = 1 }
  cur != "" && /@GOTPCREL\(%rip\), %r[a-z0-9]+$/ { got[$NF] = 1 }
  pass && cur != "" && $1 ~ /^call/ { calls[cur]++ }
  END {
    split("rmi-reads Workload::pass,rmi-writes Workload::pass,ArrayRep::far,PAssoc::find_at_owner,PAssoc::update_at_owner", want, ",")
    for (i in want) if (!(want[i] in seen)) { printf "FAIL: did not find %s in the assembly\n", want[i]; missing = 1 }
    if (missing) exit 1
    for (k in said) exit 1
    printf "PASS: rmi-reads and rmi-writes Workload::pass call none of ArrayRep::with, ArrayRep::with_mut, ArrayBc::strided_offset, PAssoc::find, PAssoc::update_async, a KeyPartition method or a vtable slot (%d and %d calls to other functions); ArrayRep::far, PAssoc::find_at_owner and PAssoc::update_at_owner call no vtable slot\n", calls["rmi-reads Workload::pass"], calls["rmi-writes Workload::pass"]
  }
'
