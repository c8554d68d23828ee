//! Property tests for the directory's resolution protocols: on a random
//! insert/erase/update/lookup workload with vertex *migrations*
//! interleaved, `Resolution::Forwarding` and `Resolution::TwoPhase` must
//! produce identical final states — with the owner cache enabled and
//! disabled — and every synchronous read along the way must agree with a
//! sequential model (stale cache entries may add hops, never wrong
//! answers).

use std::collections::HashMap;

use proptest::prelude::*;
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_rts::{execute_collect, RtsConfig};

/// One fuzzed step, interpreted against a replicated model so every op is
/// valid: (selector, vertex, value, migration destination).
type RawOp = (usize, usize, u64, usize);

const VD_SPACE: usize = 12;

/// Runs the workload on a dynamic pGraph under the given resolution
/// protocol and cache setting; returns the final (descriptor, property)
/// state, sorted.
fn run_workload(
    p: usize,
    kind: GraphPartitionKind,
    cached: bool,
    ops: Vec<RawOp>,
) -> Vec<(usize, u64)> {
    let base = RtsConfig::base();
    let cfg = RtsConfig { dir_cache_capacity: if cached { base.dir_cache_capacity } else { 0 }, ..base };
    execute_collect(cfg, p, move |loc| {
        let g: PGraph<u64, ()> = PGraph::new_dynamic(loc, Directedness::Directed, kind);
        loc.rmi_fence();
        // The model is maintained identically on every location (SPMD), so
        // each location knows which ops are valid without communication.
        let mut model: HashMap<usize, u64> = HashMap::new();
        for (i, &(sel, vd, val, dest)) in ops.iter().enumerate() {
            let issuer = i % loc.nlocs();
            let vd = vd % VD_SPACE;
            let dest = dest % loc.nlocs();
            match sel % 5 {
                0 => {
                    model.entry(vd).or_insert_with(|| {
                        if loc.id() == issuer {
                            g.add_vertex_with_descriptor(vd, val);
                        }
                        val
                    });
                }
                1 => {
                    if model.contains_key(&vd) {
                        if loc.id() == issuer {
                            g.delete_vertex(vd);
                        }
                        model.remove(&vd);
                    }
                }
                2 => {
                    if model.contains_key(&vd) {
                        if loc.id() == issuer {
                            g.set_vertex_property(vd, val);
                        }
                        model.insert(vd, val);
                    }
                }
                3 => {
                    // Migration: ownership moves, every peer's cached owner
                    // for `vd` goes stale.
                    if model.contains_key(&vd) && loc.id() == issuer {
                        g.migrate_vertex(vd, dest);
                    }
                }
                _ => {
                    // Synchronous read from *every* location — exercises
                    // hits, misses, and stale self-healing concurrently.
                    if let Some(&expect) = model.get(&vd) {
                        assert_eq!(
                            g.vertex_property(vd),
                            expect,
                            "read of vd {vd} diverged from the model (kind {kind:?}, \
                             cache {cached})"
                        );
                    }
                }
            }
            loc.rmi_fence();
        }
        let mut local: Vec<(usize, u64)> = Vec::new();
        g.for_each_local_vertex(|v| local.push((v.descriptor, *v.property)));
        let mut all = loc.allreduce(local, |mut a: Vec<(usize, u64)>, mut b| {
            a.append(&mut b);
            a
        });
        all.sort_unstable();
        let mut want: Vec<(usize, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(all, want, "final state diverged from the model");
        all
    })
    .remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both resolution protocols, each with the owner cache on and off,
    /// must agree with each other and with the sequential model on any
    /// workload of inserts/erases/updates/lookups with migrations
    /// interleaved.
    #[test]
    fn forwarding_and_two_phase_agree_with_and_without_cache(
        p in 2usize..4,
        ops in proptest::collection::vec(
            (0usize..100, 0usize..100, 0u64..1000, 0usize..100),
            4..16,
        ),
    ) {
        let mut results = Vec::new();
        for kind in [GraphPartitionKind::DynamicFwd, GraphPartitionKind::DynamicTwoPhase] {
            for cached in [true, false] {
                results.push((
                    kind,
                    cached,
                    run_workload(p, kind, cached, ops.clone()),
                ));
            }
        }
        let (k0, c0, first) = &results[0];
        for (kind, cache, state) in &results[1..] {
            prop_assert_eq!(
                state, first,
                "({:?}, cache {}) diverged from ({:?}, cache {})",
                kind, cache, k0, c0
            );
        }
    }
}
