//! Memory-consistency-model tests (Chapter VII): the executable version
//! of the paper's guarantees and counterexamples.

use stapl::core::mapper::GeneralMapper;
use stapl::core::partition::BalancedPartition;
use stapl::prelude::*;

/// Each location's flag is stored on the *other* location, so writing
/// one's own flag is a remote asynchronous RMI while reading the peer's
/// flag is a local access — the placement under which Dekker's algorithm
/// exposes the relaxed model.
fn dekker_flags(loc: &stapl_rts::Location) -> PArray<u64> {
    PArray::with_partition(
        loc,
        BalancedPartition::new(2, 2),
        GeneralMapper::new(2, vec![1, 0]),
        0u64,
    )
}

/// Dekker's mutual-exclusion flags (Fig. 22b): under the default MCM with
/// asynchronous writes, both locations can read 0 — the model is *not*
/// sequentially consistent. With the write in flight while the (local)
/// read completes, the violation is essentially guaranteed.
#[test]
fn dekker_violation_under_async_writes() {
    let mut both_zero_seen = false;
    for _ in 0..10 {
        let reads = stapl::rts::execute_collect(RtsConfig::with_aggregation(64), 2, |loc| {
            let flags = dekker_flags(loc);
            loc.rmi_fence();
            let me = loc.id();
            let other = 1 - me;
            flags.set_element(me, 1); // async write to my (remote) flag
            let seen = flags.get_element(other); // read of the other's (local) flag
            loc.rmi_fence();
            seen
        });
        if reads == vec![0, 0] {
            both_zero_seen = true;
        }
    }
    assert!(
        both_zero_seen,
        "async-write Dekker never read (0, 0); the default MCM should admit it"
    );
}

/// Claim 3 of Chapter VII: restricting the interface to synchronous
/// methods restores sequential consistency — both-zero becomes
/// impossible because each write completes before the next operation.
#[test]
fn dekker_safe_with_sync_only_methods() {
    for _ in 0..25 {
        let reads = stapl::rts::execute_collect(RtsConfig::default(), 2, |loc| {
            let flags = dekker_flags(loc);
            loc.rmi_fence();
            let me = loc.id();
            let other = 1 - me;
            // Synchronous write: apply_get blocks until the owner ran it.
            flags.apply_get(me, |v| *v = 1);
            let seen = flags.get_element(other);
            loc.rmi_fence();
            seen
        });
        assert_ne!(reads, vec![0, 0], "sync-only Dekker must never read (0, 0)");
    }
}

/// Same-source, same-element program order: the paper's guarantee 4 —
/// a read after N async writes to the same element returns the last one.
#[test]
fn per_element_program_order() {
    execute(RtsConfig::with_aggregation(8), 3, |loc| {
        let a = PArray::new(loc, 3, 0u64);
        loc.rmi_fence();
        let target = (loc.id() + 1) % 3;
        for k in 1..=50u64 {
            a.set_element(target, loc.id() as u64 * 1000 + k);
        }
        // Synchronous read on the same element forces the pending asyncs
        // from this source (guarantee: ACKs for same element in order).
        assert_eq!(a.get_element(target), loc.id() as u64 * 1000 + 50);
        loc.rmi_fence();
    });
}

/// Different elements may complete out of order — but a fence completes
/// everything (the completion guarantee of Section VII.B).
#[test]
fn fence_completes_all_pending_asyncs() {
    execute(RtsConfig::with_aggregation(256), 4, |loc| {
        let a = PArray::new(loc, 400, 0u64);
        loc.rmi_fence();
        if loc.id() == 0 {
            for i in 0..400 {
                a.set_element(i, i as u64 + 1);
            }
        }
        loc.rmi_fence();
        // After the fence every write is visible everywhere.
        for i in (0..400).step_by(37) {
            assert_eq!(a.get_element(i), i as u64 + 1);
        }
    });
}

/// Split-phase semantics: the future's `get` is the acknowledgment; work
/// can overlap, and the returned value reflects all earlier same-source
/// operations on that element.
#[test]
fn split_phase_read_observes_earlier_writes() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 2, 0i64);
        loc.rmi_fence();
        let other = 1 - loc.id();
        a.set_element(other, 7); // async
        let fut = a.split_get_element(other); // split-phase after async: same element
        assert_eq!(fut.get(), 7);
        loc.rmi_fence();
    });
}

/// The paper's example interleaving (Fig. 19): S7/S8/S9 — a split-phase
/// read issued before a same-source write must return the old value.
#[test]
fn program_order_split_read_before_write() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 4, 0u64);
        loc.rmi_fence();
        if loc.id() == 1 {
            let fut = a.split_get_element(3); // S7: read x (old value 0)
            a.set_element(3, 8); // S8: write x
            assert_eq!(fut.get(), 0, "S9 must see the pre-write value");
        }
        loc.rmi_fence();
        assert_eq!(a.get_element(3), 8);
    });
}

/// Concurrent writers to the same element: after a fence all locations
/// agree on one of the written values (Section VII.C's a-but-unknown).
#[test]
fn concurrent_writes_converge_to_single_value() {
    let values = stapl::rts::execute_collect(RtsConfig::default(), 4, |loc| {
        let a = PArray::new(loc, 1, usize::MAX);
        loc.rmi_fence();
        a.set_element(0, loc.id());
        loc.rmi_fence();
        a.get_element(0)
    });
    assert!(values[0] < 4, "value must be one of the writes");
    assert!(values.iter().all(|v| *v == values[0]), "all locations must agree: {values:?}");
}

/// Liveness: every method invocation gets an acknowledgment — a stress
/// mix of flavors completes (no lost messages under aggregation).
#[test]
fn liveness_under_mixed_flavors() {
    execute(RtsConfig::with_aggregation(32), 4, |loc| {
        let a = PArray::new(loc, 64, 0u64);
        loc.rmi_fence();
        let mut pending = Vec::new();
        for k in 0..64 {
            let g = (loc.id() * 17 + k * 5) % 64;
            match k % 3 {
                0 => a.set_element(g, k as u64),
                1 => pending.push(a.split_get_element(g)),
                _ => {
                    let _ = a.get_element(g);
                }
            }
        }
        for f in pending {
            let _ = f.get();
        }
        loc.rmi_fence();
    });
}
