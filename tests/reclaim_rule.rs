//! The reclaim rule of DESIGN.md "p_object lifetime" where it could go
//! wrong: one location done with a container long before its peer, handles
//! dropped with asynchronous requests still unfenced, a lossy fabric — and
//! the diagnostic a request to a reclaimed handle still gets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use stapl::core::interfaces::{ElementRead, ElementWrite};
use stapl::prelude::*;
use stapl::rts::FaultSchedule;

/// Location 1 is done with the array at once; location 0 goes on writing
/// and reading the half location 1 stores, across three fences.
#[test]
fn a_peer_still_using_the_container_keeps_it_registered() {
    execute(RtsConfig::default(), 2, |loc| {
        let a = PArray::new(loc, 64, 0u64);
        let live = loc.live_p_objects();
        let mine = (loc.id() == 0).then_some(a);
        for round in 1..=3 {
            if let Some(a) = &mine {
                (32..64).for_each(|g| a.set_element(g, round));
            }
            loc.rmi_fence();
            if let Some(a) = &mine {
                assert!((32..64).all(|g| a.get_element(g) == round));
            }
            assert_eq!(loc.live_p_objects(), live, "location {} reclaimed with a holder left", loc.id());
        }
        drop(mine);
        loc.barrier();
        loc.rmi_fence();
        assert_eq!(loc.live_p_objects(), live - 1);
    });
}

/// Counts its drops: a payload delivered twice, or never, shows.
struct Payload(Arc<AtomicUsize>);

impl Drop for Payload {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

const WRITES: usize = 24;

/// Location `l` enters `fences_before_drop[l]` fences, then sends `WRITES`
/// asynchronous writes round its peers and drops its handle with none of
/// them fenced.
fn drop_with_unfenced_writes(cfg: RtsConfig, nlocs: usize, fences_before_drop: &[usize]) {
    let (applied, dropped) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let last_drop = *fences_before_drop[..nlocs].iter().max().expect("a location");
    execute(cfg, nlocs, |loc| {
        let base = loc.live_p_objects();
        let mut obj = Some(PObject::register(loc, Vec::<Payload>::new()));
        for step in 0..=last_drop {
            if step == fences_before_drop[loc.id()] {
                let obj = obj.take().expect("dropped once");
                for k in 0..WRITES {
                    let (payload, applied) = (Payload(dropped.clone()), applied.clone());
                    obj.invoke_at((loc.id() + k) % nlocs, move |rep, _| {
                        applied.fetch_add(1, Ordering::SeqCst);
                        rep.borrow_mut().push(payload);
                    });
                }
            }
            loc.rmi_fence();
        }
        assert_eq!(applied.load(Ordering::SeqCst), nlocs * WRITES, "a write was lost or repeated");
        // The location that retired last found the agreement complete on
        // entering its next fence; the others on entering this one.
        assert!(loc.allgather(loc.live_p_objects()).contains(&base));
        loc.rmi_fence();
        assert_eq!(loc.live_p_objects(), base);
        loc.barrier();
        assert_eq!(dropped.load(Ordering::SeqCst), nlocs * WRITES, "reclaiming frees what was written");
    });
}

#[test]
fn handles_dropped_with_writes_still_buffered() {
    // Nothing leaves a location before it drops: 24 writes over 3 peers
    // stay under the aggregation threshold.
    drop_with_unfenced_writes(RtsConfig { aggregation: 64, ..RtsConfig::base() }, 4, &[0; 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_drop_order_any_fences_between(
        nlocs in 1usize..5,
        fences_before_drop in proptest::collection::vec(0usize..3, 4),
        faulty in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        let cfg = if faulty == 1 {
            let faults = FaultSchedule::parse("drop:0.1,dup:0.2,reorder:0.2").expect("a valid schedule");
            RtsConfig { retransmit_rto_us: 500, ..RtsConfig::with_faults(faults, seed) }
        } else {
            RtsConfig::default()
        };
        drop_with_unfenced_writes(cfg, nlocs, &fences_before_drop);
    }
}

#[test]
fn a_request_to_a_reclaimed_handle_names_the_p_object() {
    execute(RtsConfig::default(), 1, |loc| {
        let obj = PObject::register(loc, String::from("payload"));
        let h = obj.handle();
        drop(obj);
        loc.rmi_fence();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loc.async_rmi(0, h, |_: &std::cell::RefCell<String>, _| {});
        }))
        .expect_err("the handle was reclaimed");
        let msg = err.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("RefCell<alloc::string::String>") && msg.contains("unregistered"), "{msg}");
    });
}
