//! Scenario tests for the reliable-delivery layer and graceful RMI
//! degradation: seeded fault schedules with known outcomes (total drop,
//! total corruption, dup+reorder storms), poisoned responses from
//! panicking handlers, and the configurable RMI wait timeout.

use std::cell::RefCell;

use stapl_rts::{execute_collect, FaultSchedule, RmiError, RtsConfig};

/// A config with the given schedule (hence the reliable layer) and a
/// test-friendly retransmission timer.
fn chaos_cfg(sched: FaultSchedule, seed: u64) -> RtsConfig {
    let mut cfg = RtsConfig::base();
    cfg.aggregation = 4;
    cfg.faults = sched;
    cfg.fault_seed = seed;
    cfg.retransmit_rto_us = 300;
    cfg
}

/// Every first transmission is lost — the fence can only complete through
/// retransmission, and it must not declare quiescence while a dropped
/// batch is unacknowledged (`acked == sent` gating).
#[test]
fn fence_terminates_and_delivers_everything_under_total_drop() {
    let sched = FaultSchedule { drop: 1.0, ..FaultSchedule::default() };
    let sums = execute_collect(chaos_cfg(sched, 7), 4, |loc| {
        let (h, rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        for round in 1..=10u64 {
            for dest in 0..loc.nlocs() {
                if dest != loc.id() {
                    loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| *c.borrow_mut() += round);
                }
            }
        }
        loc.rmi_fence();
        let s = loc.stats();
        assert!(s.frames_dropped > 0, "injector never fired");
        assert!(s.retransmits > 0, "recovery never fired");
        assert!(s.acks_sent > 0, "no acknowledgments flowed");
        let v = *rep.borrow();
        v
    });
    // Each location received 1+2+...+10 from each of the 3 peers.
    assert_eq!(sums, vec![3 * 55; 4]);
}

/// Every batch has one bit flipped in flight: every first transmission is
/// rejected by its CRC (never executed, never misdecoded) and redriven.
#[test]
fn corrupt_batches_are_rejected_by_checksum_and_redriven() {
    let sched = FaultSchedule { corrupt: 1.0, ..FaultSchedule::default() };
    let sums = execute_collect(chaos_cfg(sched, 11), 3, |loc| {
        let (h, rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        for dest in 0..loc.nlocs() {
            if dest != loc.id() {
                for k in 1..=5u64 {
                    loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| *c.borrow_mut() += k);
                }
            }
        }
        loc.rmi_fence();
        let s = loc.stats();
        assert!(s.checksum_failures > 0, "no corrupt batch was ever rejected");
        assert!(s.retransmits >= s.checksum_failures, "rejected batches must be redriven");
        let v = *rep.borrow();
        v
    });
    assert_eq!(sums, vec![2 * 15; 3]);
}

/// Duplicated and reordered batches: the dedup window discards replays and
/// the reorder buffer restores per-(src, dest) FIFO, so each destination
/// observes every source's appends exactly once, in invocation order.
#[test]
fn dup_and_reorder_storm_preserves_per_pair_fifo_exactly_once() {
    let sched = FaultSchedule { dup: 0.3, reorder: 0.4, ..FaultSchedule::default() };
    let mut cfg = chaos_cfg(sched, 23);
    cfg.aggregation = 1; // one batch per request: maximal reordering surface
    let logs = execute_collect(cfg, 4, |loc| {
        let (h, rep) = loc.register(RefCell::new(Vec::<(usize, u64)>::new()));
        loc.rmi_fence();
        let me = loc.id();
        for k in 0..20u64 {
            for dest in 0..loc.nlocs() {
                if dest != me {
                    loc.async_rmi(dest, h, move |log: &RefCell<Vec<(usize, u64)>>, _| {
                        log.borrow_mut().push((me, k));
                    });
                }
            }
        }
        loc.rmi_fence();
        let v = rep.borrow().clone();
        v
    });
    for (me, log) in logs.iter().enumerate() {
        for src in 0..4 {
            if src == me {
                continue;
            }
            let from_src: Vec<u64> =
                log.iter().filter(|(s, _)| *s == src).map(|(_, k)| *k).collect();
            let expect: Vec<u64> = (0..20).collect();
            assert_eq!(
                from_src, expect,
                "location {me} saw a duplicated, lost, or reordered stream from {src}"
            );
        }
    }
}

/// A panicking remote handler poisons only the issuing future: `try_get`
/// surfaces the handler name and panic message, and the execution — other
/// RMIs included — carries on. One rule, with or without the reliable layer.
#[test]
fn handler_panic_poisons_only_the_issuing_future() {
    for reliable in [false, true] {
        handler_panic_poisons_only_the_issuing_future_on(RtsConfig { reliable, ..RtsConfig::base() });
    }
}

fn handler_panic_poisons_only_the_issuing_future_on(cfg: RtsConfig) {
    let outcomes = execute_collect(cfg, 2, |loc| {
        let (h, rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        let mut outcome = String::new();
        if loc.id() == 0 {
            let fut = loc.split_rmi(1, h, |_: &RefCell<u64>, _| -> u64 {
                panic!("intentional handler failure");
            });
            match fut.try_get() {
                Err(RmiError::HandlerPanicked { handler, message }) => {
                    assert!(
                        message.contains("intentional handler failure"),
                        "panic message lost: {message}"
                    );
                    outcome = format!("poisoned:{handler}");
                }
                other => panic!("expected HandlerPanicked, got {other:?}"),
            }
            // The runtime survived: a follow-up sync RMI still works.
            let v = loc.sync_rmi(1, h, |c: &RefCell<u64>, _| {
                *c.borrow_mut() += 1;
                *c.borrow()
            });
            assert_eq!(v, 1);
        }
        loc.rmi_fence();
        let s = loc.stats();
        assert_eq!(s.poisoned_responses, 1);
        if loc.id() == 1 {
            assert_eq!(*rep.borrow(), 1);
        }
        outcome
    });
    assert!(outcomes[0].starts_with("poisoned:"), "{:?}", outcomes[0]);
}

/// With `rmi_timeout_us` set, a wait on a reply that never comes fails
/// with a diagnostic instead of spinning forever.
#[test]
fn rmi_wait_timeout_reports_peer_handler_and_elapsed() {
    let mut cfg = RtsConfig::base();
    cfg.rmi_timeout_us = 20_000; // 20ms
    execute_collect(cfg, 2, |loc| {
        if loc.id() == 0 {
            // A reply slot whose token is deliberately never shipped: the
            // reply cannot ever arrive.
            let (_token, fut) = loc.make_reply_slot::<u64>();
            match fut.try_get() {
                Err(RmiError::Timeout { peer, handler, elapsed, .. }) => {
                    assert_eq!(peer, usize::MAX);
                    assert_eq!(handler, "<reply token>");
                    assert!(elapsed.as_micros() >= 20_000);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            // The error's rendering names everything a debugger needs.
            let e = RmiError::Timeout {
                peer: 3,
                handler: "my::handler",
                elapsed: std::time::Duration::from_millis(20),
                retransmits: 2,
            };
            let msg = e.to_string();
            assert!(msg.contains("location 3"), "{msg}");
            assert!(msg.contains("my::handler"), "{msg}");
            assert!(msg.contains("2 retransmissions"), "{msg}");
        }
        loc.rmi_fence();
    });
}

/// `STAPL_FAULTS`-style schedules compose with container-free RMI traffic
/// at every P — the satellite's fence-termination property over all the
/// bundled profiles, including total loss of the final data batch (there
/// is no "final control frame" exempt from the injector: every data batch,
/// first or last, is droppable and must be recovered).
#[test]
fn fence_terminates_under_every_bundled_profile() {
    let profiles = [
        "drop:0.3",
        "dup:0.5",
        "reorder:0.5",
        "corrupt:0.3",
        "drop:0.2,dup:0.1,reorder:0.2,corrupt:0.1,delay_us:5",
        "drop:1.0",
    ];
    for (i, profile) in profiles.iter().enumerate() {
        let sched = FaultSchedule::parse(profile).unwrap();
        for p in 1..=4usize {
            let sums = execute_collect(chaos_cfg(sched, 100 + i as u64), p, |loc| {
                let (h, rep) = loc.register(RefCell::new(0u64));
                loc.rmi_fence();
                for dest in 0..loc.nlocs() {
                    if dest != loc.id() {
                        loc.async_rmi(dest, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
                    }
                }
                loc.rmi_fence();
                let v = *rep.borrow();
                v
            });
            assert_eq!(sums, vec![(p - 1) as u64; p], "profile {profile} P={p}");
        }
    }
}
