//! The chaos soak: mixed container traffic (an all-pairs async-increment
//! storm, a misaligned bulk `p_copy`, a fenced sync-read phase) under four
//! escalating fault schedules at P ∈ {1, 2, 4}, each run's observation
//! digest compared against a clean reference run.
//!
//! This is a differential test, not the `chaos` area: the area's storm
//! (`harness::CHAOS_GATED`) sends no replies and runs at aggregation 1 so
//! that its fault draws are program-order stable and gateable; the soak's
//! replies and bulk copy make batch sequence numbers timing-dependent, so
//! it gates nothing and asserts zero divergence instead. The two share only
//! the misaligned destination's constructor.
//!
//! Every run starts from `RtsConfig::base()`, so a `STAPL_*` override in the
//! environment changes neither the reference nor the schedules. Its own
//! test binary, so no other test's threads share the cores with it.
//!
//! A lost batch hangs a run at its fence instead of failing it, so each
//! run is a case on a helper thread of its own, and a case that has not
//! finished after [`DEADLINE`] fails the soak, naming its profile and P.
//! Its stuck locations are leaked: the binary ends with the test.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use stapl_algorithms::prelude::*;
use stapl_bench::harness;
use stapl_containers::array::PArray;
use stapl_core::interfaces::ElementRead;
use stapl_rts::{FaultSchedule, RtsConfig, StatsSnapshot};

const PS: [usize; 3] = [1, 2, 4];
const N: usize = 2048;
/// How long one run may take: the whole soak takes well under a second.
const DEADLINE: Duration = Duration::from_secs(60);

/// Every location's observation digest (allgathered, so one run's result
/// carries all of them) and the counter delta of the traffic.
fn soak(p: usize, cfg: RtsConfig) -> (Vec<Vec<u64>>, StatsSnapshot) {
    harness::run(cfg, p, |loc| {
        let (nlocs, me) = (loc.nlocs(), loc.id());
        let (h, rep) = loc.register_cell(0u64);
        let src = PArray::from_fn(loc, N, |i| (i * 3 + 1) as u64);
        let dst = harness::misaligned_dst(loc, N);
        let (_, delta) = harness::timed_scoped(loc, || {
            for round in 1..=3u64 {
                for dest in (0..nlocs).filter(|&d| d != me) {
                    for j in 1..=4u64 {
                        let add = round * j;
                        loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| *c.borrow_mut() += add);
                    }
                }
                loc.rmi_fence();
            }
            p_copy(&src, &dst);
        });
        // Everything the fault schedule could plausibly have corrupted or
        // lost: the own counter, every location's counter via sync round
        // trips, and sampled copy results.
        let mut digest = vec![*rep.borrow()];
        digest.extend((0..nlocs).map(|d| loc.sync_rmi(d, h, |c: &RefCell<u64>, _| *c.borrow())));
        digest.extend((0..N).step_by(97).map(|i| dst.get_element(i)));
        (loc.allgather(digest), delta)
    })
}

/// `soak(p, cfg)` on a helper thread, failing, named `case`, if it has not
/// finished after [`DEADLINE`]; a panic in it is re-raised here.
fn soak_within_deadline(case: &str, p: usize, cfg: RtsConfig) -> (Vec<Vec<u64>>, StatsSnapshot) {
    let (tx, rx) = channel();
    // The receiver outlives the send unless the deadline passed.
    let helper = std::thread::spawn(move || drop(tx.send(soak(p, cfg))));
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => {
            panic!("soak hung: {case} did not finish within {DEADLINE:?} (a lost batch leaves a fence waiting)")
        }
        Err(RecvTimeoutError::Disconnected) => {
            resume_unwind(helper.join().expect_err("a helper that sent nothing panicked"))
        }
    }
}

/// An adversarial fabric may cost retransmissions, but it may not change
/// one observed value; recovery pays for injected damage, never multiplies
/// it; and at P=4 the severe profile exercises every recovery path.
#[test]
fn every_fault_profile_reproduces_the_clean_run() {
    let clean: Vec<Vec<Vec<u64>>> =
        PS.iter().map(|&p| soak_within_deadline(&format!("the clean run at P={p}"), p, RtsConfig::base()).0).collect();
    let profiles = [
        ("mild", "drop:0.01,corrupt:0.005"),
        ("medium", "drop:0.1,dup:0.05,reorder:0.1,corrupt:0.05"),
        ("severe", "drop:0.3,dup:0.1,reorder:0.2,corrupt:0.15,delay_us:10"),
        ("brutal", "drop:1.0"),
    ];
    let mut severe_p4 = StatsSnapshot::default();
    for (name, profile) in profiles {
        for (&p, clean) in PS.iter().zip(&clean) {
            let cfg = RtsConfig {
                faults: FaultSchedule::parse(profile).expect("soak profile parses"),
                fault_seed: 0xC4A0_5EED ^ p as u64,
                retransmit_rto_us: 2_000,
                ..RtsConfig::base()
            };
            let (digests, d) = soak_within_deadline(&format!("{name} (`{profile}`) at P={p}"), p, cfg);
            assert!(digests == *clean, "soak diverged from the clean reference under `{profile}` at P={p}");
            if p > 1 {
                assert!(
                    d.retransmits <= 4 * (d.frames_dropped + d.checksum_failures) + 16,
                    "retransmit overhead unbounded under `{profile}` at P={p}: \
                     {} redrives for {} drops + {} rejections",
                    d.retransmits,
                    d.frames_dropped,
                    d.checksum_failures
                );
            }
            if name == "severe" && p == 4 {
                severe_p4 = d;
            }
        }
    }
    assert!(severe_p4.frames_dropped > 0, "severe profile never dropped a batch");
    assert!(severe_p4.checksum_failures > 0, "severe profile never corrupted a batch");
    assert!(severe_p4.retransmits > 0, "severe profile never forced a redrive");
    assert!(severe_p4.acks_sent > 0, "reliable delivery sent no acknowledgments");
}
