//! Differential property tests for the reliable layer: a random
//! async/sync/split/bulk RMI workload — including forwarding chains, the
//! RTS-level shape of a container migration (request hops via a third
//! location before the owner replies to the origin) — must produce
//! **identical results and identical deterministic counters** on the plain
//! path, under the reliable layer with nothing injected, and under the
//! reliable layer over a faulty fabric, for P ∈ {1..4} and several
//! aggregation widths.
//!
//! Only the deterministic counters participate: timing-dependent ones
//! (`batches_sent`, `fence_rounds`, the recovery counters)
//! are not compared.
//!
//! And FIFO across runs: whatever the interleaving of methods, handles and
//! forwarded boxes toward one destination, execution order is staging
//! order — combining joins only *consecutive* requests of one method on
//! one handle — on all three paths, at the aggregation widths of the CI
//! matrix.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use stapl_rts::{execute_collect, Counter, FaultSchedule, Location, RtsConfig, StatsSnapshot};

/// One mutation op, encoded with raw picks so a single strategy covers
/// every P (picks are reduced mod `nlocs` at execution time):
/// `(which, (a, b, c), add, items)` where `which` selects
/// 0 = async increment, 1 = bulk-tagged async, 2 = forwarded reply.
type RawOp = (u8, (usize, usize, usize), u64, Vec<u64>);

/// The per-counter views compared between runs.
type CounterView = fn(&StatsSnapshot) -> u64;

const DETERMINISTIC: &[(&str, CounterView)] = &[
    ("local_invocations", |s| s.local_invocations),
    ("remote_requests", |s| s.remote_requests),
    ("responses_sent", |s| s.responses_sent),
    ("bulk_requests", |s| s.bulk_requests),
    ("segment_requests", |s| s.segment_requests),
    ("gather_items", |s| s.gather_items),
    ("bytes_sent", |s| s.bytes_sent),
];

struct RunOut {
    digests: Vec<Vec<u64>>,
    locals: Vec<StatsSnapshot>,
    global: StatsSnapshot,
}

/// Executes the workload once, with or without the reliable layer, and
/// collects per-location digests (every observed value, in program order)
/// plus stats.
fn run(reliable: bool, aggregation: usize, p: usize, rounds: &[Vec<RawOp>]) -> RunOut {
    run_with(RtsConfig { reliable, aggregation, ..RtsConfig::base() }, p, rounds)
}

/// Same workload under an arbitrary configuration (used by the fault
/// differential test to aim a seeded injector at the fabric).
fn run_with(cfg: RtsConfig, p: usize, rounds: &[Vec<RawOp>]) -> RunOut {
    let out = execute_collect(cfg, p, |loc| {
        let me = loc.id();
        let n = loc.nlocs();
        let (h, _rep) = loc.register_cell(0u64);
        loc.rmi_fence();
        let mut digest: Vec<u64> = Vec::new();
        for (ri, round) in rounds.iter().enumerate() {
            // Mutation phase: each location issues its own ops.
            for (which, (a, b, c), add, items) in round {
                match which {
                    0 => {
                        let (src, dest, add) = (a % n, b % n, *add);
                        if src == me {
                            loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| {
                                *c.borrow_mut() += add;
                            });
                        }
                    }
                    1 => {
                        let (src, dest) = (a % n, b % n);
                        if src == me {
                            let items = items.clone();
                            if dest != me {
                                // Mirror the containers' bulk path: tag the
                                // request immediately before issuing it.
                                loc.count(Counter::bulk_requests, 1);
                            }
                            loc.async_rmi(dest, h, move |c: &RefCell<u64>, _| {
                                *c.borrow_mut() += items.iter().sum::<u64>();
                            });
                        }
                    }
                    _ => {
                        let (src, via, dest) = (a % n, b % n, c % n);
                        if src == me {
                            // Forwarding chain (migration-shaped): origin →
                            // via → dest, who mutates and replies straight
                            // to the origin's reply slot.
                            let (token, fut) = loc.make_reply_slot::<u64>();
                            let k = (via + dest) as u64;
                            loc.send_request(
                                via,
                                Box::new(move |l1: &Location| {
                                    l1.send_request(
                                        dest,
                                        Box::new(move |l2: &Location| {
                                            let c = l2.lookup::<RefCell<u64>>(h);
                                            *c.borrow_mut() += 1;
                                            l2.reply(token, k);
                                        }),
                                    );
                                }),
                            );
                            digest.push(fut.get());
                        }
                    }
                }
            }
            loc.rmi_fence();
            // Read phase over settled state: deterministic values no matter
            // how the mutation-phase messages interleaved.
            for d in 0..n {
                let v = if ri % 2 == 0 {
                    loc.sync_rmi(d, h, |c: &RefCell<u64>, _| *c.borrow())
                } else {
                    loc.split_rmi(d, h, |c: &RefCell<u64>, _| *c.borrow()).get()
                };
                digest.push(v);
            }
            // Keep the next round's mutations from racing this read phase.
            loc.rmi_fence();
        }
        loc.rmi_fence();
        (digest, loc.local_stats(), loc.stats())
    });
    let global = out[0].2;
    RunOut {
        digests: out.iter().map(|(d, _, _)| d.clone()).collect(),
        locals: out.iter().map(|(_, l, _)| *l).collect(),
        global,
    }
}

/// One representative of the FIFO property: which p_object it is, and the
/// log every p_object of its location appends `(sequence number, p_object)`
/// to.
struct Logged {
    id: usize,
    log: Rc<RefCell<Vec<(usize, usize)>>>,
}

impl Logged {
    fn note(&self, seq: usize) {
        self.log.borrow_mut().push((seq, self.id));
    }
}

/// Location 0 stages `ops` — `(method, handle)` picks: four methods of
/// different capture sizes (one of them none) and a forwarded box, over
/// three handles — toward location 1; returns location 1's log and
/// location 0's `(remote_requests, bytes_sent)`.
fn staged_order(cfg: RtsConfig, ops: &[(u8, usize)]) -> (Vec<(usize, usize)>, (u64, u64)) {
    let out = execute_collect(cfg, 2, |loc| {
        let log = Rc::new(RefCell::new(Vec::new()));
        let handles: Vec<_> = (0..3).map(|id| loc.register(Logged { id, log: log.clone() }).0).collect();
        loc.rmi_fence();
        let before = loc.local_stats();
        if loc.id() == 0 {
            for (seq, &(method, pick)) in ops.iter().enumerate() {
                let h = handles[pick];
                match method {
                    // No capture: it claims the sequence number it must have.
                    0 => loc.async_rmi(1, h, |o: &Logged, _| {
                        let seq = o.log.borrow().len();
                        o.note(seq)
                    }),
                    1 => loc.async_rmi(1, h, move |o: &Logged, _| o.note(seq)),
                    2 => {
                        let pad = [seq as u64; 3];
                        loc.async_rmi(1, h, move |o: &Logged, _| o.note(pad[2] as usize))
                    }
                    3 => {
                        let small = seq as u16;
                        loc.async_rmi(1, h, move |o: &Logged, _| o.note(small as usize))
                    }
                    _ => loc.send_request(1, Box::new(move |l: &Location| l.lookup::<Logged>(h).note(seq))),
                }
            }
        }
        loc.rmi_fence();
        let sent = loc.local_stats().since(&before);
        let seen = log.borrow().clone();
        (seen, (sent.remote_requests, sent.bytes_sent))
    });
    (out[1].0.clone(), out[0].1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn execution_order_is_staging_order_across_runs(
        seed in 1u64..u64::MAX,
        ops in proptest::collection::vec((0u8..5, 0usize..3), 0..200),
    ) {
        let expect: Vec<(usize, usize)> = ops.iter().enumerate().map(|(seq, &(_, pick))| (seq, pick)).collect();
        for aggregation in [1, 16, 64] {
            let plain = staged_order(RtsConfig { aggregation, ..RtsConfig::base() }, &ops);
            prop_assert_eq!(&plain.0, &expect, "plain path, aggregation {}", aggregation);
            prop_assert_eq!(plain.1 .0, ops.len() as u64);

            let reliable = staged_order(RtsConfig { aggregation, reliable: true, ..RtsConfig::base() }, &ops);
            prop_assert_eq!(&reliable, &plain, "reliable layer, aggregation {}", aggregation);

            let mut cfg = RtsConfig { aggregation, retransmit_rto_us: 300, fault_seed: seed, ..RtsConfig::base() };
            cfg.faults = FaultSchedule::parse("drop:0.1,dup:0.15,reorder:0.25,corrupt:0.05").unwrap();
            let faulty = staged_order(cfg, &ops);
            prop_assert_eq!(&faulty, &plain, "faulty fabric, aggregation {}, seed {}", aggregation, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reliable_layer_changes_no_result_and_no_counter(
        p in 1usize..5,
        agg_pick in 0usize..3,
        rounds in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..3, (0usize..8, 0usize..8, 0usize..8), 1u64..100,
                 proptest::collection::vec(1u64..50, 0..5)),
                0..7,
            ),
            1..3,
        ),
    ) {
        let aggregation = [1, 2, 16][agg_pick];
        let plain = run(false, aggregation, p, &rounds);
        let reliable = run(true, aggregation, p, &rounds);

        // Identical observable results, location by location.
        prop_assert_eq!(&plain.digests, &reliable.digests);

        // Identical deterministic counters, per location and globally.
        for (name, get) in DETERMINISTIC {
            prop_assert_eq!(
                get(&plain.global), get(&reliable.global),
                "global {} diverged under the reliable layer", name
            );
            for id in 0..p {
                prop_assert_eq!(
                    get(&plain.locals[id]), get(&reliable.locals[id]),
                    "location {} {} diverged under the reliable layer", id, name
                );
            }
            // The per-location twins must sum to the global either way
            // (the `local_stats` invariant).
            for r in [&plain, &reliable] {
                let sum: u64 = r.locals.iter().map(*get).sum();
                prop_assert_eq!(sum, get(&r.global), "sum of local {} != global", name);
            }
        }

        // The plain path runs no protocol at all.
        prop_assert_eq!(plain.global.acks_sent + plain.global.retransmits, 0);
        prop_assert_eq!(reliable.global.frames_dropped, 0);
    }

    /// The differential guarantee of the reliable layer: over an
    /// *adversarial fabric* — batches dropped, duplicated, reordered,
    /// corrupted, delayed by the seeded injector — a run still produces
    /// exactly the observable results of the plain path, because the
    /// checksum rejects corruption and the ack/retransmit protocol redrives
    /// lost batches in order. Deterministic counters must agree too: the
    /// layer may only add `frames_dropped`/`retransmits`-class traffic,
    /// never change what the program observed.
    #[test]
    fn faulty_fabric_matches_plain_delivery(
        p in 1usize..5,
        profile_pick in 0usize..4,
        seed in 1u64..u64::MAX,
        rounds in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..3, (0usize..8, 0usize..8, 0usize..8), 1u64..100,
                 proptest::collection::vec(1u64..50, 0..5)),
                0..7,
            ),
            1..3,
        ),
    ) {
        let profile = [
            "drop:0.05,corrupt:0.02",
            "dup:0.2,reorder:0.3",
            "drop:0.15,dup:0.1,reorder:0.15,corrupt:0.05,delay_us:10",
            "drop:1.0", // every first transmission lost; only retransmits arrive
        ][profile_pick];
        let clean = run(false, 2, p, &rounds);

        // The schedule alone switches the layer on.
        let mut cfg = RtsConfig { aggregation: 2, ..RtsConfig::base() };
        cfg.faults = FaultSchedule::parse(profile).unwrap();
        cfg.fault_seed = seed;
        cfg.retransmit_rto_us = 300; // keep redrives fast under test
        let faulty = run_with(cfg, p, &rounds);

        prop_assert_eq!(&clean.digests, &faulty.digests,
            "profile {} seed {} diverged", profile, seed);
        for (name, get) in DETERMINISTIC {
            prop_assert_eq!(
                get(&clean.global), get(&faulty.global),
                "global {} diverged under profile {}", name, profile
            );
        }
        // The fence over acked requests completed, so every injected loss
        // was recovered; under a lossy profile the recovery machinery must
        // actually have fired.
        if profile.contains("drop:1.0") {
            prop_assert!(faulty.global.frames_dropped > 0 || faulty.global.remote_requests == 0);
            // `frames_dropped` counts requests, `retransmits` counts batch
            // redrives: any loss must be answered by at least one redrive.
            prop_assert!(faulty.global.frames_dropped == 0 || faulty.global.retransmits > 0);
        }
    }
}
