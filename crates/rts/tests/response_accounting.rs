//! Regression test for response accounting: every response that crosses
//! locations — sync RMI returns, split-phase returns, explicit
//! `reply()`s at the end of a forwarding chain — must bump
//! `responses_sent` exactly once, on the **responding** location's
//! per-location twin, so the count is symmetric with the requests that
//! provoked it and `local_stats()` sums to the global. A response path
//! that bypasses the shared `send_response` funnel (the bug this pins
//! down: the split-phase handler used to count while `reply()` did not)
//! breaks the exact counts below. Checked with and without the reliable
//! layer.

use std::cell::RefCell;

use stapl_rts::{execute_collect, Location, RtsConfig, StatsSnapshot};

const SYNCS: u64 = 3;
const SPLITS: u64 = 2;
const FORWARDS: u64 = 1;

/// Star workload: every location except 0 aims `SYNCS` sync RMIs,
/// `SPLITS` split RMIs, and `FORWARDS` forwarded-reply chains at
/// location 0, while location 0 issues purely local sync RMIs (which
/// must NOT count — a local return value never becomes a response
/// message). Returns per-location and global snapshots.
fn run_star(reliable: bool, p: usize) -> (Vec<StatsSnapshot>, StatsSnapshot) {
    let cfg = RtsConfig { reliable, ..RtsConfig::base() };
    let out = execute_collect(cfg, p, |loc| {
        let me = loc.id();
        let (h, _rep) = loc.register_cell(0u64);
        loc.rmi_fence();
        if me != 0 {
            for _ in 0..SYNCS {
                let v = loc.sync_rmi(0, h, |c: &RefCell<u64>, _| {
                    *c.borrow_mut() += 1;
                    *c.borrow()
                });
                assert!(v > 0);
            }
            for _ in 0..SPLITS {
                let v = loc.split_rmi(0, h, |c: &RefCell<u64>, _| *c.borrow()).get();
                assert!(v > 0);
            }
            for _ in 0..FORWARDS {
                // Forwarding chain: me -> 0, where the handler replies
                // straight back through the explicit reply path.
                let (token, fut) = loc.make_reply_slot::<u64>();
                loc.send_request(
                    0,
                    Box::new(move |l0: &Location| {
                        let c = l0.lookup::<RefCell<u64>>(h);
                        l0.reply(token, *c.borrow());
                    }),
                );
                fut.get();
            }
        } else {
            // Local control: same primitives aimed at myself; the values
            // come back without a response message ever being sent.
            for _ in 0..SYNCS {
                loc.sync_rmi(0, h, |c: &RefCell<u64>, _| *c.borrow());
            }
        }
        loc.rmi_fence();
        (loc.local_stats(), loc.stats())
    });
    let global = out[0].1;
    (out.iter().map(|(l, _)| *l).collect(), global)
}

#[test]
fn responses_are_counted_once_on_the_responder() {
    for reliable in [false, true] {
        let kind = if reliable { "reliable" } else { "plain" };
        for p in [2usize, 4] {
            let (locals, global) = run_star(reliable, p);
            let expect = (p as u64 - 1) * (SYNCS + SPLITS + FORWARDS);
            // Symmetry: one response per remote request that asks for a
            // value — no double counting, no missed paths.
            assert_eq!(
                global.responses_sent, expect,
                "{kind} P={p}: global responses_sent"
            );
            // Attribution: every response was sent by location 0, and the
            // per-location twins sum to the global.
            assert_eq!(
                locals[0].responses_sent, expect,
                "{kind} P={p}: responder's local responses_sent"
            );
            for (id, l) in locals.iter().enumerate().skip(1) {
                assert_eq!(
                    l.responses_sent, 0,
                    "{kind} P={p}: location {id} sent no responses"
                );
            }
            let sum: u64 = locals.iter().map(|l| l.responses_sent).sum();
            assert_eq!(sum, global.responses_sent, "{kind} P={p}: locals sum to global");
        }
    }
}
