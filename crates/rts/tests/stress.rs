//! RTS stress and protocol tests: deep forwarding, reply tokens, ordering
//! under heavy aggregation, and collectives with non-commutative
//! operators.

use std::cell::RefCell;

use stapl_rts::{execute, execute_collect, Location, ReplyToken, RtsConfig};

#[test]
fn forwarding_chain_of_depth_nlocs_drains_in_one_fence() {
    execute(RtsConfig::with_aggregation(4), 6, |loc| {
        let (h, rep) = loc.register(RefCell::new(0u32));
        loc.rmi_fence();
        // A request that hops through every location before landing.
        fn hop(loc: &Location, h: stapl_rts::Handle, remaining: usize) {
            if remaining == 0 {
                let cell = loc.lookup::<RefCell<u32>>(h);
                *cell.borrow_mut() += 1;
                return;
            }
            let next = (loc.id() + 1) % loc.nlocs();
            loc.async_rmi(next, h, move |_: &RefCell<u32>, l| hop(l, h, remaining - 1));
        }
        if loc.id() == 0 {
            hop(loc, h, loc.nlocs() * 3);
        }
        loc.rmi_fence();
        let total = loc.allreduce_sum(*rep.borrow() as u64);
        assert_eq!(total, 1, "exactly one landing after the chain");
    });
}

/// Fenced chains the test below runs per location count; sized to stay
/// under ~4 s in a debug build on a 2-core host.
const CHAIN_FENCES: usize = 1500;

/// Pins the read order of a fence round's verdict (`handled` before
/// `sent`), which the last location to arrive at the round's rendezvous
/// computes. While it sums the counters its peers are still executing
/// handlers, and a handler that forwards moves both sides at once — so reading
/// `sent` first can balance the books with a hop still in flight. Long
/// bouncing chains under an unbuffered fabric keep such a handler running
/// at nearly every verdict; each fence must still see its chain land.
#[test]
fn fence_waits_for_every_hop_of_a_bouncing_chain() {
    fn hop(loc: &Location, h: stapl_rts::Handle, remaining: usize) {
        if remaining == 0 {
            *loc.lookup::<RefCell<u64>>(h).borrow_mut() += 1;
            return;
        }
        // Never self: the offset is in 1..nlocs.
        let next = (loc.id() + 1 + remaining % (loc.nlocs() - 1)) % loc.nlocs();
        loc.async_rmi(next, h, move |_: &RefCell<u64>, l| hop(l, h, remaining - 1));
    }
    for p in [3usize, 4, 6] {
        execute(RtsConfig::unbuffered(), p, move |loc| {
            let (h, rep) = loc.register(RefCell::new(0u64));
            loc.rmi_fence();
            for iter in 1..=CHAIN_FENCES {
                if loc.id() == iter % p {
                    hop(loc, h, 40 + iter % 17);
                }
                loc.rmi_fence();
                let landed = loc.allreduce_sum(*rep.borrow());
                assert_eq!(landed, iter as u64, "P={p}: fence {iter} returned before its chain");
            }
        });
    }
}

#[test]
fn reply_token_completes_across_forward() {
    execute(RtsConfig::default(), 3, |loc| {
        let (h, _rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        // Request goes 0 -> 1 -> 2, and 2 replies directly to 0.
        if loc.id() == 0 {
            let (token, fut): (ReplyToken<u64>, _) = loc.make_reply_slot();
            loc.async_rmi(1, h, move |_: &RefCell<u64>, l| {
                l.async_rmi(2, h, move |_: &RefCell<u64>, l2| {
                    l2.reply(token, 42 + l2.id() as u64);
                });
            });
            assert_eq!(fut.get(), 44);
        }
        loc.rmi_fence();
    });
}

#[test]
fn heavy_aggregation_preserves_pairwise_fifo() {
    execute(RtsConfig::with_aggregation(512), 3, |loc| {
        let (h, rep) = loc.register(RefCell::new(Vec::<(usize, u32)>::new()));
        loc.rmi_fence();
        let me = loc.id();
        for k in 0..1_000u32 {
            let dest = (me + 1 + (k as usize % 2)) % loc.nlocs();
            loc.async_rmi(dest, h, move |v: &RefCell<Vec<(usize, u32)>>, _| {
                v.borrow_mut().push((me, k));
            });
        }
        loc.rmi_fence();
        // Per-source subsequences must be increasing.
        let v = rep.borrow();
        for src in 0..loc.nlocs() {
            let seq: Vec<u32> = v.iter().filter(|(s, _)| *s == src).map(|(_, k)| *k).collect();
            assert!(seq.windows(2).all(|w| w[0] < w[1]), "source {src} reordered");
        }
    });
}

#[test]
fn noncommutative_collectives_use_location_order() {
    execute(RtsConfig::default(), 4, |loc| {
        // String concatenation is order-sensitive.
        let s = loc.allreduce(loc.id().to_string(), |a, b| a + &b);
        assert_eq!(s, "0123");
        let (prefix, total) = loc.exclusive_scan(loc.id().to_string(), String::new(), |a, b| a + &b);
        assert_eq!(total, "0123");
        let expect: String = (0..loc.id()).map(|d| d.to_string()).collect();
        assert_eq!(prefix, expect);
    });
}

#[test]
fn many_registered_objects_are_isolated() {
    execute(RtsConfig::default(), 2, |loc| {
        let objs: Vec<_> = (0..50).map(|k| loc.register(RefCell::new(k as u64 * 10)).0).collect();
        loc.rmi_fence();
        for (k, h) in objs.iter().enumerate() {
            let peer = 1 - loc.id();
            let v = loc.sync_rmi(peer, *h, |c: &RefCell<u64>, _| *c.borrow());
            assert_eq!(v, k as u64 * 10);
        }
    });
}

#[test]
fn interleaved_fences_and_barriers_stay_aligned() {
    execute(RtsConfig::default(), 3, |loc| {
        let (h, rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        for round in 0..20u64 {
            loc.async_rmi((loc.id() + 1) % 3, h, |c: &RefCell<u64>, _| {
                *c.borrow_mut() += 1;
            });
            if round % 3 == 0 {
                loc.barrier();
            }
            loc.rmi_fence();
            assert_eq!(*rep.borrow(), round + 1);
            // Phase isolation: a fence guarantees all *pending* requests
            // completed, but a fast peer may exit the fence and send its
            // next-round increment while we are still spinning in the
            // fence's final (polling) barrier. Without this barrier the
            // assert above can observe round + 2 — the exact relaxed-MCM
            // subtlety Chapter VII warns about.
            loc.barrier();
        }
    });
}

#[test]
fn sync_rmi_storm_from_all_locations() {
    let totals = execute_collect(RtsConfig::default(), 4, |loc| {
        let (h, _rep) = loc.register(RefCell::new(loc.id() as u64));
        loc.rmi_fence();
        let mut acc = 0u64;
        for k in 0..200 {
            let dest = (loc.id() + 1 + k % 3) % loc.nlocs();
            acc += loc.sync_rmi(dest, h, |c: &RefCell<u64>, _| *c.borrow());
        }
        acc
    });
    assert_eq!(totals.len(), 4);
    assert!(totals.iter().all(|t| *t > 0));
}

#[test]
fn stats_fence_rounds_bounded() {
    let snaps = execute_collect(RtsConfig::default(), 4, |loc| {
        let (h, _rep) = loc.register(RefCell::new(0u64));
        loc.rmi_fence();
        loc.async_rmi((loc.id() + 1) % 4, h, |c: &RefCell<u64>, _| {
            *c.borrow_mut() += 1;
        });
        loc.rmi_fence();
        loc.stats()
    });
    // Termination detection should converge in a few rounds per fence,
    // not spin unboundedly.
    assert!(snaps[0].fence_rounds < 50, "fence rounds: {}", snaps[0].fence_rounds);
}
