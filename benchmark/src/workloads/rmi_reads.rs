//! `rmi-reads`: the same containers as `rmi-writes`, filled in set-up and
//! only read in the pass — blocking `get_element` and `find`, then
//! `split_get_element` in windows of 64 futures. It is the same RTS
//! layer used the other way: latency-bound request/response and future
//! waits. A batching or flush-policy change that buys `rmi-writes`
//! throughput at the cost of round-trip time shows up here.

use std::time::Instant;

use stapl::containers::array::PArray;
use stapl::containers::associative::PHashMap;
use stapl::core::interfaces::{
    AssociativeContainer, ElementRead, LocalIteration, PContainer, SegmentedContainer,
};
use stapl::rts::{Location, RmiFuture};

use super::{share, RefMap};
use crate::harness::{Check, Workload, PASSES};
use crate::input::{mix, rng, Digest, RngExt};
use crate::spans::{Layer, PassRec};

pub struct RmiReads;

/// Futures in flight per window of split-phase reads.
const WINDOW: usize = 64;
/// What a `find` of an absent key adds to the checksum.
const ABSENT: u64 = 0x9e37_79b9;

pub struct Input {
    n: usize,
    salt: u64,
    /// Keys `0..nkeys` are in the map; `finds` also asks for some above.
    nkeys: u64,
    gets: Vec<u32>,
    finds: Vec<u64>,
    splits: Vec<u32>,
}

pub struct State {
    a: PArray<u64>,
    h: PHashMap<u64, u64>,
    /// Keys stored on another location, for the timed blocking `find`s.
    remote_keys: Vec<u64>,
    /// Wrapping sum of everything this location read, per pass.
    sums: Vec<u64>,
}

pub struct Ref {
    a: Vec<u64>,
    h: RefMap<u64, u64>,
    sums: Vec<u64>,
}

impl Workload for RmiReads {
    const NAME: &'static str = "rmi-reads";
    const SYNC_OP: &'static str = "PHashMap::find (remote)";
    const REF_REPS: usize = 16;

    type Input = Input;
    type State = State;
    type Output = Vec<u64>;
    type Ref = Ref;

    fn generate(seed: u64, quick: bool) -> Input {
        let (n, ngets, nfinds, nsplits) = if quick {
            (1 << 12, 1 << 9, 1 << 8, 1 << 11)
        } else {
            (1 << 17, 1 << 15, 1 << 14, 1 << 16)
        };
        let mut rng = rng(seed);
        let salt = rng.random::<u64>();
        let nkeys = if quick { 1u64 << 10 } else { 1u64 << 14 };
        Input {
            n,
            salt,
            nkeys,
            gets: (0..ngets).map(|_| rng.random_range(0..n) as u32).collect(),
            // One in nine lookups misses.
            finds: (0..nfinds)
                .map(|_| rng.random_range(0..nkeys as usize * 9 / 8) as u64)
                .collect(),
            splits: (0..nsplits)
                .map(|_| rng.random_range(0..n) as u32)
                .collect(),
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut d = Digest::default();
        d.word(input.salt);
        input
            .gets
            .iter()
            .chain(&input.splits)
            .for_each(|g| d.word(u64::from(*g)));
        input.finds.iter().for_each(|k| d.word(*k));
        d.finish()
    }

    fn items_per_pass(input: &Input) -> u64 {
        (input.gets.len() + input.finds.len() + input.splits.len()) as u64
    }

    fn describe(input: &Input) -> String {
        format!(
            "{} get_element + {} split_get_element (windows of {WINDOW}) on a PArray<u64> of {} ({} KiB), {} find on a PHashMap of {} keys",
            input.gets.len(),
            input.splits.len(),
            input.n,
            (input.n * 8) >> 10,
            input.finds.len(),
            input.nkeys
        )
    }

    fn setup(loc: &Location, input: &Input) -> State {
        let a = PArray::new(loc, input.n, 0u64);
        a.for_each_local_mut(|g, v| *v = mix(g as u64 ^ input.salt));
        let h = PHashMap::new(loc);
        for k in share(input.nkeys as usize, loc.nlocs(), loc.id()) {
            h.insert_async(k as u64, mix(k as u64));
        }
        h.commit();
        let remote_keys = (0..input.nkeys)
            .filter(|k| !h.is_local_segment(h.bucket_of(k)))
            .take(1024)
            .collect();
        State {
            a,
            h,
            remote_keys,
            sums: Vec::new(),
        }
    }

    fn pass(loc: &Location, st: &mut State, input: &Input, _pass: usize, rec: &mut PassRec) {
        let (me, nlocs) = (loc.id(), loc.nlocs());
        let mut sum = 0u64;
        rec.phase("PArray::get_element loop", Layer::Containers, || {
            for &g in &input.gets[share(input.gets.len(), nlocs, me)] {
                sum = sum.wrapping_add(st.a.get_element(g as usize));
            }
        });
        rec.phase("PHashMap::find loop", Layer::Containers, || {
            for &k in &input.finds[share(input.finds.len(), nlocs, me)] {
                sum = sum.wrapping_add(st.h.find(k).unwrap_or(ABSENT));
            }
        });
        // Issuing belongs to `containers`, waiting for the values to `rts`.
        rec.phase_carved(
            "PArray::split_get_element windows",
            Layer::Containers,
            Layer::Rts,
            |wait_ns| {
                let mut window: Vec<RmiFuture<u64>> = Vec::with_capacity(WINDOW);
                for gids in input.splits[share(input.splits.len(), nlocs, me)].chunks(WINDOW) {
                    window.extend(gids.iter().map(|&g| st.a.split_get_element(g as usize)));
                    let t = Instant::now();
                    for f in window.drain(..) {
                        sum = sum.wrapping_add(f.get());
                    }
                    *wait_ns += t.elapsed().as_nanos() as u64;
                }
            },
        );
        st.sums.push(sum);
    }

    fn output(_loc: &Location, st: &State) -> Vec<u64> {
        st.sums.clone()
    }

    fn sync_op(_loc: &Location, st: &State, _input: &Input, i: usize) {
        std::hint::black_box(st.h.find(st.remote_keys[i % st.remote_keys.len()]));
    }

    fn ref_setup(input: &Input) -> Ref {
        Ref {
            a: (0..input.n).map(|g| mix(g as u64 ^ input.salt)).collect(),
            h: (0..input.nkeys).map(|k| (k, mix(k))).collect(),
            sums: Vec::new(),
        }
    }

    fn ref_pass(r: &mut Ref, input: &Input, _pass: usize) {
        let mut sum = 0u64;
        for &g in &input.gets {
            sum = sum.wrapping_add(r.a[g as usize]);
        }
        for k in &input.finds {
            sum = sum.wrapping_add(r.h.get(k).copied().unwrap_or(ABSENT));
        }
        let mut window: Vec<u64> = Vec::with_capacity(WINDOW);
        for gids in input.splits.chunks(WINDOW) {
            window.extend(gids.iter().map(|&g| r.a[g as usize]));
            for v in window.drain(..) {
                sum = sum.wrapping_add(v);
            }
        }
        r.sums.push(sum);
    }

    fn corrupt(r: &mut Ref) {
        r.sums[PASSES - 1] ^= 1;
    }

    fn verify(_input: &Input, r: &Ref, outputs: &[Vec<u64>]) -> Check {
        let mut check = Check::default();
        // The locations split the reads; their sums add up to the
        // reference's, pass by pass.
        for (pass, want) in r.sums.iter().enumerate() {
            let got = outputs.iter().fold(0u64, |t, o| {
                t.wrapping_add(o.get(pass).copied().unwrap_or(0))
            });
            check.eq(
                &format!("checksum of the values read in pass {pass}"),
                &got,
                want,
            );
        }
        check
    }
}
