//! `rmi-writes`: the paper's Fig. 24 kernel for asynchronous methods.
//! Every location issues its share of `set_element` calls on seeded
//! uniform indices (about half of them remote at P=2) and of
//! `apply_async` / `insert_async` calls on a `PHashMap`, then fences. The
//! RTS path stage → flush → channel → deliver carries the pass; `views`
//! and `algorithms` do nothing.

use stapl::containers::array::PArray;
use stapl::containers::associative::PHashMap;
use stapl::core::interfaces::{AssociativeContainer, ElementRead, ElementWrite, PContainer};
use stapl::rts::Location;

use super::{assemble, local_pieces, share, RefMap};
use crate::harness::{Check, Workload};
use crate::input::{distinct, mix, rng, Digest, RngExt};
use crate::spans::{Layer, PassRec};

pub struct RmiWrites;

pub struct Input {
    n: usize,
    /// (index, value). The first half of the list holds even indices and
    /// the second half odd ones: at P=2 each location issues one half, so
    /// no element is written by both, and the writes of one location to
    /// one element land in program order — the final array does not
    /// depend on timing. Indices repeat within a half.
    writes: Vec<(u32, u64)>,
    /// Keys `0..prefill` exist before the first pass.
    prefill: u64,
    /// (existing key, addend): additions commute, so neither does the map.
    applies: Vec<(u64, u64)>,
    /// (new key, value): keys are distinct and above `prefill`.
    inserts: Vec<(u64, u64)>,
}

pub struct State {
    a: PArray<u64>,
    h: PHashMap<u64, u64>,
}

pub struct Output {
    a: Vec<(usize, Vec<u64>)>,
    pairs: Vec<(u64, u64)>,
}

pub struct Ref {
    a: Vec<u64>,
    h: RefMap<u64, u64>,
}

impl Workload for RmiWrites {
    const NAME: &'static str = "rmi-writes";
    const SYNC_OP: &'static str = "PArray::get_element (remote)";
    const REF_REPS: usize = 4;

    type Input = Input;
    type State = State;
    type Output = Output;
    type Ref = Ref;

    fn generate(seed: u64, quick: bool) -> Input {
        let (n, nwrites, nkeys, napplies) = if quick {
            (1 << 12, 1 << 12, 1 << 9, 1 << 10)
        } else {
            (1 << 17, 1 << 19, 1 << 14, 1 << 16)
        };
        let mut rng = rng(seed);
        let writes = (0..nwrites)
            .map(|i| {
                let parity = usize::from(i >= nwrites / 2);
                (
                    (2 * rng.random_range(0..n / 2) + parity) as u32,
                    rng.random::<u64>(),
                )
            })
            .collect();
        let prefill = nkeys as u64;
        let applies = (0..napplies)
            .map(|_| (rng.random_range(0..nkeys) as u64, rng.random::<u64>()))
            .collect();
        let inserts = distinct(&mut rng, 4 * nkeys, nkeys)
            .into_iter()
            .map(|k| (prefill + u64::from(k), rng.random::<u64>()))
            .collect();
        Input {
            n,
            writes,
            prefill,
            applies,
            inserts,
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut d = Digest::default();
        d.word(input.n as u64);
        input.writes.iter().for_each(|(g, v)| {
            d.word(u64::from(*g));
            d.word(*v)
        });
        input
            .applies
            .iter()
            .chain(&input.inserts)
            .for_each(|(k, v)| {
                d.word(*k);
                d.word(*v)
            });
        d.finish()
    }

    fn items_per_pass(input: &Input) -> u64 {
        (input.writes.len() + input.applies.len() + input.inserts.len()) as u64
    }

    fn describe(input: &Input) -> String {
        format!(
            "{} set_element on a PArray<u64> of {} ({} KiB), {} apply_async + {} insert_async on a PHashMap",
            input.writes.len(),
            input.n,
            (input.n * 8) >> 10,
            input.applies.len(),
            input.inserts.len()
        )
    }

    fn setup(loc: &Location, input: &Input) -> State {
        let a = PArray::new(loc, input.n, 0u64);
        let h = PHashMap::new(loc);
        for k in share(input.prefill as usize, loc.nlocs(), loc.id()) {
            h.insert_async(k as u64, mix(k as u64));
        }
        h.commit();
        State { a, h }
    }

    fn pass(loc: &Location, st: &mut State, input: &Input, pass: usize, rec: &mut PassRec) {
        let (me, nlocs) = (loc.id(), loc.nlocs());
        let tag = pass as u64;
        rec.phase("PArray::set_element loop", Layer::Containers, || {
            for &(g, v) in &input.writes[share(input.writes.len(), nlocs, me)] {
                st.a.set_element(g as usize, v ^ tag);
            }
        });
        rec.phase("PHashMap::apply_async loop", Layer::Containers, || {
            for &(k, add) in &input.applies[share(input.applies.len(), nlocs, me)] {
                st.h.apply_async(k, move |v| *v = v.wrapping_add(add));
            }
        });
        rec.phase("PHashMap::insert_async loop", Layer::Containers, || {
            for &(k, v) in &input.inserts[share(input.inserts.len(), nlocs, me)] {
                st.h.insert_async(k, v ^ tag);
            }
        });
    }

    fn output(_loc: &Location, st: &State) -> Output {
        let mut pairs = Vec::with_capacity(st.h.local_size());
        st.h.for_each_local(|k, v| pairs.push((*k, *v)));
        Output {
            a: local_pieces(&st.a),
            pairs,
        }
    }

    fn sync_op(_loc: &Location, st: &State, input: &Input, i: usize) {
        let g = input.n / 2 + (i * 4099) % (input.n / 2);
        std::hint::black_box(st.a.get_element(g));
    }

    fn ref_setup(input: &Input) -> Ref {
        Ref {
            a: vec![0; input.n],
            h: (0..input.prefill).map(|k| (k, mix(k))).collect(),
        }
    }

    fn ref_pass(r: &mut Ref, input: &Input, pass: usize) {
        let tag = pass as u64;
        for &(g, v) in &input.writes {
            r.a[g as usize] = v ^ tag;
        }
        for &(k, add) in &input.applies {
            if let Some(v) = r.h.get_mut(&k) {
                *v = v.wrapping_add(add);
            }
        }
        for &(k, v) in &input.inserts {
            r.h.insert(k, v ^ tag);
        }
    }

    fn corrupt(r: &mut Ref) {
        let mid = r.a.len() / 2;
        r.a[mid] ^= 1;
    }

    fn verify(input: &Input, r: &Ref, outputs: &[Output]) -> Check {
        let mut check = Check::default();
        match assemble(input.n, outputs.iter().flat_map(|o| &o.a)) {
            Some(got) => check.slices("array after the last pass", &got, &r.a),
            None => check.expect(false, || "array: local pieces do not tile it".into()),
        }
        let npairs: usize = outputs.iter().map(|o| o.pairs.len()).sum();
        check.eq("map size", &npairs, &r.h.len());
        let wrong = outputs
            .iter()
            .flat_map(|o| &o.pairs)
            .find(|(k, v)| r.h.get(k) != Some(v));
        check.expect(wrong.is_none(), || {
            let (k, v) = wrong.expect("checked");
            format!("map[{k}]: got {v}, reference {:?}", r.h.get(k))
        });
        check
    }
}
