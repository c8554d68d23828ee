//! `array-bulk`: a static `PArray<u64>` driven through the bulk
//! algorithms. The chunk paths of `algorithms`, `views` and `containers`
//! do nearly all the work, `paragraph` some, and `rts` only fences and a
//! handful of bulk requests per pass — so a change to the RMI hot path
//! must leave this workload where it is.

use stapl::algorithms::map_func::{p_copy, p_generate, p_inner_product, p_transform};
use stapl::algorithms::numeric::p_partial_sum;
use stapl::algorithms::paragraph_algos::p_reduce_pg;
use stapl::algorithms::sorting::p_sort;
use stapl::containers::array::PArray;
use stapl::core::domain::Range1d;
use stapl::core::interfaces::{ElementRead, LocalIteration};
use stapl::core::mapper::CyclicMapper;
use stapl::core::partition::ExplicitPartition;
use stapl::paragraph::executor::ExecPolicy;
use stapl::rts::Location;
use stapl::views::array_view::ArrayView;
use stapl::views::view::ViewRead;

use super::{assemble, local_pieces};
use crate::harness::{Check, Workload, PASSES};
use crate::input::{mix, rng, Digest, RngExt};
use crate::spans::{Layer, PassRec};

pub struct ArrayBulk;

pub struct Input {
    /// Elements of the bulk arrays: 8 MiB each at full size, so that the
    /// three of them do not fit a core's 4 MiB L2 at P=1 or at P=2. This is
    /// the workload on the out-of-cache side; the other three stay in L2.
    n: usize,
    /// Times the chain of bulk algorithms runs over the arrays per pass.
    sweeps: usize,
    /// Elements reduced through the task-graph executor: a window of `b`
    /// centred on the location boundary, so both locations own tasks.
    n_pg: usize,
    /// Seeded sort keys.
    keys: Vec<u64>,
    salt: u64,
}

pub struct State {
    a: PArray<u64>,
    b: PArray<u64>,
    /// Same domain as `a`, but cut at n/4 instead of n/2: copying into it
    /// sends a quarter of the array across the location boundary.
    c: PArray<u64>,
    keys_src: PArray<u64>,
    keys: PArray<u64>,
    scalars: Vec<u64>,
}

/// One location's part of an array: (first gid, values) per local piece.
type Pieces = Vec<(usize, Vec<u64>)>;

pub struct Output {
    a: Pieces,
    b: Pieces,
    c: Pieces,
    keys: Pieces,
    scalars: Vec<u64>,
}

pub struct Ref {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
    keys: Vec<u64>,
    scalars: Vec<u64>,
}

impl Input {
    fn pg_window(&self) -> Range1d {
        Range1d::new(self.n / 2 - self.n_pg / 2, self.n / 2 + self.n_pg / 2)
    }
}

/// What `p_generate` writes at index `i` in sweep `sweep` (counted over
/// the whole instance, so every sweep writes new values).
fn gen(salt: u64, sweep: usize, i: usize) -> u64 {
    mix(i as u64 ^ salt.wrapping_add(sweep as u64))
}

fn step(x: &u64) -> u64 {
    x.wrapping_mul(3).wrapping_add(1)
}

impl Workload for ArrayBulk {
    const NAME: &'static str = "array-bulk";
    const SYNC_OP: &'static str = "PArray::get_element (remote)";
    const REF_REPS: usize = 1;

    type Input = Input;
    type State = State;
    type Output = Output;
    type Ref = Ref;

    fn generate(seed: u64, quick: bool) -> Input {
        let (n, sweeps, n_pg, m) = if quick {
            (1 << 12, 2, 1 << 10, 1 << 11)
        } else {
            (1 << 20, 2, 1 << 15, 1 << 17)
        };
        let mut rng = rng(seed);
        let salt = rng.random::<u64>();
        Input {
            n,
            sweeps,
            n_pg,
            keys: (0..m).map(|_| rng.random::<u64>()).collect(),
            salt,
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut d = Digest::default();
        d.word(input.n as u64);
        d.word(input.salt);
        input.keys.iter().for_each(|k| d.word(*k));
        d.finish()
    }

    fn items_per_pass(input: &Input) -> u64 {
        // Elements written or read by the eight bulk calls of a sweep,
        // plus the executor's window and the keys.
        (8 * input.n * input.sweeps + input.n_pg + 2 * input.keys.len()) as u64
    }

    fn describe(input: &Input) -> String {
        format!(
            "{} sweeps over 3 x PArray<u64> of {} elements ({} KiB each), {} executor-reduced, {} sort keys",
            input.sweeps,
            input.n,
            (input.n * 8) >> 10,
            input.n_pg,
            input.keys.len()
        )
    }

    fn setup(loc: &Location, input: &Input) -> State {
        let n = input.n;
        let a = PArray::new(loc, n, 0u64);
        let b = PArray::new(loc, n, 0u64);
        let c = PArray::with_partition(
            loc,
            Box::new(ExplicitPartition::from_sizes(&[n / 4, n - n / 4])),
            Box::new(CyclicMapper::new(loc.nlocs())),
            0u64,
        );
        let keys_src = PArray::new(loc, input.keys.len(), 0u64);
        keys_src.for_each_local_mut(|g, v| *v = input.keys[g]);
        let keys = PArray::new(loc, input.keys.len(), 0u64);
        State {
            a,
            b,
            c,
            keys_src,
            keys,
            scalars: Vec::new(),
        }
    }

    fn pass(loc: &Location, st: &mut State, input: &Input, pass: usize, rec: &mut PassRec) {
        let salt = input.salt;
        let (a, b, c) = (&st.a, &st.b, &st.c);
        let vc = rec.phase("ArrayView::new", Layer::Views, || ArrayView::new(c.clone()));
        for sweep in pass * input.sweeps..(pass + 1) * input.sweeps {
            rec.phase("p_generate", Layer::Algorithms, || {
                p_generate(a, |g| gen(salt, sweep, g))
            });
            rec.phase("p_copy (aligned)", Layer::Algorithms, || p_copy(a, b));
            rec.phase("p_copy (shifted cut)", Layer::Algorithms, || p_copy(a, c));
            rec.phase("p_transform", Layer::Algorithms, || p_transform(a, b, step));
            let dot = rec.phase("p_inner_product", Layer::Algorithms, || {
                p_inner_product(a, b)
            });
            rec.phase("p_partial_sum", Layer::Algorithms, || {
                p_partial_sum(b, 0u64, |x, y| x.wrapping_add(*y))
            });
            let local_c = rec.phase("ArrayView::for_each_chunk", Layer::Views, || {
                let mut acc = 0u64;
                vc.for_each_chunk(|lo, s| {
                    for (k, x) in s.iter().enumerate() {
                        acc = acc.wrapping_add(x ^ (lo + k) as u64);
                    }
                });
                acc
            });
            let sum_c = rec.phase("allreduce", Layer::Rts, || {
                loc.allreduce(local_c, |x, y| x.wrapping_add(y))
            });
            st.scalars.extend([dot, sum_c]);
        }
        let vb = rec.phase("ArrayView::over", Layer::Views, || {
            ArrayView::over(b.clone(), input.pg_window())
        });
        let sum_pg = rec.phase("p_reduce_pg", Layer::Paragraph, || {
            p_reduce_pg(
                &vb,
                ExecPolicy::default(),
                |_, x| x,
                |x: u64, y| x.wrapping_add(y),
            )
        });
        rec.phase("p_copy (keys)", Layer::Algorithms, || {
            p_copy(&st.keys_src, &st.keys)
        });
        rec.phase("p_sort", Layer::Algorithms, || p_sort(&st.keys));
        st.scalars.push(sum_pg.unwrap_or(0));
    }

    fn output(_loc: &Location, st: &State) -> Output {
        Output {
            a: local_pieces(&st.a),
            b: local_pieces(&st.b),
            c: local_pieces(&st.c),
            keys: local_pieces(&st.keys),
            scalars: st.scalars.clone(),
        }
    }

    fn sync_op(_loc: &Location, st: &State, input: &Input, i: usize) {
        // Elements of the upper half live on location 1.
        let g = input.n / 2 + (i * 4099) % (input.n / 2);
        std::hint::black_box(st.a.get_element(g));
    }

    fn ref_setup(input: &Input) -> Ref {
        let n = input.n;
        Ref {
            a: vec![0; n],
            b: vec![0; n],
            c: vec![0; n],
            keys: vec![0; input.keys.len()],
            scalars: Vec::new(),
        }
    }

    fn ref_pass(r: &mut Ref, input: &Input, pass: usize) {
        let salt = input.salt;
        for sweep in pass * input.sweeps..(pass + 1) * input.sweeps {
            for (i, x) in r.a.iter_mut().enumerate() {
                *x = gen(salt, sweep, i);
            }
            r.b.copy_from_slice(&r.a);
            r.c.copy_from_slice(&r.a);
            for (y, x) in r.b.iter_mut().zip(&r.a) {
                *y = step(x);
            }
            let dot =
                r.a.iter()
                    .zip(&r.b)
                    .fold(0u64, |t, (x, y)| t.wrapping_add(x.wrapping_mul(*y)));
            let mut acc = 0u64;
            for y in r.b.iter_mut() {
                acc = acc.wrapping_add(*y);
                *y = acc;
            }
            let sum_c =
                r.c.iter()
                    .enumerate()
                    .fold(0u64, |t, (i, x)| t.wrapping_add(x ^ i as u64));
            r.scalars.extend([dot, sum_c]);
        }
        let sum_pg = r.b[input.pg_window().iter()]
            .iter()
            .fold(0u64, |t, x| t.wrapping_add(*x));
        r.keys.copy_from_slice(&input.keys);
        r.keys.sort_unstable();
        r.scalars.push(sum_pg);
    }

    fn corrupt(r: &mut Ref) {
        let mid = r.keys.len() / 2;
        r.keys[mid] ^= 1;
    }

    fn verify(input: &Input, r: &Ref, outputs: &[Output]) -> Check {
        let mut check = Check::default();
        let mut whole = |what: &str, pick: fn(&Output) -> &Pieces, want: &[u64]| match assemble(
            want.len(),
            outputs.iter().flat_map(pick),
        ) {
            Some(got) => check.slices(what, &got, want),
            None => check.expect(false, || {
                format!("{what}: local pieces do not tile the array")
            }),
        };
        whole("a (generated)", |o| &o.a, &r.a);
        whole("b (prefix sums)", |o| &o.b, &r.b);
        whole("c (copy across the cut)", |o| &o.c, &r.c);
        whole("keys (sorted)", |o| &o.keys, &r.keys);
        // Every location computed the same global scalars in every pass.
        for (l, o) in outputs.iter().enumerate() {
            check.slices(
                &format!("scalars of location {l} (dot and sum_c per sweep, sum_pg per pass)"),
                &o.scalars,
                &r.scalars,
            );
        }
        debug_assert_eq!(r.scalars.len(), (2 * input.sweeps + 1) * PASSES);
        check
    }
}
