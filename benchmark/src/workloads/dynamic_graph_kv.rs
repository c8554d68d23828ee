//! `dynamic-graph-kv`: the dynamic, directory-backed containers. Each
//! pass builds a `PGraph` with `add_vertex` / `add_edge_async`, migrates
//! some vertices, runs BFS and PageRank on it, counts the words of a
//! Zipf corpus through a `MapView`, and fills and reduces a `PList`.
//! The `core` directory, owner cache and forwarding carry the pass, with
//! asynchronous and synchronous traffic mixed; it is the only workload
//! whose `dir_cache_*` counters are not zero.

use std::collections::VecDeque;

use stapl::algorithms::graph_algos::{bfs, page_rank, AlgoGraph, VProps};
use stapl::algorithms::mapreduce::word_count_kv;
use stapl::algorithms::segmented::p_reduce_segmented;
use stapl::containers::associative::PHashMap;
use stapl::containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl::containers::list::PList;
use stapl::core::interfaces::{AssociativeContainer, PContainer};
use stapl::rts::Location;
use stapl::views::assoc_view::MapView;

use super::{share, RefMap};
use crate::harness::{Check, Workload, PASSES};
use crate::input::{distinct, rng, Digest, RngExt, Zipf};
use crate::spans::{Layer, PassRec};

pub struct DynamicGraphKv;

const PAGE_RANK_ITERS: usize = 5;
const DAMPING: f64 = 0.85;
const ROOT: usize = 0;
const WORDS_PER_DOC: usize = 64;
/// PageRank sums arrive in a different order on every run.
const RANK_TOLERANCE: f64 = 1e-9;

/// False for a NaN, too.
fn ranks_agree(got: f64, want: f64) -> bool {
    (got - want).abs() <= RANK_TOLERANCE
}

pub struct Input {
    nvertices: usize,
    edges: Vec<(u32, u32)>,
    /// Distinct vertices that move to the next location.
    migrate: Vec<u32>,
    docs: Vec<String>,
    list_vals: Vec<u64>,
}

pub struct State {
    docs: PHashMap<u64, String>,
    /// The graph and word counts of the latest pass.
    last: Option<(AlgoGraph, PHashMap<String, u64>)>,
    /// Vertices that left this location in the pass, for the timed
    /// `vertex_property` calls.
    migrated_away: Vec<usize>,
    /// Per pass: reached, levels, vertices, distinct words, list sum.
    scalars: Vec<u64>,
    rank_sums: Vec<f64>,
}

pub struct Output {
    /// (descriptor, BFS level, rank, out-degree) of the local vertices.
    vertices: Vec<(usize, i64, f64, usize)>,
    words: Vec<(String, u64)>,
    scalars: Vec<u64>,
    rank_sums: Vec<f64>,
}

pub struct Ref {
    levels: Vec<i64>,
    ranks: Vec<f64>,
    degrees: Vec<usize>,
    words: RefMap<String, u64>,
    scalars: Vec<u64>,
    rank_sums: Vec<f64>,
}

impl Workload for DynamicGraphKv {
    const NAME: &'static str = "dynamic-graph-kv";
    const SYNC_OP: &'static str = "PGraph::vertex_property (migrated vertex)";
    const REF_REPS: usize = 2;

    type Input = Input;
    type State = State;
    type Output = Output;
    type Ref = Ref;

    fn generate(seed: u64, quick: bool) -> Input {
        let (nv, nmigrate, ndocs, nlist) = if quick {
            (1 << 8, 1 << 5, 1 << 5, 1 << 10)
        } else {
            (1 << 12, 1 << 9, 1 << 10, 1 << 15)
        };
        let mut rng = rng(seed);
        let edges = (0..8 * nv)
            .map(|_| {
                (
                    rng.random_range(0..nv) as u32,
                    rng.random_range(0..nv) as u32,
                )
            })
            .collect();
        let migrate = distinct(&mut rng, nv, nmigrate);
        let zipf = Zipf::new(4096);
        let docs = (0..ndocs)
            .map(|_| {
                let mut text = String::with_capacity(WORDS_PER_DOC * 6);
                for _ in 0..WORDS_PER_DOC {
                    text.push('w');
                    text.push_str(&zipf.sample(&mut rng).to_string());
                    text.push(' ');
                }
                text
            })
            .collect();
        let list_vals = (0..nlist).map(|_| rng.random::<u64>()).collect();
        Input {
            nvertices: nv,
            edges,
            migrate,
            docs,
            list_vals,
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut d = Digest::default();
        input
            .edges
            .iter()
            .for_each(|(s, t)| d.word(u64::from(*s) << 32 | u64::from(*t)));
        input.migrate.iter().for_each(|v| d.word(u64::from(*v)));
        input.docs.iter().for_each(|t| d.bytes(t.as_bytes()));
        input.list_vals.iter().for_each(|v| d.word(*v));
        d.finish()
    }

    fn items_per_pass(input: &Input) -> u64 {
        // Vertices and migrations, edges once to add and once per
        // traversal, words, list elements.
        (input.nvertices
            + input.migrate.len()
            + input.edges.len() * (2 + PAGE_RANK_ITERS)
            + input.docs.len() * WORDS_PER_DOC
            + input.list_vals.len()) as u64
    }

    fn describe(input: &Input) -> String {
        format!(
            "PGraph of {} vertices / {} edges built per pass, {} migrations, BFS + {PAGE_RANK_ITERS} PageRank iterations, {} words in {} documents, PList of {}",
            input.nvertices,
            input.edges.len(),
            input.migrate.len(),
            input.docs.len() * WORDS_PER_DOC,
            input.docs.len(),
            input.list_vals.len()
        )
    }

    fn setup(loc: &Location, input: &Input) -> State {
        let docs = PHashMap::new(loc);
        for id in share(input.docs.len(), loc.nlocs(), loc.id()) {
            docs.insert_async(id as u64, input.docs[id].clone());
        }
        docs.commit();
        let (me, nlocs) = (loc.id(), loc.nlocs());
        let migrated_away = input
            .migrate
            .iter()
            .map(|v| *v as usize)
            .filter(|v| nlocs > 1 && v % nlocs == me)
            .collect();
        State {
            docs,
            last: None,
            migrated_away,
            scalars: Vec::new(),
            rank_sums: Vec::new(),
        }
    }

    fn pass(loc: &Location, st: &mut State, input: &Input, _pass: usize, rec: &mut PassRec) {
        let (me, nlocs) = (loc.id(), loc.nlocs());
        let g: AlgoGraph = rec.phase("PGraph::new_dynamic", Layer::Containers, || {
            PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd)
        });
        rec.phase("PGraph::add_vertex loop", Layer::Containers, || {
            // Location l of P gets descriptors l, l + P, l + 2P, ..
            for _ in share(input.nvertices, nlocs, me) {
                g.add_vertex(VProps::default());
            }
        });
        rec.phase("PGraph::commit (vertices)", Layer::Containers, || {
            g.commit()
        });
        rec.phase("PGraph::add_edge_async loop", Layer::Containers, || {
            for &(s, t) in &input.edges[share(input.edges.len(), nlocs, me)] {
                g.add_edge_async(s as usize, t as usize, ());
            }
        });
        rec.phase("rmi_fence (edges)", Layer::Rts, || loc.rmi_fence());
        rec.phase("PGraph::migrate_vertex loop", Layer::Containers, || {
            for &v in &input.migrate[share(input.migrate.len(), nlocs, me)] {
                let v = v as usize;
                g.migrate_vertex(v, (v % nlocs + 1) % nlocs);
            }
        });
        rec.phase("PGraph::commit (migrations)", Layer::Containers, || {
            g.commit()
        });
        let (reached, levels) = rec.phase("bfs", Layer::Algorithms, || bfs(&g, ROOT));
        let rank_sum = rec.phase("page_rank", Layer::Algorithms, || {
            page_rank(&g, PAGE_RANK_ITERS, DAMPING)
        });

        let view = rec.phase("MapView::new", Layer::Views, || {
            MapView::new(st.docs.clone())
        });
        let counts: PHashMap<String, u64> =
            rec.phase("PHashMap::new", Layer::Containers, || PHashMap::new(loc));
        rec.phase("word_count_kv", Layer::Algorithms, || {
            word_count_kv(&view, &counts)
        });

        let list: PList<u64> = rec.phase("PList::new", Layer::Containers, || PList::new(loc));
        rec.phase("PList::push_anywhere loop", Layer::Containers, || {
            for &v in &input.list_vals[share(input.list_vals.len(), nlocs, me)] {
                list.push_anywhere(v);
            }
        });
        rec.phase("PList::commit", Layer::Containers, || list.commit());
        let list_sum = rec.phase("p_reduce_segmented", Layer::Algorithms, || {
            p_reduce_segmented(&list, |_, v| *v, |x: u64, y| x.wrapping_add(y)).unwrap_or(0)
        });

        st.scalars.extend([
            reached as u64,
            levels as u64,
            g.global_size() as u64,
            counts.global_size() as u64,
            list_sum,
        ]);
        st.rank_sums.push(rank_sum);
        st.last = Some((g, counts));
    }

    fn output(_loc: &Location, st: &State) -> Output {
        let (g, counts) = st.last.as_ref().expect("at least one pass ran");
        let mut vertices = Vec::with_capacity(g.local_num_vertices());
        g.for_each_local_vertex(|v| {
            vertices.push((
                v.descriptor,
                v.property.level,
                v.property.rank,
                v.edges.len(),
            ))
        });
        let mut words = Vec::with_capacity(counts.local_size());
        counts.for_each_local(|w, n| words.push((w.clone(), *n)));
        Output {
            vertices,
            words,
            scalars: st.scalars.clone(),
            rank_sums: st.rank_sums.clone(),
        }
    }

    fn sync_op(_loc: &Location, st: &State, _input: &Input, i: usize) {
        let (g, _) = st.last.as_ref().expect("at least one pass ran");
        std::hint::black_box(g.vertex_property(st.migrated_away[i % st.migrated_away.len()]));
    }

    fn ref_setup(input: &Input) -> Ref {
        let n = input.nvertices;
        Ref {
            levels: vec![-1; n],
            ranks: vec![0.0; n],
            degrees: vec![0; n],
            words: RefMap::default(),
            scalars: Vec::new(),
            rank_sums: Vec::new(),
        }
    }

    fn ref_pass(r: &mut Ref, input: &Input, _pass: usize) {
        let n = input.nvertices;
        // Build: an adjacency list per vertex.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(s, t) in &input.edges {
            adj[s as usize].push(t);
        }
        // Migration has no counterpart in one address space.
        // BFS levels.
        let mut level = vec![-1i64; n];
        let mut queue = VecDeque::from([ROOT]);
        level[ROOT] = 0;
        let (mut reached, mut depth) = (0u64, 0i64);
        while let Some(u) = queue.pop_front() {
            reached += 1;
            depth = depth.max(level[u]);
            for &t in &adj[u] {
                if level[t as usize] < 0 {
                    level[t as usize] = level[u] + 1;
                    queue.push_back(t as usize);
                }
            }
        }
        // PageRank, the same push formulation as the library's.
        let nf = n as f64;
        let mut rank = vec![1.0 / nf; n];
        let mut acc = vec![0.0f64; n];
        for _ in 0..PAGE_RANK_ITERS {
            let mut dangling = 0.0;
            for (u, out) in adj.iter().enumerate() {
                if out.is_empty() {
                    dangling += rank[u];
                } else {
                    let share = rank[u] / out.len() as f64;
                    for &t in out {
                        acc[t as usize] += share;
                    }
                }
            }
            for (rk, a) in rank.iter_mut().zip(acc.iter_mut()) {
                *rk = (1.0 - DAMPING) / nf + DAMPING * (*a + dangling / nf);
                *a = 0.0;
            }
        }
        // Word count.
        let mut words: RefMap<String, u64> = RefMap::default();
        for text in &input.docs {
            for w in text.split_whitespace() {
                match words.get_mut(w) {
                    Some(c) => *c += 1,
                    None => {
                        words.insert(w.to_string(), 1);
                    }
                }
            }
        }
        // List: push, then reduce.
        let mut list: Vec<u64> = Vec::new();
        for &v in &input.list_vals {
            list.push(v);
        }
        let list_sum = list.iter().fold(0u64, |t, v| t.wrapping_add(*v));

        r.scalars.extend([
            reached,
            (depth + 1) as u64,
            n as u64,
            words.len() as u64,
            list_sum,
        ]);
        r.rank_sums.push(rank.iter().sum());
        r.degrees = adj.iter().map(Vec::len).collect();
        r.levels = level;
        r.ranks = rank;
        r.words = words;
    }

    fn corrupt(r: &mut Ref) {
        let mid = r.levels.len() / 2;
        r.levels[mid] += 1;
    }

    fn verify(input: &Input, r: &Ref, outputs: &[Output]) -> Check {
        let mut check = Check::default();
        let n = input.nvertices;
        let mut levels = vec![i64::MIN; n];
        let mut ranks = vec![f64::NAN; n];
        let mut degrees = vec![usize::MAX; n];
        // A descriptor out of range, or held by two locations, is stray.
        let (mut seen, mut stray) = (0usize, 0usize);
        for &(vd, level, rank, degree) in outputs.iter().flat_map(|o| &o.vertices) {
            if vd < n && levels[vd] == i64::MIN {
                seen += 1;
                levels[vd] = level;
                ranks[vd] = rank;
                degrees[vd] = degree;
            } else {
                stray += 1;
            }
        }
        check.eq(
            "vertices stored (each exactly once)",
            &(seen, stray),
            &(n, 0),
        );
        check.slices("BFS level", &levels, &r.levels);
        check.slices("out-degree", &degrees, &r.degrees);
        let off = ranks
            .iter()
            .zip(&r.ranks)
            .position(|(g, w)| !ranks_agree(*g, *w));
        check.expect(off.is_none(), || {
            let v = off.expect("checked");
            format!(
                "PageRank of vertex {v}: got {}, reference {}",
                ranks[v], r.ranks[v]
            )
        });
        let nwords: usize = outputs.iter().map(|o| o.words.len()).sum();
        check.eq("distinct words", &nwords, &r.words.len());
        let wrong = outputs
            .iter()
            .flat_map(|o| &o.words)
            .find(|(w, c)| r.words.get(w) != Some(c));
        check.expect(wrong.is_none(), || {
            let (w, c) = wrong.expect("checked");
            format!("count of {w:?}: got {c}, reference {:?}", r.words.get(w))
        });
        for (l, o) in outputs.iter().enumerate() {
            check.slices(
                &format!(
                    "scalars of location {l} (reached, levels, vertices, words, list sum per pass)"
                ),
                &o.scalars,
                &r.scalars,
            );
            let off = o.rank_sums.len() != r.rank_sums.len()
                || o.rank_sums
                    .iter()
                    .zip(&r.rank_sums)
                    .any(|(g, w)| !ranks_agree(*g, *w));
            check.expect(!off, || {
                format!(
                    "rank sums of location {l}: got {:?}, reference {:?}",
                    o.rank_sums, r.rank_sums
                )
            });
        }
        debug_assert_eq!(r.scalars.len(), 5 * PASSES);
        check
    }
}
