//! Model test for the pGraph edge store: a location keeps its vertices'
//! out-edges in one buffer, the edges added since the last read in a log
//! that the first reader needing them grouped merges. On seeded random
//! operation streams — `add_vertex`, `add_vertex_with_descriptor`,
//! `add_edge_async` (duplicates and self-loops included),
//! `delete_edge_async`, `delete_vertex`, `migrate_vertex` — at P = 1..3,
//! under every `GraphPartitionKind`, directed and undirected, every read
//! interleaved with them agrees with a `BTreeMap` of per-vertex edge lists:
//! `out_edges`, `find_edge`, `out_degree`, the counts after `commit`, each
//! location's `for_each_local_vertex` (order, edges and their order), and
//! the (vertex, target) sequence `scatter` visits. Every edge carries the
//! id of the operation that added it, so a merge that reorders a vertex's
//! edges or loses one shows. Each operation is issued by one location and
//! fenced, so arrival order is the model's. Seeded, so a failure names a
//! case that reproduces.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_containers::graph::{Directedness, Edge, GraphPartitionKind, PGraph, VertexDesc};
use stapl_core::interfaces::PContainer;
use stapl_rts::{execute, LocId, Location, RtsConfig};

const CASES: u64 = 40;
const OPS: usize = 80;
/// A static graph's vertex count.
const STATIC_N: usize = 10;

/// A vertex records, per location, the sources a `scatter` pushed to it.
type Graph = PGraph<Vec<(LocId, VertexDesc)>, u32>;

/// Per vertex: (owner, out-edges as (target, id) in arrival order).
type Model = BTreeMap<VertexDesc, (LocId, Vec<(VertexDesc, u32)>)>;

#[derive(Debug)]
enum Op {
    AddVertex,
    AddVertexWith(VertexDesc),
    AddEdge(VertexDesc, VertexDesc),
    DeleteEdge(VertexDesc, VertexDesc),
    /// Its in-edges from other vertices are deleted first, so no edge
    /// dangles. Issued anywhere: the owner unregisters the vertex after
    /// deleting it.
    DeleteVertex(VertexDesc),
    Migrate(VertexDesc, LocId),
    /// `Read(v, t)`: `out_edges(v)`, `out_degree(v)`, `find_edge(v, t)`.
    Read(VertexDesc, VertexDesc),
    /// Collective: counts, local sweeps and a scatter.
    Sweep,
}

struct Case {
    nlocs: usize,
    kind: GraphPartitionKind,
    directedness: Directedness,
    seed: u64,
}

impl Case {
    fn name(&self) -> String {
        format!("P={} {:?} {:?} seed {}", self.nlocs, self.kind, self.directedness, self.seed)
    }
}

/// The model and the generator of each location's next descriptor, which
/// every location keeps identically: each draws the same operations.
struct World {
    model: Model,
    next_vd: Vec<VertexDesc>,
    explicit: usize,
    edge_id: u32,
}

impl World {
    fn undirected(dir: Directedness, s: VertexDesc, t: VertexDesc) -> bool {
        dir == Directedness::Undirected && s != t
    }

    fn add_edge(&mut self, dir: Directedness, s: VertexDesc, t: VertexDesc) -> u32 {
        self.edge_id += 1;
        let id = self.edge_id;
        self.model.get_mut(&s).unwrap().1.push((t, id));
        if Self::undirected(dir, s, t) {
            self.model.get_mut(&t).unwrap().1.push((s, id));
        }
        id
    }

    fn delete_edge(&mut self, dir: Directedness, s: VertexDesc, t: VertexDesc) {
        let mut unlink = |from: VertexDesc, to: VertexDesc| {
            let edges = &mut self.model.get_mut(&from).unwrap().1;
            if let Some(k) = edges.iter().position(|e| e.0 == to) {
                edges.remove(k);
            }
        };
        unlink(s, t);
        if Self::undirected(dir, s, t) {
            unlink(t, s);
        }
    }

    /// A vertex of the model, uniformly.
    fn pick(&self, rng: &mut StdRng) -> Option<VertexDesc> {
        let n = self.model.len();
        (n > 0).then(|| *self.model.keys().nth(rng.random_range(0..n)).unwrap())
    }

    /// An edge of the model (source, target), else any pair of vertices.
    fn pick_edge(&self, rng: &mut StdRng) -> Option<(VertexDesc, VertexDesc)> {
        let s = self.pick(rng)?;
        let edges = &self.model[&s].1;
        if !edges.is_empty() && rng.random_bool(0.7) {
            return Some((s, edges[rng.random_range(0..edges.len())].0));
        }
        Some((s, self.pick(rng)?))
    }

    fn draw(&mut self, rng: &mut StdRng, case: &Case) -> Op {
        let dynamic = case.kind != GraphPartitionKind::Static;
        loop {
            let op = match rng.random_range(0..20) {
                0..=1 if dynamic => Op::AddVertex,
                2 if dynamic => {
                    // In the issuer's own stride, past anything it handed
                    // out: a new descriptor no other location generates.
                    self.explicit += 1;
                    Op::AddVertexWith(1000 * case.nlocs * self.explicit)
                }
                3..=9 => match self.pick_edge(rng) {
                    // A self-loop now and then, and duplicates.
                    Some((s, _)) if rng.random_bool(0.1) => Op::AddEdge(s, s),
                    Some((s, t)) => Op::AddEdge(s, t),
                    None => continue,
                },
                10..=12 => match self.pick_edge(rng) {
                    Some((s, t)) => Op::DeleteEdge(s, t),
                    None => continue,
                },
                13 if dynamic => match self.pick(rng) {
                    Some(v) => Op::DeleteVertex(v),
                    None => continue,
                },
                14..=15 if dynamic && case.nlocs > 1 => match self.pick(rng) {
                    Some(v) => Op::Migrate(v, rng.random_range(0..case.nlocs)),
                    None => continue,
                },
                16..=18 => match (self.pick(rng), self.pick(rng)) {
                    (Some(v), Some(t)) => Op::Read(v, t),
                    _ => continue,
                },
                19 => Op::Sweep,
                _ => continue,
            };
            return op;
        }
    }
}

/// **Collective.** Counts, every location's ordered sweep, and a scatter
/// along every edge against the model. A target receives a location's
/// pushes in that location's sweep order — descriptor, then edge order —
/// when they run in place or go straight to a static owner; a directory
/// may forward one past another, so there only the pushes are compared.
fn sweep(loc: &Location, g: &Graph, world: &World, kind: GraphPartitionKind, what: &str) {
    let me = loc.id();
    g.commit();
    let edges: usize = world.model.values().map(|(_, e)| e.len()).sum();
    assert_eq!((g.num_vertices(), g.num_edges()), (world.model.len(), edges), "counts {what}");
    let mut local = Vec::new();
    g.for_each_local_vertex(|v| {
        local.push((v.descriptor, v.edges.iter().map(|e| (e.target, e.property)).collect::<Vec<_>>()));
    });
    let want: Vec<_> =
        world.model.iter().filter(|(_, (o, _))| *o == me).map(|(vd, (_, e))| (*vd, e.clone())).collect();
    assert_eq!(local, want, "location {me}'s vertices {what}");
    g.for_each_local_vertex_mut(|v| v.property.clear());
    loc.barrier();
    let mut visited = Vec::new();
    g.scatter(
        |v| {
            visited.push(v.descriptor);
            Some((me, v.descriptor))
        },
        |p, x| p.push(x),
    );
    assert_eq!(visited, want.iter().map(|(vd, _)| *vd).collect::<Vec<_>>(), "scatter's vertices {what}");
    loc.rmi_fence();
    g.for_each_local_vertex(|v| {
        for l in 0..loc.nlocs() {
            let mut got: Vec<VertexDesc> = v.property.iter().filter(|x| x.0 == l).map(|x| x.1).collect();
            let mut want: Vec<VertexDesc> = world
                .model
                .iter()
                .filter(|(_, (o, _))| *o == l)
                .flat_map(|(u, (_, e))| e.iter().filter(|e| e.0 == v.descriptor).map(move |_| *u))
                .collect();
            if l != me && kind != GraphPartitionKind::Static {
                got.sort_unstable();
                want.sort_unstable();
            }
            assert_eq!(got, want, "pushes into {} from location {l} {what}", v.descriptor);
        }
    });
    loc.barrier();
}

fn run(case: &Case) {
    execute(RtsConfig::default(), case.nlocs, |loc| {
        let (me, nlocs) = (loc.id(), loc.nlocs());
        let mut rng = StdRng::seed_from_u64(case.seed);
        let mut world = World { model: Model::new(), next_vd: (0..nlocs).collect(), explicit: 0, edge_id: 0 };
        let g: Graph = if case.kind == GraphPartitionKind::Static {
            let g = PGraph::new_static(loc, STATIC_N, case.directedness, Vec::new());
            for (vd, owner) in loc.allgather(g.local_vertices()).into_iter().enumerate().flat_map(|(l, vds)| {
                vds.into_iter().map(move |vd| (vd, l))
            }) {
                world.model.insert(vd, (owner, Vec::new()));
            }
            g
        } else {
            PGraph::new_dynamic(loc, case.directedness, case.kind)
        };
        for step in 0..OPS {
            let op = world.draw(&mut rng, case);
            let issuer = rng.random_range(0..nlocs);
            let what = format!("after step {step} ({op:?} at {issuer}) of {}", case.name());
            match op {
                Op::AddVertex => {
                    let vd = world.next_vd[issuer];
                    world.next_vd[issuer] += nlocs;
                    world.model.insert(vd, (issuer, Vec::new()));
                    if me == issuer {
                        assert_eq!(g.add_vertex(Vec::new()), vd, "{what}");
                    }
                }
                Op::AddVertexWith(k) => {
                    let vd = k + issuer;
                    world.next_vd[issuer] = vd + nlocs;
                    world.model.insert(vd, (issuer, Vec::new()));
                    if me == issuer {
                        g.add_vertex_with_descriptor(vd, Vec::new());
                    }
                }
                Op::AddEdge(s, t) => {
                    let id = world.add_edge(case.directedness, s, t);
                    if me == issuer {
                        g.add_edge_async(s, t, id);
                    }
                }
                Op::DeleteEdge(s, t) => {
                    world.delete_edge(case.directedness, s, t);
                    if me == issuer {
                        g.delete_edge_async(s, t);
                    }
                }
                Op::DeleteVertex(vd) => {
                    let sources: Vec<VertexDesc> = world
                        .model
                        .iter()
                        .filter(|(u, _)| **u != vd)
                        .flat_map(|(u, (_, e))| e.iter().filter(|e| e.0 == vd).map(move |_| *u))
                        .collect();
                    for u in sources {
                        world.delete_edge(case.directedness, u, vd);
                        if me == issuer {
                            g.delete_edge_async(u, vd);
                        }
                        loc.rmi_fence();
                    }
                    world.model.remove(&vd);
                    if me == issuer {
                        g.delete_vertex(vd);
                    }
                }
                Op::Migrate(vd, dest) => {
                    world.model.get_mut(&vd).unwrap().0 = dest;
                    if me == issuer {
                        g.migrate_vertex(vd, dest);
                    }
                }
                Op::Read(vd, t) => {
                    if me == issuer {
                        let edges = &world.model[&vd].1;
                        let got: Vec<(VertexDesc, u32)> =
                            g.out_edges(vd).into_iter().map(|Edge { target, property }| (target, property)).collect();
                        assert_eq!(&got, edges, "out_edges({vd}) {what}");
                        assert_eq!(g.out_degree(vd), edges.len(), "out_degree({vd}) {what}");
                        assert_eq!(g.find_edge(vd, t), edges.iter().any(|e| e.0 == t), "find_edge({vd}, {t}) {what}");
                    }
                }
                Op::Sweep => sweep(loc, &g, &world, case.kind, &what),
            }
            loc.rmi_fence();
        }
        sweep(loc, &g, &world, case.kind, &format!("at the end of {}", case.name()));
    });
}

#[test]
fn edge_store_agrees_with_a_model() {
    for nlocs in 1..=3 {
        for kind in [GraphPartitionKind::Static, GraphPartitionKind::DynamicFwd, GraphPartitionKind::DynamicTwoPhase] {
            for directedness in [Directedness::Directed, Directedness::Undirected] {
                for seed in 0..CASES {
                    run(&Case { nlocs, kind, directedness, seed });
                }
            }
        }
    }
}
