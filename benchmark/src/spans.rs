//! Benchmark-side spans: `run → instance → pass → phase`, one phase per
//! call (or per loop of calls) into a public function of the library.
//! Spans are timed from outside the library, kept in memory, and written
//! as a Chrome trace-event file when the run ends.

use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// The crates of the stack, bottom up. A phase belongs to the layer its
/// *callee* lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Rts,
    Core,
    Containers,
    Views,
    Algorithms,
    Paragraph,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Rts,
        Layer::Core,
        Layer::Containers,
        Layer::Views,
        Layer::Algorithms,
        Layer::Paragraph,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Rts => "rts",
            Layer::Core => "core",
            Layer::Containers => "containers",
            Layer::Views => "views",
            Layer::Algorithms => "algorithms",
            Layer::Paragraph => "paragraph",
        }
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: one clock for every
/// thread, so spans of different locations line up in the trace.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Part of the phase that belongs to another layer (e.g. the future
    /// waits inside a split-phase window loop belong to `rts`).
    pub carved: Option<(Layer, u64)>,
}

/// One location's record of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassRec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub phases: Vec<Phase>,
}

impl PassRec {
    /// Times `f` as one phase of `layer`.
    pub fn phase<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let r = f();
        self.phases.push(Phase {
            name,
            layer,
            start_ns,
            end_ns: now_ns(),
            carved: None,
        });
        r
    }

    /// Like [`PassRec::phase`], for a loop that alternates between two
    /// layers too often to give each alternation a span: `f` adds the
    /// nanoseconds it spent in `other` to its argument.
    pub fn phase_carved<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        other: Layer,
        f: impl FnOnce(&mut u64) -> R,
    ) -> R {
        let start_ns = now_ns();
        let mut carved = 0u64;
        let r = f(&mut carved);
        self.phases.push(Phase {
            name,
            layer,
            start_ns,
            end_ns: now_ns(),
            carved: Some((other, carved)),
        });
        r
    }

    /// Nanoseconds of this pass spent in each layer, in `Layer::ALL`
    /// order. What is left of the pass is the benchmark's own loop code.
    pub fn layer_ns(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        let idx = |l: Layer| Layer::ALL.iter().position(|x| *x == l).expect("layer");
        for p in &self.phases {
            let dur = p.end_ns - p.start_ns;
            let moved = p.carved.map_or(0, |(l, ns)| {
                let ns = ns.min(dur);
                out[idx(l)] += ns;
                ns
            });
            out[idx(p.layer)] += dur - moved;
        }
        out
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one runtime instance, ready for the trace file.
pub struct InstanceSpans {
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `[location][pass]`
    pub passes: Vec<Vec<PassRec>>,
}

/// Chrome trace-event JSON ("X" complete events, microseconds). Every
/// event carries `args.id` and `args.parent`; thread `t` of the process
/// is location `t`, and the run and instance spans are repeated on each
/// thread so that the viewer nests `run → instance → pass → phase` by
/// containment.
pub fn chrome_trace(
    instances: &[InstanceSpans],
    run_name: &str,
    run_start_ns: u64,
    run_end_ns: u64,
) -> Json {
    let mut events = Vec::new();
    let mut next_id = 0u64;
    let mut ev = |name: &str,
                  cat: &str,
                  tid: usize,
                  s: u64,
                  e: u64,
                  parent: Option<u64>,
                  extra: Vec<(&str, Json)>| {
        let id = next_id;
        next_id += 1;
        let mut args = vec![("id", Json::Num(id as f64))];
        if let Some(p) = parent {
            args.push(("parent", Json::Num(p as f64)));
        }
        args.extend(extra);
        events.push(Json::obj(vec![
            ("name", Json::str(name)),
            ("cat", Json::str(cat)),
            ("ph", Json::str("X")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("ts", Json::Num(s as f64 / 1000.0)),
            ("dur", Json::Num((e - s) as f64 / 1000.0)),
            ("args", Json::obj(args)),
        ]));
        id
    };
    let nthreads = instances.iter().map(|i| i.passes.len()).max().unwrap_or(1);
    let run_ids: Vec<u64> = (0..nthreads)
        .map(|t| ev(run_name, "run", t, run_start_ns, run_end_ns, None, vec![]))
        .collect();
    for inst in instances {
        for (t, passes) in inst.passes.iter().enumerate() {
            let iid = ev(
                &inst.label,
                "instance",
                t,
                inst.start_ns,
                inst.end_ns,
                Some(run_ids[t]),
                vec![],
            );
            for (k, pass) in passes.iter().enumerate() {
                let name = if k == 0 {
                    "pass 0 (warm-up)".to_string()
                } else {
                    format!("pass {k}")
                };
                let pid = ev(
                    &name,
                    "pass",
                    t,
                    pass.start_ns,
                    pass.end_ns,
                    Some(iid),
                    vec![("pass", Json::Num(k as f64))],
                );
                for ph in &pass.phases {
                    let mut extra = vec![
                        ("pass", Json::Num(k as f64)),
                        ("layer", Json::str(ph.layer.name())),
                    ];
                    if let Some((l, ns)) = ph.carved {
                        extra.push(("carved_layer", Json::str(l.name())));
                        extra.push(("carved_us", Json::Num(ns as f64 / 1000.0)));
                    }
                    ev(
                        ph.name,
                        ph.layer.name(),
                        t,
                        ph.start_ns,
                        ph.end_ns,
                        Some(pid),
                        extra,
                    );
                }
            }
        }
    }
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_time_adds_up_and_carves() {
        let mut rec = PassRec::default();
        rec.phases.push(Phase {
            name: "a",
            layer: Layer::Containers,
            start_ns: 0,
            end_ns: 100,
            carved: Some((Layer::Rts, 30)),
        });
        rec.phases.push(Phase {
            name: "b",
            layer: Layer::Rts,
            start_ns: 100,
            end_ns: 150,
            carved: None,
        });
        let ns = rec.layer_ns();
        assert_eq!(ns[0], 80); // rts: 30 carved + 50
        assert_eq!(ns[2], 70); // containers
        assert_eq!(ns.iter().sum::<u64>(), 150);
    }

    #[test]
    fn chrome_events_name_their_parents() {
        let mut rec = PassRec {
            start_ns: 10,
            end_ns: 90,
            phases: vec![],
        };
        rec.phases.push(Phase {
            name: "p",
            layer: Layer::Views,
            start_ns: 20,
            end_ns: 30,
            carved: None,
        });
        let log = [InstanceSpans {
            label: "i".into(),
            start_ns: 5,
            end_ns: 95,
            passes: vec![vec![rec]],
        }];
        let j = chrome_trace(&log, "run", 0, 100);
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 4);
        let parent = |e: &Json| e.get("args").unwrap().get("parent").and_then(Json::as_f64);
        assert_eq!(parent(&evs[0]), None);
        assert_eq!(parent(&evs[1]), Some(0.0));
        assert_eq!(parent(&evs[2]), Some(1.0));
        assert_eq!(parent(&evs[3]), Some(2.0));
    }
}
