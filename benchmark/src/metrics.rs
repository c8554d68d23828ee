//! The one table of workloads and metrics. The printed result, the
//! result files, `--print-manifest` and `--check-manifest` are all
//! generated from it, so a name, unit, direction or bound exists once.

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Class {
    /// Gated: `bound` is the share of the parent's median by which the
    /// metric may get worse.
    EndToEnd { bound: f64 },
    /// From the traced run; never gated. `exact` marks counts that must
    /// repeat exactly for one seed (checked by `tests/quick.rs`).
    PerLayer { exact: bool },
    /// Printed beside the end-to-end metrics and kept in the result
    /// file; not part of the manifest.
    Derived,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// How long one run measures, in seconds: the sizes in `workloads/` and
/// the instance counts in `harness.rs` are set so that `--seconds
/// RUN_SECONDS` is what a run takes on the reference host.
pub const RUN_SECONDS: u32 = 24;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["benchmark"];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "array-bulk",
        why: "views/algorithms/containers chunk paths do the work, rts only fences: an RMI hot-path change must show no move here",
    },
    WorkloadDef {
        name: "rmi-writes",
        why: "Fig. 24 kernel for asynchronous methods: rts stage-flush-channel-deliver dominates, views/algorithms idle",
    },
    WorkloadDef {
        name: "rmi-reads",
        why: "same rts layer used latency-bound (blocking and split-phase reads): batching that buys write throughput at round-trip cost regresses here",
    },
    WorkloadDef {
        name: "dynamic-graph-kv",
        why: "core directory, owner cache and forwarding plus dynamic containers carry the pass; only workload with dir_cache counters non-zero",
    },
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        class: Class::EndToEnd { bound },
    }
}

const fn derived(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        class: Class::Derived,
    }
}

/// A per-layer timing, share or ratio (lower is better).
const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        class: Class::PerLayer { exact: false },
    }
}

/// A per-pass count taken from `Location::stats().since(..)`.
const fn count(name: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name,
        unit: "count",
        better,
        class: Class::PerLayer { exact },
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[Metric] = &[
    // ---- end to end (untraced run) ----
    // `peak_rss_mb` has the bound first proposed. The other two are wider
    // by one step each, as far as the measurements force (NOISE.md):
    // medians of ten runs of `abstraction_cost_x` agree within 3.2 %, but
    // ten single runs spread by up to 11 % when they straddle one of the
    // host's busy spells, and a benchmark whose spread exceeds its bound
    // is refused; `setup_s`, the one absolute time that has to stay,
    // drifts by 13-22 % between sets an hour apart. The timings that do
    // not repeat within any bound worth having (every P=2 time, every
    // other absolute time) are derived values, not gates at 25 %.
    e2e("setup_s", "s", 0.25),
    e2e("abstraction_cost_x", "x", 0.15),
    e2e("peak_rss_mb", "MiB", 0.05),
    // ---- derived (untraced run, ungated) ----
    derived("solve_s", "s", Lower),
    derived("solve_p1_s", "s", Lower),
    derived("seq_solve_s", "s", Lower),
    derived("parallel_cost_x", "x", Lower),
    derived("speedup_x", "x", Higher),
    derived("items_per_s", "1/s", Higher),
    derived("items_per_pass", "count", Higher),
    derived("solve_med_s", "s", Lower),
    derived("solve_p1_med_s", "s", Lower),
    derived("sync_op_p50_us", "us", Lower),
    derived("sync_op_p99_us", "us", Lower),
    derived("input_gen_s", "s", Lower),
    derived("wall_s", "s", Lower),
    derived("instances", "count", Higher),
    // ---- per layer: spans (traced run) ----
    layer("rts.pass_share", "share"),
    layer("core.pass_share", "share"),
    layer("containers.pass_share", "share"),
    layer("views.pass_share", "share"),
    layer("algorithms.pass_share", "share"),
    layer("paragraph.pass_share", "share"),
    layer("rts.fence_wait_share", "share"),
    layer("rts.trace_overhead_x", "x"),
    layer("rts.slow_instance_share", "share"),
    // ---- per layer: counts per timed pass (traced run) ----
    // `exact` is false where the count depends on thread timing: fence
    // rounds, idle flushes, executor completion probes and steals.
    count("rts.remote_requests", Lower, true),
    count("rts.local_invocations", Lower, true),
    count("rts.batches_sent", Lower, false),
    count("rts.reqs_per_batch", Higher, false),
    count("rts.responses_sent", Lower, true),
    count("rts.fence_rounds", Lower, false),
    count("core.dir_cache_hit_rate", Higher, false),
    count("core.dir_cache_stale", Lower, false),
    count("containers.bulk_requests", Lower, true),
    count("containers.segment_requests", Lower, true),
    count("containers.element_fallbacks", Lower, true),
    count("views.localized_chunks", Higher, true),
    count("paragraph.tasks_executed", Lower, true),
    count("paragraph.tasks_stolen", Lower, false),
    count("paragraph.steal_requests", Lower, false),
    // ---- per layer: the ladder (traced run, workload-independent) ----
    layer("rts.local_invoke_ns", "ns"),
    layer("rts.sync_rmi_us", "us"),
    layer("rts.split_rmi_ns", "ns"),
    layer("core.invoke_local_ns", "ns"),
    layer("core.locate_ns", "ns"),
    layer("containers.parray_set_local_ns", "ns"),
    layer("containers.parray_get_remote_us", "us"),
    layer("containers.parray_split_get_ns", "ns"),
    layer("containers.passoc_find_us", "us"),
    layer("containers.pgraph_add_edge_ns", "ns"),
    layer("containers.pgraph_migrate_us", "us"),
    layer("containers.construct_ms", "ms"),
    layer("views.chunk_ns", "ns"),
    layer("views.strided_ns", "ns"),
    layer("views.localize_us", "us"),
    layer("views.mapview_ns", "ns"),
    layer("algorithms.p_generate_ns", "ns"),
    layer("algorithms.p_copy_ns", "ns"),
    layer("algorithms.p_copy_shifted_ns", "ns"),
    layer("algorithms.p_reduce_ns", "ns"),
    layer("algorithms.p_partial_sum_ns", "ns"),
    layer("algorithms.p_sort_ns", "ns"),
    layer("algorithms.word_count_ns", "ns"),
    layer("algorithms.bfs_ns", "ns"),
    layer("algorithms.page_rank_ns", "ns"),
    layer("paragraph.p_reduce_pg_ns", "ns"),
    layer("paragraph.pg_overhead_x", "x"),
    layer("paragraph.task_ns", "ns"),
    // ---- ladder rungs that do not repeat (traced run, derived) ----
    // Streams of asynchronous requests to the peer, the collectives, thread
    // start-up and allocation-bound pushes read 1.3x to 3x apart from one
    // traced run to the next (NOISE.md): reported, not per-layer metrics.
    derived("rts.async_rmi_ns", "ns", Lower),
    derived("rts.async_rmi_agg1_ns", "ns", Lower),
    derived("rts.fence_us", "us", Lower),
    derived("rts.barrier_us", "us", Lower),
    derived("rts.allreduce_us", "us", Lower),
    derived("rts.execute_ms", "ms", Lower),
    derived("rts.serialized_x", "x", Lower),
    derived("core.invoke_remote_ns", "ns", Lower),
    derived("containers.parray_set_remote_ns", "ns", Lower),
    derived("containers.passoc_insert_ns", "ns", Lower),
    derived("containers.plist_push_ns", "ns", Lower),
];

pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| matches!(m.class, Class::EndToEnd { .. }))
}

pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(|m| matches!(m.class, Class::PerLayer { .. }))
}

pub fn derived_metrics() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| matches!(m.class, Class::Derived))
}

pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Measured values of one run, by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records a value. The name must be in [`METRICS`]: a typo is a bug
    /// in the benchmark, not a new metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric {name:?} is not in the table");
        assert!(self.get(name).is_none(), "metric {name:?} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ..}` for the given metrics, in
    /// table order. Every metric must have been measured and be finite.
    pub fn to_json<'a>(&self, which: impl Iterator<Item = &'a Metric>) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for m in which {
            let v = self
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", m.name));
            }
            pairs.push((
                m.name.to_string(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            ));
        }
        Ok(Json::Obj(pairs))
    }
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// `BENCHMARK.json`, generated from the table.
pub fn manifest() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(s)).collect());
    Json::obj(vec![
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .map(|m| {
                        let Class::EndToEnd { bound } = m.class else {
                            unreachable!()
                        };
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better_str(m.better))),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better_str(m.better))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Differences between the manifest file at `path` and the table; empty
/// when they agree on every key, name, unit, direction, bound and
/// workload.
pub fn check_manifest(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut diffs = Vec::new();
    diff("", &manifest(), &file, &mut diffs);
    Ok(diffs)
}

fn diff(at: &str, want: &Json, have: &Json, out: &mut Vec<String>) {
    match (want, have) {
        (Json::Obj(w), Json::Obj(h)) => {
            for (k, wv) in w {
                match have.get(k) {
                    Some(hv) => diff(&format!("{at}/{k}"), wv, hv, out),
                    None => out.push(format!("{at}/{k}: missing in file")),
                }
            }
            for (k, _) in h {
                if want.get(k).is_none() {
                    out.push(format!("{at}/{k}: not in the metric table"));
                }
            }
        }
        (Json::Arr(w), Json::Arr(h)) => {
            // Entries are matched by position; a name shows which entry.
            let label = |v: &Json, i: usize| match v.get("name").and_then(Json::as_str) {
                Some(n) => format!("{at}[{n}]"),
                None => format!("{at}[{i}]"),
            };
            for (i, wv) in w.iter().enumerate() {
                match h.get(i) {
                    Some(hv) => diff(&label(wv, i), wv, hv, out),
                    None => out.push(format!("{}: missing in file", label(wv, i))),
                }
            }
            for (i, hv) in h.iter().enumerate().skip(w.len()) {
                out.push(format!("{}: not in the metric table", label(hv, i)));
            }
        }
        _ if want == have => {}
        _ => out.push(format!(
            "{at}: table has {}, file has {}",
            want.render(),
            have.render()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in METRICS {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            if let Class::EndToEnd { bound } = m.class {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
        let setup = find("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn diff_reports_each_kind_of_drift() {
        let want = manifest();
        let mut d = Vec::new();
        diff("", &want, &want, &mut d);
        assert!(d.is_empty());
        let text = want
            .render()
            .replace("\"bound\": 0.15}", "\"bound\": 0.16}");
        let text = text
            .replacen("rmi-reads", "rmi-read", 1)
            .replacen("\"us\"", "\"ms\"", 1);
        diff("", &want, &Json::parse(&text).unwrap(), &mut d);
        assert!(d.iter().any(|l| l.contains("bound")), "{d:?}");
        assert!(d.iter().any(|l| l.contains("rmi-read")), "{d:?}");
        assert!(d.iter().any(|l| l.contains("\"ms\"")), "{d:?}");
    }
}
