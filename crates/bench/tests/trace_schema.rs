//! End-to-end schema check: a real traced execution, exported as Chrome
//! trace-event JSON, must pass the structural validator the CI
//! `trace-smoke` step uses — span pairs matched per location lane,
//! instants present, one pid per location.

use std::cell::RefCell;
use std::collections::HashMap;

use stapl_algorithms::prelude::*;
use stapl_bench::harness;
use stapl_bench::trace_check::validate_chrome_trace;
use stapl_containers::array::PArray;
use stapl_containers::graph::{Directedness, GraphPartitionKind, PGraph};
use stapl_containers::list::PList;
use stapl_core::interfaces::PContainer;
use stapl_paragraph::executor::ExecPolicy;
use stapl_rts::{
    execute_collect_traced, Counter, FaultSchedule, Location, RmiError, RtsConfig, RunTrace, SpanKind,
    TraceEvent,
};
use stapl_views::array_view::ArrayView;

fn traced_run(p: usize) -> stapl_rts::RunTrace {
    let cfg = RtsConfig { trace: true, ..RtsConfig::base() };
    let (_, trace) = execute_collect_traced(cfg, p, |loc| {
        let next = (loc.id() + 1) % loc.nlocs();
        let (h, _rep) = loc.register(std::cell::Cell::new(loc.id() as u64));
        for i in 0..8u64 {
            let got: u64 =
                loc.sync_rmi(next, h, move |c: &std::cell::Cell<u64>, _| c.get() + i);
            assert_eq!(got, next as u64 + i);
        }
        loc.barrier();
    });
    trace.expect("tracing enabled")
}

#[test]
fn exported_trace_passes_the_validator() {
    let rt = traced_run(4);
    let text = rt.to_chrome_json();
    let check = validate_chrome_trace(&text).expect("emitted trace must validate");
    // One lane per location, and the scenario's spans/instants all there.
    assert_eq!(check.lanes, 4, "one (pid, tid) lane per location");
    assert!(check.spans > 0, "barrier/fence/sync-rmi spans expected");
    assert!(check.instants > 0, "remote_requests/requests_handled instants expected");
    let sends = rt.locs.iter().flat_map(|l| &l.events);
    let sends = sends.filter(|e| matches!(e, TraceEvent::Count { counter: Counter::remote_requests, .. }));
    let sends = sends.count();
    assert!(sends >= 8 * 4, "every sync_rmi issues at least one send");
}

#[test]
fn merged_multi_run_trace_passes_the_validator() {
    // The `experiments --trace` path: several executions merged into one
    // file, each run's locations in a disjoint pid range.
    let mut lines = Vec::new();
    for run in 0..3u64 {
        traced_run(2).push_chrome_events(1 + run * 1000, &format!("run {run}"), &mut lines);
    }
    let text = format!("[\n{}\n]\n", lines.join(",\n"));
    let check = validate_chrome_trace(&text).expect("merged trace must validate");
    assert_eq!(check.lanes, 6, "3 runs x 2 locations, no pid collisions");
}

/// Every traced path once: async, sync, split-phase and poisoned RMIs, a
/// barrier and a collective, a bulk `p_copy`, a `p_copy_segmented`, a
/// `collect_ordered` gather, an executor run, and a dynamic pGraph whose
/// owner cache misses, hits, and — after a migration — heals a stale hit.
fn every_path(loc: &Location) {
    let next = (loc.id() + 1) % loc.nlocs();
    let (h, _rep) = loc.register_cell(0u64);
    loc.rmi_fence();
    loc.async_rmi(next, h, |c: &RefCell<u64>, _| *c.borrow_mut() += 1);
    let _ = loc.sync_rmi(next, h, |c: &RefCell<u64>, _| *c.borrow());
    let _ = loc.split_rmi(next, h, |c: &RefCell<u64>, _| *c.borrow()).get();
    let poisoned = loc.split_rmi(next, h, |_: &RefCell<u64>, _| -> u64 { panic!("poisoned on purpose") });
    assert!(matches!(poisoned.try_get(), Err(RmiError::HandlerPanicked { .. })));
    assert_eq!(loc.allreduce_sum(1), loc.nlocs() as u64);
    loc.barrier();

    let n = 96;
    let src = PArray::from_fn(loc, n, |i| i as u64);
    let dst = harness::misaligned_dst(loc, n);
    p_copy(&src, &dst);
    p_generate_pg(&ArrayView::new(src.clone()), ExecPolicy::default(), |k| 2 * k as u64);

    let (from, to): (PList<u64>, PList<u64>) = (PList::new(loc), PList::new(loc));
    for i in 0..8 {
        from.push_anywhere((loc.id() * 8 + i) as u64);
        to.push_anywhere(0);
    }
    from.commit();
    to.commit();
    if loc.id() == 0 {
        // Every destination slab one location over: each segment is remote.
        for sid in 0..loc.nlocs() {
            to.migrate_bcontainer(sid, (sid + 1) % loc.nlocs());
        }
    }
    p_copy_segmented(&from, &to);
    if loc.id() == 0 {
        assert_eq!(to.collect_ordered().len(), 8 * loc.nlocs());
    }

    let g: PGraph<u64, ()> = PGraph::new_dynamic(loc, Directedness::Directed, GraphPartitionKind::DynamicFwd);
    g.add_vertex_with_descriptor(loc.id(), loc.id() as u64);
    g.commit();
    for _ in 0..2 {
        // A miss fills the cache; the second read hits it.
        assert_eq!(g.vertex_property(next), next as u64);
    }
    loc.rmi_fence();
    if loc.id() == 0 {
        for vd in 0..loc.nlocs() {
            g.migrate_vertex(vd, (vd + 1) % loc.nlocs());
        }
    }
    loc.rmi_fence();
    // The cached owner no longer has it (nor does this location): the
    // read heals through home.
    assert_eq!(g.vertex_property(next), next as u64);
    loc.rmi_fence();
}

/// Checks `rt` row by row against its counters and returns the moves of
/// every traced row, summed over locations.
fn trace_agrees_with_counters(rt: &RunTrace) -> HashMap<Counter, u64> {
    let mut total = HashMap::new();
    for l in &rt.locs {
        assert_eq!(l.dropped, 0, "location {}: the ring evicted events", l.loc);
        let (mut moved, mut spans) = (HashMap::new(), HashMap::new());
        for e in &l.events {
            match *e {
                TraceEvent::Count { counter, n, .. } => *moved.entry(counter).or_insert(0) += n,
                TraceEvent::Span { kind, .. } => *spans.entry(kind).or_insert(0u64) += 1,
            }
        }
        for &c in Counter::ALL {
            let traced = moved.get(&c).copied().unwrap_or(0);
            if c.traced() {
                assert_eq!(traced, l.stats.get(c), "location {}: {}'s instants", l.loc, c.name());
                *total.entry(c).or_insert(0) += traced;
            } else {
                assert_eq!(traced, 0, "location {}: untraced {} has instants", l.loc, c.name());
            }
        }
        for &k in SpanKind::ALL {
            let n = spans.get(&k).copied().unwrap_or(0);
            assert!(n > 0, "location {}: no {} span", l.loc, k.name());
            assert_eq!(l.histogram(k).count(), n, "location {}: {} samples", l.loc, k.name());
        }
    }
    total
}

/// The trace and the counters agree, row by row: a traced row's instants
/// sum to its counter on every location, an untraced row has none, and
/// each span is one sample of its kind's histogram. The fault run adds the
/// reliable layer's rows.
#[test]
fn trace_and_counters_agree_row_by_row() {
    let traced = |cfg: RtsConfig| {
        let (_, trace) = execute_collect_traced(RtsConfig { trace: true, ..cfg }, 3, every_path);
        trace_agrees_with_counters(&trace.expect("tracing enabled"))
    };
    let clean = traced(RtsConfig::base());
    let faulty = traced(RtsConfig {
        faults: FaultSchedule::parse("drop:0.2,dup:0.1,reorder:0.2,corrupt:0.2").expect("schedule parses"),
        retransmit_rto_us: 500,
        ..RtsConfig::base()
    });
    let recovery =
        [Counter::frames_dropped, Counter::retransmits, Counter::checksum_failures, Counter::acks_sent];
    for &c in Counter::ALL.iter().filter(|c| c.traced()) {
        // Whether an idle executor probes or steals is timing.
        if matches!(c, Counter::steal_requests | Counter::tasks_stolen) {
            continue;
        }
        let run = if recovery.contains(&c) { &faulty } else { &clean };
        assert!(run.get(&c).copied().unwrap_or(0) > 0, "the run never moved {}", c.name());
    }
}
