//! The trace-disabled path must be free: `RtsConfig::base()` (trace off)
//! and a traced run of the *same* seeded scenario must produce identical
//! deterministic counters — tracing reads the counters' world but never
//! writes it. Timing counters (batching, fence rounds, steals) are
//! excluded by their [`Class`], as the bench gate excludes them.
//!
//! The wall-clock side of the overhead claim is `benchmark/`'s
//! `rts.trace_overhead_x`; this test is the stats-level guard CI can gate
//! on.

use stapl_rts::{execute_collect, execute_collect_traced, Class, Counter, RtsConfig, SpanKind, StatsSnapshot};

/// Sync round trips each location makes to its successor.
const SYNC_RMIS: u64 = 16;

/// A fixed mixed-traffic scenario: async fan-out, sync round trips, and a
/// collective, all flow-deterministic at a given P.
///
/// Deltas are taken from `local_stats()` (this thread's counter twins),
/// not the global `stats()`: a global snapshot taken at scenario entry
/// races the other locations' first sends, so its per-location delta
/// depends on thread-start order.
fn scenario(loc: &stapl_rts::Location) -> StatsSnapshot {
    let before = loc.local_stats();
    let (h, _rep) = loc.register(std::cell::Cell::new(0u64));
    for peer in 0..loc.nlocs() {
        loc.async_rmi(peer, h, |c: &std::cell::Cell<u64>, _| c.set(c.get() + 1));
    }
    let next = (loc.id() + 1) % loc.nlocs();
    for i in 0..SYNC_RMIS {
        let got: u64 = loc.sync_rmi(next, h, move |c: &std::cell::Cell<u64>, _| c.get() + i);
        std::hint::black_box(got);
    }
    assert_eq!(loc.allreduce_sum(1), loc.nlocs() as u64);
    loc.rmi_fence();
    loc.local_stats().since(&before)
}

#[test]
fn tracing_adds_zero_counter_traffic() {
    let p = 4;
    let off = execute_collect(RtsConfig::base(), p, scenario).remove(0);
    let cfg = RtsConfig { trace: true, ..RtsConfig::base() };
    let (mut traced, trace) = execute_collect_traced(cfg, p, scenario);
    let on = traced.remove(0);
    let trace = trace.expect("tracing enabled");
    assert!(trace.total_events() > 0, "traced run must actually record events");
    for &c in Counter::ALL.iter().filter(|c| !matches!(c.class(), Class::Timing(_))) {
        assert_eq!(off.get(c), on.get(c), "counter {} changed when tracing was enabled", c.name());
    }
    // A span's duration is one histogram sample: exactly one per round trip.
    for l in &trace.locs {
        let samples = l.histogram(SpanKind::SyncRmi).count();
        assert_eq!(samples, SYNC_RMIS, "location {}: sync_rmi samples", l.loc);
    }
    // And the untraced run really ran untraced: no buffers were kept.
    let (_, none) = execute_collect_traced(RtsConfig::base(), p, scenario);
    assert!(none.is_none(), "trace off must not allocate per-location buffers");
}
