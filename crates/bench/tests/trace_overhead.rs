//! The trace-disabled path must be free: `RtsConfig::base()` (trace off)
//! and a traced run of the *same* seeded scenario must produce identical
//! deterministic counters — tracing reads the counters' world but never
//! writes it. Pure timing counters (batching, fence rounds, steals) are
//! excluded exactly as they are from the harness's gated lists.
//!
//! The wall-clock side of the overhead claim is `benchmark/`'s
//! `rts.trace_overhead_x`; this test is the stats-level guard CI can gate
//! on.

use stapl_rts::{execute_collect, execute_collect_traced, RtsConfig, StatsSnapshot};

/// Counters whose values depend only on program flow, never on timing.
const DETERMINISTIC: &[&str] = &[
    "local_invocations",
    "remote_requests",
    "responses_sent",
    "tasks_executed",
    "dir_cache_hits",
    "dir_cache_misses",
    "dir_cache_stale",
    "bulk_requests",
    "localized_chunks",
    "element_fallbacks",
    "segment_requests",
    "gather_items",
];

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
    for i in 0..16u64 {
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
    for name in DETERMINISTIC {
        assert_eq!(
            off.counter(name),
            on.counter(name),
            "counter {name} changed when tracing was enabled"
        );
    }
    // And the untraced run really ran untraced: no buffers were kept.
    let (_, none) = execute_collect_traced(RtsConfig::base(), p, scenario);
    assert!(none.is_none(), "trace off must not allocate per-location buffers");
}
