//! End-to-end schema check: a real traced execution, exported as Chrome
//! trace-event JSON, must pass the structural validator the CI
//! `trace-smoke` step uses — span pairs matched per location lane,
//! instants present, one pid per location.

use stapl_bench::trace_check::validate_chrome_trace;
use stapl_rts::{execute_collect_traced, RtsConfig, TraceEventKind};

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
    assert!(check.instants > 0, "rmi_send/rmi_execute instants expected");
    let sends = rt.locs.iter().flat_map(|l| &l.events).filter(|e| e.kind == TraceEventKind::RmiSend);
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
