//! Run-to-run determinism of the **trace** layer, mirroring
//! `harness_determinism.rs`: timestamps and durations are advisory, but
//! event *counts* and histogram *sample counts* must be identical across
//! two seeded runs — for every event kind whose
//! [`TraceEventKind::gating_counter`] is in the area's gated set. Kinds
//! gated on nothing (flushes, steal probes, barrier/fence spans) are
//! timing-dependent by design and skipped, like the non-gated counters in
//! the harness.

use stapl_bench::harness::{BenchRecord, AREAS};
use stapl_rts::{RtsConfig, TraceEventKind, HISTOGRAM_NAMES};

fn samples(r: &BenchRecord, histogram: &str) -> u64 {
    r.trace.histogram(histogram).expect("known histogram").count()
}

#[test]
fn gated_trace_counts_are_identical_across_runs() {
    for area in AREAS {
        let (a, b) = (area.run(&RtsConfig::base()), area.run(&RtsConfig::base()));
        let name = area.name;
        assert_eq!(a.records.len(), b.records.len(), "{name}: record count drifted");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            let id = &ra.id;
            assert_eq!(id, &rb.id, "{name}: record order drifted");
            let mut compared = 0usize;
            for kind in TraceEventKind::ALL {
                let Some(counter) = kind.gating_counter() else { continue };
                if !area.gated.contains(&counter) {
                    continue;
                }
                let (count, kind_name) = (ra.trace.count(kind), kind.name());
                assert_eq!(count, rb.trace.count(kind), "{name}/{id}: {kind_name} count differs");
                compared += 1;
                // A span kind's histogram holds exactly one sample per span.
                if let Some(h) = kind.histogram_index().map(|i| HISTOGRAM_NAMES[i]) {
                    assert_eq!(samples(ra, h), samples(rb, h), "{name}/{id}: {h} samples differ");
                    assert_eq!(count, samples(ra, h), "{name}/{id}: {h} out of sync with its kind");
                }
            }
            assert!(compared > 0, "{name}/{id}: no gated trace kinds compared");
        }
    }
}
