//! Run-to-run determinism of the **trace** layer, mirroring
//! `harness_determinism.rs`: timestamps and durations are advisory, but
//! event *counts* and histogram *sample counts* must be byte-identical
//! across two seeded runs — for every event kind whose
//! [`TraceEventKind::gating_counter`] is in the record's gated set. Kinds
//! gated on nothing (flushes, steal probes, barrier/fence spans) are
//! timing-dependent by design and deliberately skipped, exactly like the
//! non-gated counters in the harness.

use stapl_bench::harness::{Tier, AREAS};
use stapl_rts::{RtsConfig, TraceEventKind};

#[test]
fn gated_trace_counts_are_identical_across_runs() {
    for area in AREAS {
        let a = area.run(Tier::KickTires, &RtsConfig::base());
        let b = area.run(Tier::KickTires, &RtsConfig::base());
        let (area, gated) = (area.name, area.gated);
        assert_eq!(a.records.len(), b.records.len(), "{area}: record count drifted");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.id, rb.id, "{area}: record order drifted");
            let mut compared = 0usize;
            for kind in TraceEventKind::ALL {
                let Some(counter) = kind.gating_counter() else { continue };
                if !gated.contains(&counter) {
                    continue;
                }
                assert_eq!(
                    ra.trace.count(kind),
                    rb.trace.count(kind),
                    "{area}/{}: event count for {} differs between runs",
                    ra.id,
                    kind.name()
                );
                compared += 1;
                // A span kind's histogram holds exactly one sample per
                // span; its count must be as deterministic as the events.
                if let Some(i) = kind.histogram_index() {
                    let name = stapl_rts::HISTOGRAM_NAMES[i];
                    assert_eq!(
                        ra.trace.histogram(name).expect("known histogram").count(),
                        rb.trace.histogram(name).expect("known histogram").count(),
                        "{area}/{}: histogram {name} sample count differs between runs",
                        ra.id
                    );
                    assert_eq!(
                        ra.trace.count(kind),
                        ra.trace.histogram(name).expect("known histogram").count(),
                        "{area}/{}: histogram {name} out of sync with its span kind",
                        ra.id
                    );
                }
            }
            assert!(compared > 0, "{area}/{}: no gated trace kinds compared", ra.id);
        }
    }
}
