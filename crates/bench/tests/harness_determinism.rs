//! Run-to-run determinism of the harness: the whole point of gating CI
//! on counters instead of wall-clock is that two runs at the same knobs
//! produce *identical* gated counter values. This re-runs every area at
//! the kick-tires tier and asserts exact equality, counter by counter —
//! if a scenario picks up an unseeded RNG or a timing-dependent counter
//! sneaks into a `gated` list, this is the test that catches it.

use stapl_bench::harness::{run_area, Tier, AREAS};

#[test]
fn gated_counters_are_identical_across_runs() {
    for area in AREAS {
        let a = run_area(area, Tier::KickTires).expect("known area");
        let b = run_area(area, Tier::KickTires).expect("known area");
        assert_eq!(a.records.len(), b.records.len(), "{area}: record count drifted");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.id, rb.id, "{area}: record order drifted");
            assert_eq!(ra.gated, rb.gated, "{area}/{}: gated set drifted", ra.id);
            for &g in &ra.gated {
                assert_eq!(
                    ra.counters.get(g),
                    rb.counters.get(g),
                    "{area}/{}: gated counter {} differs between runs",
                    ra.id,
                    g.name()
                );
            }
        }
    }
}
