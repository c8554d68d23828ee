//! Run-to-run determinism of the harness: the whole point of gating CI
//! on counters is that two runs at the same knobs produce *identical*
//! gated values — and since a `BENCH_*.json` holds nothing else, identical
//! **files**. This runs every area twice at the kick-tires tier and
//! compares what would be written byte for byte: if a scenario picks up an
//! unseeded RNG, or a timing-dependent value sneaks into the schema or a
//! `gated` list, this is the test that catches it.

use stapl_bench::harness::{Tier, AREAS};
use stapl_rts::RtsConfig;

#[test]
fn gated_counters_are_identical_across_runs() {
    for area in AREAS {
        let a = area.run(Tier::KickTires, &RtsConfig::base());
        let b = area.run(Tier::KickTires, &RtsConfig::base());
        assert_eq!(a.to_json(), b.to_json(), "{}: two runs wrote different files", area.name);
    }
}
