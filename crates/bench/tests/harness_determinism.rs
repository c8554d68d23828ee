//! Run-to-run determinism of the harness, and every area's claims: gating
//! CI on counters rests on two runs at the same knobs producing identical
//! gated values — and since a `BENCH_*.json` holds nothing else, identical
//! **files**. This runs every area twice and compares what would be
//! written byte for byte: if a scenario picks up an unseeded RNG, or a
//! timing-dependent value sneaks into the schema or a `gated` list, this is
//! the test that catches it. Then it checks the area's claims on the first
//! run, so `cargo test` checks them all.

use stapl_bench::harness::AREAS;
use stapl_rts::RtsConfig;

#[test]
fn gated_counters_are_identical_across_runs() {
    for area in AREAS {
        let (a, b) = (area.run(&RtsConfig::base()), area.run(&RtsConfig::base()));
        assert_eq!(a.to_json(), b.to_json(), "{}: two runs wrote different files", area.name);
        a.check_claims();
    }
}
