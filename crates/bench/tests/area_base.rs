//! An area's specs override the base configuration they are handed; they
//! do not replace it. `experiments <area>` passes the environment's config,
//! and the CI fault leg relies on that: its `experiments transport` must
//! really run under `STAPL_FAULTS`, and must gate and claim the same there
//! (`bytes_sent` counts staged records, never recovery traffic).

use stapl_bench::harness::{area, BENCH_SEED};
use stapl_rts::{Counter, FaultSchedule, RtsConfig};

#[test]
fn an_area_honours_the_base_configuration_it_is_given() {
    let transport = area("transport").expect("transport area");
    assert!(transport.gated.contains(&Counter::remote_requests));
    assert!(transport.gated.contains(&Counter::bytes_sent));

    let clean = transport.run(&RtsConfig::base());
    assert!(clean.records.iter().all(|r| r.counters.frames_dropped == 0), "drops on a clean base");

    let faulty_base = RtsConfig {
        retransmit_rto_us: 500,
        ..RtsConfig::with_faults(FaultSchedule::parse("drop:0.3").unwrap(), BENCH_SEED)
    };
    let faulty = transport.run(&faulty_base);
    for r in faulty.records.iter().filter(|r| r.knob("mode") == "element-wise") {
        assert!(r.counters.frames_dropped > 0, "{}: the base's fault schedule was replaced", r.id);
    }
    // What is written is what is gated: the two runs' files are the same.
    assert_eq!(faulty.to_json(), clean.to_json(), "faults moved a gated counter");
    faulty.check_claims();
}
