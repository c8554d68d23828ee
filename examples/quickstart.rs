//! Quickstart: the pArray example of Fig. 26, extended with the three
//! method flavors (sync / async / split-phase) and a generic pAlgorithm.
//!
//! Run with: `cargo run --release --example quickstart`

use stapl::prelude::*;

fn main() {
    let nlocs = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    println!("SPMD execution on {nlocs} locations\n");

    execute(RtsConfig::default(), nlocs, |loc| {
        // -- Fig. 26: a pArray with the default balanced partition and one
        //    with an explicit blocked partition.
        let pa = PArray::new(loc, 100, 0i64);
        let blocked = PArray::with_partition(
            loc,
            stapl::core::partition::BlockedPartition::new(100, 10),
            stapl::core::mapper::CyclicMapper::new(loc.nlocs()),
            0i64,
        );

        // p_generate: fill with i*2 in parallel (local writes only).
        p_generate(&pa, |i| i as i64 * 2);
        p_generate(&blocked, |i| i as i64);

        // Asynchronous writes (set_element returns immediately) ...
        if loc.id() == 0 {
            for i in 0..100 {
                pa.set_element(i, i as i64);
            }
        }
        // ... complete by the next fence (the pContainer MCM).
        loc.rmi_fence();

        // Synchronous read, from any location:
        assert_eq!(pa.get_element(99), 99);

        // Split-phase read: overlap the wait with local work.
        let fut = pa.split_get_element(0);
        let local_work: i64 = (0..1000).sum();
        let first = fut.get();
        assert_eq!(first + local_work, 499500);

        // A generic pAlgorithm runs identically on either distribution.
        let total = p_reduce(&pa, |_, v| *v, |a, b| a + b).unwrap();
        let total_blocked = p_reduce(&blocked, |_, v| *v, |a, b| a + b).unwrap();
        if loc.id() == 0 {
            println!("sum over balanced pArray  = {total}");
            println!("sum over blocked pArray   = {total_blocked}");
        }

        // Shared-object view: every location sees the same data.
        let mine = pa.local_size();
        let all = loc.allreduce_sum(mine as u64);
        if loc.id() == 0 {
            println!("elements: {all} distributed as ~{} per location", all / loc.nlocs() as u64);
            let mem = pa.memory_size();
            println!("memory: {} B data + {} B metadata", mem.data, mem.metadata);
        } else {
            pa.memory_size(); // collective: all locations participate
        }
    });

    println!("\nquickstart: OK");
}
