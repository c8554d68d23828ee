//! pContainer composition (Section IV.C): a container whose elements are
//! `Vec`s. A nested GID `(outer, inner)` is addressed by one
//! `apply_get`/`apply_set` on the outer element, which runs at its owner.

use stapl_containers::array::PArray;
use stapl_containers::list::PList;
use stapl_core::interfaces::{ElementWrite, LocalIteration, PContainer};
use stapl_rts::{execute, RtsConfig};

#[test]
fn composed_parray_matches_fig3() {
    // Fig. 3: pArray of 3 pArrays with sizes 2, 3, 4.
    execute(RtsConfig::default(), 2, |loc| {
        let pa: PArray<Vec<i32>> = PArray::new(loc, 3, Vec::new());
        if loc.id() == 0 {
            for (i, n) in [(0, 2), (1, 3), (2, 4)] {
                pa.apply_set(i, move |row| row.resize(n, 0));
            }
        }
        loc.rmi_fence();
        // Write through nested GIDs from the other location.
        if loc.id() == 1 {
            for (i, j) in [(0, 0), (0, 1), (1, 2), (2, 3)] {
                pa.apply_set(i, move |row| row[j] = (i * 10 + j) as i32);
            }
        }
        loc.rmi_fence();
        assert_eq!(pa.apply_get(2, |row| row[3]), 23);
        assert_eq!(pa.apply_get(1, |row| row[2]), 12);
        assert_eq!(pa.apply_get(0, |row| row[1]), 1);
        // Composed size = Σ inner sizes (Eq. 4.2).
        let total: usize = (0..3).map(|i| pa.apply_get(i, |row| row.len())).sum();
        assert_eq!(total, 9);
    });
}

#[test]
fn composed_plist_of_arrays() {
    execute(RtsConfig::default(), 2, |loc| {
        let pl: PList<Vec<u64>> = PList::new(loc);
        let gid = pl.push_anywhere((0..4).collect());
        loc.rmi_fence();
        let min = pl.apply_get(gid, |row| *row.iter().min().unwrap());
        assert_eq!(min, 0);
        pl.apply_set(gid, |row| row[0] = 100);
        loc.rmi_fence();
        let min = pl.apply_get(gid, |row| *row.iter().min().unwrap());
        assert_eq!(min, 1);
        pl.commit();
        assert_eq!(pl.global_size(), 2); // one inner array per location
    });
}

#[test]
fn height_three_composition() {
    // PArray<Vec<Vec<u8>>> — height 3 per Definition 12.
    execute(RtsConfig::default(), 2, |loc| {
        let pa: PArray<Vec<Vec<u8>>> = PArray::new(loc, 2, vec![vec![0; 2]; 2]);
        if loc.id() == 0 {
            pa.apply_set(1, |mid| mid[0][1] = 9);
        }
        loc.rmi_fence();
        assert_eq!(pa.apply_get(1, |mid| mid[0][1]), 9);
        assert_eq!(pa.apply_get(0, |mid| mid[0][1]), 0);
    });
}

#[test]
fn nested_parallelism_processes_rows_locally() {
    // Row-min over a composed array touches only local data on each
    // location (the Fig. 62 access pattern).
    execute(RtsConfig::unbuffered(), 2, |loc| {
        let rows = 8;
        let pa: PArray<Vec<i64>> = PArray::from_fn(loc, rows, |r| {
            (0..16).map(|c| (r * 16 + c) as i64).collect()
        });
        loc.rmi_fence();
        let before = loc.stats().remote_requests;
        let mut local_mins = Vec::new();
        pa.for_each_local(|r, row| {
            local_mins.push((r, *row.iter().min().unwrap()));
        });
        let after = loc.stats().remote_requests;
        assert_eq!(before, after, "nested row-min must be communication-free");
        for (r, m) in local_mins {
            assert_eq!(m, (r * 16) as i64);
        }
    });
}
