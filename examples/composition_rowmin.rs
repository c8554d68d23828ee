//! pContainer composition (Chapter XIII, Fig. 62): computing each row's
//! minimum three ways — a composed pArray of rows, a composed pList of
//! rows (each row a location-local `Vec`), and a pMatrix with row views —
//! and checking they agree.
//!
//! Run with: `cargo run --release --example composition_rowmin [nlocs]`

use stapl::containers::list::PList;
use stapl::containers::matrix::PMatrix;
use stapl::core::partition::MatrixLayout;
use stapl::prelude::*;
use std::time::Instant;

const ROWS: usize = 256;
const COLS: usize = 512;

fn cell(r: usize, c: usize) -> i64 {
    ((r * 31 + c * 17) % 1000) as i64 - 500
}

fn main() {
    let nlocs = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    execute(RtsConfig::default(), nlocs, |loc| {
        // 1. pArray of (location-local) rows.
        let pa: PArray<Vec<i64>> =
            PArray::from_fn(loc, ROWS, |r| (0..COLS).map(|c| cell(r, c)).collect());
        let t = Instant::now();
        let mut mins_pa = vec![i64::MAX; ROWS];
        pa.for_each_local(|r, row| mins_pa[r] = *row.iter().min().unwrap());
        let mins_pa = loc.allreduce(mins_pa, |a, b| {
            a.into_iter().zip(b).map(|(x, y)| x.min(y)).collect()
        });
        let t_pa = loc.allreduce_max_f64(t.elapsed().as_secs_f64());

        // 2. pList of rows (distributed by push_anywhere).
        let pl: PList<Vec<i64>> = PList::new(loc);
        for r in 0..ROWS {
            if r % loc.nlocs() == loc.id() {
                pl.push_anywhere((0..COLS).map(|c| cell(r, c)).collect());
            }
        }
        pl.commit();
        let t = Instant::now();
        let mut local_min = i64::MAX;
        pl.for_each_local(|_, row| local_min = local_min.min(*row.iter().min().unwrap()));
        let global_min_pl = loc.allreduce(local_min, i64::min);
        let t_pl = loc.allreduce_max_f64(t.elapsed().as_secs_f64());

        // 3. pMatrix with row-blocked layout.
        let m = PMatrix::from_fn(loc, ROWS, COLS, MatrixLayout::RowBlocked, cell);
        let t = Instant::now();
        let rows_view = stapl::views::matrix_view::RowsView::new(m);
        let mut mins_m = vec![i64::MAX; ROWS];
        for rr in rows_view.local_rows() {
            for r in rr.iter() {
                mins_m[r] = rows_view.read_row(r).into_iter().min().unwrap();
            }
        }
        let mins_m = loc.allreduce(mins_m, |a, b| {
            a.into_iter().zip(b).map(|(x, y)| x.min(y)).collect()
        });
        let t_m = loc.allreduce_max_f64(t.elapsed().as_secs_f64());

        // All three agree.
        assert_eq!(mins_pa, mins_m);
        assert_eq!(*mins_pa.iter().min().unwrap(), global_min_pl);
        if loc.id() == 0 {
            println!("row-min over {ROWS}x{COLS} on {} locations:", loc.nlocs());
            println!("  pArray<pArray>  {t_pa:.4}s");
            println!("  pList<pArray>   {t_pl:.4}s");
            println!("  pMatrix (rows)  {t_m:.4}s");
            println!("  (all methods agree; global min = {global_min_pl})");
        }
    });
}
