//! # stapl-bench — the evaluation's measuring code
//!
//! Implements the measurement kernel of Fig. 24 (time `N/P` method
//! invocations per location plus the closing fence; report the maximum
//! over locations), table printing, and the counter [`harness`]: one table
//! of areas whose records `experiments --json` writes as
//! `BENCH_<area>.json` (a sweep must reproduce the checked-in
//! `bench/baselines/` byte for byte), and `experiments <area>` prints and
//! checks against the paper-style claims.
//!
//! A figure of the paper's evaluation (Chapters VIII–XIII) that carries a
//! claim about messages is a record of one area, its scenario named after
//! the figure (`fig56-pagerank-mesh` in `directory`); README's figure table
//! says where every other figure went. This crate owns deterministic
//! counters; time and memory are measured by `benchmark/`.

use std::time::Instant;

use stapl_rts::Location;

pub mod harness;
pub mod json;
pub mod trace_check;

pub use harness::BENCH_SEED;

/// Times `f` on every location and returns the maximum elapsed seconds
/// (the Fig. 24 kernel: the reported time includes the fence).
///
/// **Collective.**
pub fn time_kernel(loc: &Location, f: impl FnOnce()) -> f64 {
    loc.barrier();
    let t = Instant::now();
    f();
    loc.rmi_fence();
    let elapsed = t.elapsed().as_secs_f64();
    loc.allreduce_max_f64(elapsed)
}

/// A paper-style series table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                s.push_str(&format!(" {c:>w$} |"));
            }
            s
        };
        println!("{}", line(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * widths.len()));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Formats seconds with µs resolution.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn kernel_times_are_positive_and_agreed() {
        let times = stapl_rts::execute_collect(RtsConfig::default(), 2, |loc| {
            time_kernel(loc, || {
                std::hint::black_box((0..1000u64).sum::<u64>());
            })
        });
        assert!(times[0] > 0.0);
        assert_eq!(times[0], times[1], "allreduce_max must agree everywhere");
    }

    #[test]
    fn kernel_includes_pending_asyncs() {
        execute(RtsConfig::with_aggregation(64), 2, |loc| {
            let obj = stapl_core::pobject::PObject::register(loc, 0u64);
            loc.rmi_fence();
            let t = time_kernel(loc, || {
                for _ in 0..100 {
                    obj.invoke_at(1 - loc.id(), |c, _| *c.borrow_mut() += 1);
                }
            });
            assert!(t > 0.0);
            // After the kernel (which fences), all increments landed.
            assert_eq!(*obj.local(), 100);
        });
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new("demo", &["P", "time"]);
        t.row(vec!["1".into(), fmt_time(0.001)]);
        t.row(vec!["2".into(), fmt_time(2.5)]);
        t.print();
    }
}
