//! `--compare DIR_A DIR_B`: do two sets of runs of the same code agree?
//!
//! Reads the untraced result files (`*-t0.json`) of both directories and
//! prints, per workload and end-to-end metric, both medians, how far the
//! second is from the first, each set's spread (interquartile distance
//! over median, the driver's rule), and the bound. Fails if a
//! disagreement or a spread (except that of `setup_s`) exceeds the bound,
//! or if any run reported failed operations.

use std::collections::BTreeMap;
use std::path::Path;

use crate::estimate::{median, spread};
use crate::json::Json;
use crate::metrics::{self, Class, WORKLOADS};

/// workload → metric → values, plus the number of failed operations seen.
type Set = (BTreeMap<String, BTreeMap<String, Vec<f64>>>, u64);

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut set: Set = Default::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with("-t0.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if j.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "{}: a --quick run is never comparable",
                path.display()
            ));
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{}: no workload", path.display()))?;
        set.1 += j.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
        let per_metric = set.0.entry(workload.to_string()).or_default();
        for (metric, v) in j.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                per_metric.entry(metric.clone()).or_default().push(x);
            }
        }
    }
    if set.0.is_empty() {
        return Err(format!("{}: no *-t0.json result files", dir.display()));
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when the two sets agree.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, failed_a) = read_set(dir_a)?;
    let (b, failed_b) = read_set(dir_b)?;
    let mut ok = failed_a == 0 && failed_b == 0;
    println!(
        "failed operations: {failed_a} in {}, {failed_b} in {}",
        dir_a.display(),
        dir_b.display()
    );
    println!(
        "{:<18} {:<20} {:>3} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload",
        "metric",
        "n",
        "median A",
        "median B",
        "B vs A",
        "spread A",
        "spread B",
        "bound"
    );
    for w in WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            println!("{:<18} missing from one of the sets", w.name);
            ok = false;
            continue;
        };
        for m in metrics::end_to_end() {
            let Class::EndToEnd { bound } = m.class else {
                unreachable!()
            };
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                println!("{:<18} {:<20} missing from one of the sets", w.name, m.name);
                ok = false;
                continue;
            };
            let (med_a, med_b) = (median(va), median(vb));
            let delta = (med_b - med_a) / med_a;
            let spread_of = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
            let (sa, sb) = (spread_of(va), spread_of(vb));
            let gated_spread = if m.name == "setup_s" { 0.0 } else { sa.max(sb) };
            let bad = delta.abs() > bound || gated_spread > bound;
            ok &= !bad;
            println!(
                "{:<18} {:<20} {:>3} {:>12.6} {:>12.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                w.name,
                m.name,
                va.len().min(vb.len()),
                med_a,
                med_b,
                delta * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if bad { "  <-- exceeds the bound" } else { "" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "the two sets agree within every bound"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(ok)
}
