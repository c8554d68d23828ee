//! The estimators every timed quantity goes through.
//!
//! The sampling unit is the *runtime instance*: one `execute` call with
//! its own location threads. Whole instances run slower than others from
//! their first pass to their last (see README, "Why ratios, and why p10
//! over instances"), so a run reduces each instance to one number and
//! then takes the nearest-rank 10th percentile across instances. The
//! median across instances is reported beside it, never gated.

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn p10(values: &[f64]) -> f64 {
    percentile(values, 0.10)
}

/// Median with the usual midpoint for even sizes.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, linear interpolation.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=32).map(f64::from).collect();
        assert_eq!(p10(&v), 4.0); // ceil(3.2) = 4th smallest
        assert_eq!(percentile(&v, 0.5), 16.0);
        assert_eq!(percentile(&[7.0], 0.1), 7.0);
        assert_eq!(percentile(&v, 0.99), 32.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
