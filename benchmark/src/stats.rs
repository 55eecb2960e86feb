//! Order statistics for the benchmark's own samples: medians, the
//! "highest percentile the sample supports" rule, and the quartile
//! spread used to judge run-to-run steadiness.

/// Percentile ladder a timing may be reported at, lowest first.
const LADDER: [(&str, f64); 5] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
    ("p99.999", 0.99999),
];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even p90 has fewer (under 100 samples).
pub fn highest_supported(samples: usize) -> Option<(&'static str, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| samples as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9)
        .copied()
}

/// Linear-interpolated quantile of an ascending slice, from the
/// workspace's one quantile kernel.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    tt_stats::descriptive::quantiles_sorted(sorted, &[q]).expect("samples and a valid q")[0]
}

/// The `q` quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    tt_stats::descriptive::percentile(samples, q).expect("samples and a valid q")
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A timing as the report prints it: the quantile asked for, the
/// highest supported percentile (if any), and how many samples stand
/// behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub value: f64,
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarize unsorted samples at quantile `q`; `None` when there
    /// are none.
    pub fn of(samples: &[f64], q: f64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            samples: sorted.len(),
            value: quantile_sorted(&sorted, q),
            tail: highest_supported(sorted.len())
                .map(|(label, q)| (label, quantile_sorted(&sorted, q))),
        })
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default exclusive method), so the `--aa` spread matches
/// what the acceptance driver computes.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the steadiness figure every bound is judged against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100).unwrap().0, "p90");
        assert_eq!(highest_supported(999).unwrap().0, "p90");
        assert_eq!(highest_supported(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported(9_999).unwrap().0, "p99");
        assert_eq!(highest_supported(10_000).unwrap().0, "p99.9");
        assert_eq!(highest_supported(100_000).unwrap().0, "p99.99");
        assert_eq!(highest_supported(5_000_000).unwrap().0, "p99.999");
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = Summary::of(&samples, 0.5).unwrap();
        assert_eq!(s.samples, 1_000);
        assert!((s.value - 500.5).abs() < 1e-9);
        let (label, value) = s.tail.unwrap();
        assert_eq!(label, "p99");
        assert!((value - 990.01).abs() < 1e-6);
        assert_eq!(Summary::of(&[], 0.5), None);
        assert_eq!(Summary::of(&[3.0; 50], 0.99).unwrap().tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), [2.0, 7.0, 10.0]);
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
    }
}
