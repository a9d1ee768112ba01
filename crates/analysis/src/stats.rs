//! Small statistics helpers: empirical CDFs and percentiles.

/// An empirical cumulative distribution function over a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a sample (non-finite values are dropped).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Fraction of samples less than or equal to `x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly greater than `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile(&self.sorted, q * 100.0)
    }

    /// Median value.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Nearest-rank percentile of a **sorted** slice (`p` in `[0, 100]`).
/// Returns `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
impl Cdf {
    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub(crate) fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evenly spaced `(value, cumulative fraction)` points.
    pub(crate) fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return vec![];
        }
        (0..n)
            .map(|k| {
                let q = k as f64 / (n - 1).max(1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fraction_at_most_counts_correctly() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.5);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
        assert_eq!(cdf.fraction_above(2.0), 0.5);
    }

    #[test]
    fn median_and_quantiles() {
        let cdf = Cdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.median(), 3.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let cdf = Cdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn infinity_is_dropped() {
        let cdf = Cdf::new(vec![1.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn empty_cdf_behaves() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(1.0), 0.0);
        assert!(cdf.median().is_nan());
        assert!(cdf.points(5).is_empty());
    }

    #[test]
    fn points_are_monotone() {
        let cdf = Cdf::new((0..100).map(|i| i as f64).collect());
        let pts = cdf.points(11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn quantiles_are_within_sample_range(values in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                             q in 0.0f64..1.0) {
            let cdf = Cdf::new(values.clone());
            let v = cdf.quantile(q);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min && v <= max);
        }

        #[test]
        fn fraction_at_most_is_monotone(values in proptest::collection::vec(-100.0f64..100.0, 1..50),
                                        a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let cdf = Cdf::new(values);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cdf.fraction_at_most(lo) <= cdf.fraction_at_most(hi));
        }
    }

    #[test]
    fn nan_cdf_note() {
        // Documented behaviour: NaN and infinities are both dropped because
        // `is_finite` excludes them.
        assert!(!f64::INFINITY.is_finite());
    }
}
