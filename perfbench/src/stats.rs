//! Order statistics for the benchmark's timings.
//!
//! Percentiles use the nearest-rank definition, so every reported value is a
//! sample that was actually measured, and each one states how many samples
//! lie beyond it: a tail percentile is only meaningful with at least
//! [`MIN_TAIL`] samples above it.

/// Samples a tail percentile needs beyond it before it is trusted.
pub const MIN_TAIL: usize = 10;

/// A percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to trust it.
    pub fn has_tail(&self) -> bool {
        self.beyond >= MIN_TAIL
    }
}

/// The `q`-th percentile (`0 < q <= 100`) of `values` by nearest rank:
/// the smallest sample with at least `q` % of the samples at or below it.
/// Returns `None` for an empty sample set.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank, 1-based: ceil(q/100 * n), clamped to [1, n].  The
    // product is formed in integer hundredths so 90 % of 100 samples is rank
    // 90 exactly, not 90.00000000000001 rounded up to 91.
    let hundredths = (q * 100.0).round() as usize;
    let rank = ((hundredths * n).div_ceil(10_000)).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median of `values` (the mean of the two middle samples for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the definition the benchmark's
/// spread bounds are stated in.  Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Python's integer arithmetic, step for step: the cut point i * (n + 1)
    // / 4 is clamped to an inner pair of samples and interpolated (or, at
    // the clamped ends, extrapolated) from it.
    let cut = |i: usize| {
        let scaled = i * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!((p90.samples, p90.beyond), (100, 10));
        assert!(p90.has_tail());
        let p50 = percentile(&values, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        // 99 samples leave only 9 beyond the 90th percentile.
        let short = percentile(&values[..99], 90.0).unwrap();
        assert_eq!((short.value, short.beyond), (90.0, 9));
        assert!(!short.has_tail());
    }

    #[test]
    fn percentiles_ignore_input_order_and_handle_edges() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&values, 100.0).unwrap().value, 5.0);
        assert_eq!(percentile(&values, 1.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[7.0], 90.0).unwrap().beyond, 0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data at small counts.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
