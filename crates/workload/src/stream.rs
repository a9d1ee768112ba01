//! Seeded per-(app, site) request streams for the event-level serving engine.
//!
//! The aggregate CDN model prices demand as a constant request rate per
//! application.  The event-level engine needs that same demand materialized
//! hour by hour, with diurnal swing and bursts, **without breaking the
//! aggregate accounting**: for any window the per-hour counts of a stream
//! sum exactly to the total the aggregate model implies
//! (`rate × 3600 × hours`, rounded).  Streams therefore *apportion* the
//! aggregate total across hours by modulation weight (largest-remainder
//! rounding) instead of sampling each hour independently — conservation is
//! exact by construction, and every stream is deterministically seeded from
//! its (app, site) pair with the same SplitMix64 chaining the sweep grid
//! uses for per-cell seeds.

use crate::generator::{splitmix64, ArrivalProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reusable scratch buffers for [`RequestStream::fill_hourly_counts`], so
/// the hot serving loop performs no per-window allocations once warm.
#[derive(Debug, Default, Clone)]
pub struct StreamScratch {
    weights: Vec<f64>,
    remainders: Vec<f64>,
    order: Vec<u32>,
}

/// A deterministic per-(app, site) request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStream {
    /// Index of the application emitting the requests.
    pub app: usize,
    /// Index of the site (region) the requests originate from.
    pub site: usize,
    /// The aggregate model's constant request rate for the app (rps).
    pub rate_rps: f64,
    /// Hour-of-day modulation shape; the rate above sets the stream's
    /// volume.
    pub process: ArrivalProcess,
    seed: u64,
}

impl RequestStream {
    /// Creates a stream whose seed is derived from `(base_seed, app, site)`
    /// by chained SplitMix64 mixing, like `SweepCell::cell_seed`.
    pub fn new(
        app: usize,
        site: usize,
        rate_rps: f64,
        process: ArrivalProcess,
        base_seed: u64,
    ) -> Self {
        let seed = splitmix64(splitmix64(base_seed ^ app as u64) ^ site as u64);
        Self {
            app,
            site,
            rate_rps,
            process,
            seed,
        }
    }

    /// The stream's derived seed (exposed for determinism tests).
    pub fn stream_seed(&self) -> u64 {
        self.seed
    }

    /// The request total the aggregate demand model implies for a window of
    /// `hours` hours: `rate × 3600 × hours`, rounded to the nearest request.
    pub fn aggregate_total(&self, hours: usize) -> u64 {
        (self.rate_rps.max(0.0) * 3600.0 * hours as f64).round() as u64
    }

    /// Fills `counts` with per-hour request counts for the window starting
    /// at absolute hour `start_hour` (the window length is `counts.len()`).
    /// The counts sum to [`aggregate_total`](Self::aggregate_total) exactly:
    /// the total is apportioned across hours proportionally to the arrival
    /// process's hourly weights, with the largest-remainder method breaking
    /// fractional ties deterministically.
    pub fn fill_hourly_counts(
        &self,
        start_hour: usize,
        counts: &mut [u64],
        scratch: &mut StreamScratch,
    ) {
        let hours = counts.len();
        if hours == 0 {
            return;
        }
        let total = self.aggregate_total(hours);
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (start_hour as u64).wrapping_mul(0x9e3779b97f4a7c15));

        scratch.weights.clear();
        let mut weight_sum = 0.0;
        for h in 0..hours {
            let hour_of_day = ((start_hour + h) % 24) as f64;
            let w = self.process.hourly_weight(hour_of_day, &mut rng).max(0.0);
            scratch.weights.push(w);
            weight_sum += w;
        }
        if weight_sum <= 0.0 {
            // Degenerate modulation: fall back to a flat profile.
            scratch.weights.iter_mut().for_each(|w| *w = 1.0);
            weight_sum = hours as f64;
        }

        scratch.remainders.clear();
        scratch.order.clear();
        let mut assigned = 0u64;
        for (h, count) in counts.iter_mut().enumerate().take(hours) {
            let share = total as f64 * scratch.weights[h] / weight_sum;
            let floor = share.floor();
            *count = floor as u64;
            assigned += floor as u64;
            scratch.remainders.push(share - floor);
            scratch.order.push(h as u32);
        }

        let leftover = total.saturating_sub(assigned);
        if leftover == 0 {
            return;
        }
        let remainders = &scratch.remainders;
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN share
        // (infinite modulation weights divide to NaN) would make the Equal
        // fallback an inconsistent comparator, which `sort_unstable_by` is
        // allowed to reject.  Under the total order NaN remainders simply
        // sort first and conservation still holds — the floor of a NaN
        // share contributes zero, so the whole total flows through the
        // leftover distribution.
        scratch.order.sort_unstable_by(|&a, &b| {
            remainders[b as usize]
                .total_cmp(&remainders[a as usize])
                .then(a.cmp(&b))
        });
        for i in 0..leftover as usize {
            counts[scratch.order[i % hours] as usize] += 1;
        }
    }

    /// Allocating convenience wrapper around
    /// [`fill_hourly_counts`](Self::fill_hourly_counts).
    pub fn hourly_counts(&self, start_hour: usize, hours: usize) -> Vec<u64> {
        let mut counts = vec![0u64; hours];
        let mut scratch = StreamScratch::default();
        self.fill_hourly_counts(start_hour, &mut counts, &mut scratch);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bursty() -> ArrivalProcess {
        ArrivalProcess::diurnal_bursty()
    }

    #[test]
    fn streams_are_deterministic_and_seed_distinct() {
        let a = RequestStream::new(3, 7, 15.0, bursty(), 42);
        let b = RequestStream::new(3, 7, 15.0, bursty(), 42);
        assert_eq!(a.hourly_counts(100, 48), b.hourly_counts(100, 48));
        assert_ne!(
            RequestStream::new(4, 7, 15.0, bursty(), 42).stream_seed(),
            a.stream_seed()
        );
        assert_ne!(
            RequestStream::new(3, 8, 15.0, bursty(), 42).stream_seed(),
            a.stream_seed()
        );
    }

    #[test]
    fn hourly_counts_conserve_the_aggregate_total_exactly() {
        let s = RequestStream::new(0, 0, 15.0, bursty(), 7);
        for (start, hours) in [(0usize, 24usize), (13, 744), (8000, 1), (5, 168)] {
            let counts = s.hourly_counts(start, hours);
            let sum: u64 = counts.iter().sum();
            assert_eq!(sum, s.aggregate_total(hours), "window ({start}, {hours})");
        }
    }

    #[test]
    fn diurnal_streams_shift_load_toward_the_peak_hour() {
        let process = ArrivalProcess::Diurnal {
            amplitude: 0.5,
            peak_hour: 19.0,
        };
        let s = RequestStream::new(0, 0, 10.0, process, 11);
        let counts = s.hourly_counts(0, 24);
        assert!(
            counts[19] > counts[7],
            "peak {} vs trough {}",
            counts[19],
            counts[7]
        );
    }

    #[test]
    fn flat_processes_spread_requests_evenly() {
        let s = RequestStream::new(1, 2, 2.0, ArrivalProcess::Flat, 9);
        let counts = s.hourly_counts(0, 10);
        for c in &counts {
            assert_eq!(*c, 7200, "counts {counts:?}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let s = RequestStream::new(2, 5, 12.5, bursty(), 21);
        let mut scratch = StreamScratch::default();
        let mut reused = vec![0u64; 72];
        s.fill_hourly_counts(48, &mut reused, &mut scratch);
        // Re-fill with the now-dirty scratch; result must be identical.
        let mut again = vec![0u64; 72];
        s.fill_hourly_counts(48, &mut again, &mut scratch);
        assert_eq!(reused, again);
        assert_eq!(reused, s.hourly_counts(48, 72));
    }

    #[test]
    fn conservation_survives_nan_shares_from_infinite_weights() {
        // Regression for the largest-remainder sort: an infinite modulation
        // amplitude yields infinite hourly weights, whose shares divide to
        // NaN (`total · ∞ / ∞`).  The old `partial_cmp(..).unwrap_or(Equal)`
        // comparator was inconsistent under NaN; `total_cmp` keeps the sort
        // well-defined and the per-hour counts still sum to the aggregate
        // total exactly (NaN floors contribute zero, so the whole total is
        // apportioned by the leftover pass).
        let process = ArrivalProcess::Diurnal {
            amplitude: f64::INFINITY,
            peak_hour: 19.0,
        };
        let s = RequestStream::new(0, 0, 15.0, process, 3);
        for (start, hours) in [(0usize, 24usize), (100, 48), (8750, 10)] {
            let counts = s.hourly_counts(start, hours);
            let sum: u64 = counts.iter().sum();
            assert_eq!(sum, s.aggregate_total(hours), "window ({start}, {hours})");
        }
    }

    #[test]
    fn zero_rate_streams_emit_nothing() {
        let s = RequestStream::new(0, 0, 0.0, bursty(), 1);
        assert!(s.hourly_counts(0, 24).iter().all(|&c| c == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn conservation_holds_for_any_seed_and_window(
            seed in 0u64..10_000,
            start in 0usize..8760,
            hours in 1usize..200,
            rate in 0.0f64..50.0,
        ) {
            let s = RequestStream::new(1, 4, rate, bursty(), seed);
            let counts = s.hourly_counts(start, hours);
            let sum: u64 = counts.iter().sum();
            prop_assert_eq!(sum, s.aggregate_total(hours));
        }
    }
}
