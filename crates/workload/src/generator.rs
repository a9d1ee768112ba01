//! Arrival processes and the seeded sampling helpers of the request
//! streams.
//!
//! The event-level serving engine modulates each (app, site) stream's
//! per-hour request intensity within a day by an [`ArrivalProcess`]
//! (see [`crate::stream`]).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The arrival process controlling how per-hour request intensity is
/// modulated within a day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// A flat intensity.
    Flat,
    /// An intensity that follows a sinusoidal diurnal profile: the hourly
    /// weight is `1 + amplitude * cos(2π(h - peak)/24)`, which averages to
    /// one over a full day.
    Diurnal {
        /// Relative swing of the diurnal cycle, in `[0, 1)`.
        amplitude: f64,
        /// Hour of day (0–24) at which intensity peaks.
        peak_hour: f64,
    },
    /// Diurnal arrivals with a multiplicative burst overlay: each hour
    /// independently bursts with probability `burst_probability`, scaling the
    /// intensity by `burst_magnitude` (jittered by a clamped normal sample).
    Bursty {
        /// Relative swing of the diurnal cycle, in `[0, 1)`.
        amplitude: f64,
        /// Hour of day (0–24) at which intensity peaks.
        peak_hour: f64,
        /// Per-hour probability of a burst, in `[0, 1]`.
        burst_probability: f64,
        /// Intensity multiplier while bursting (≥ 1).
        burst_magnitude: f64,
    },
}

impl ArrivalProcess {
    /// The diurnal + burst overlay of the event-level serving engine: a
    /// 35 % evening-peaked swing with rare 2.5× bursts.
    pub fn diurnal_bursty() -> Self {
        ArrivalProcess::Bursty {
            amplitude: 0.35,
            peak_hour: 19.0,
            burst_probability: 0.02,
            burst_magnitude: 2.5,
        }
    }

    /// The relative intensity multiplier for the hour-of-day `hour` (0–24).
    /// Flat processes weigh every hour alike; diurnal processes follow
    /// their sinusoid; bursty processes additionally draw a burst from
    /// `rng`.  The diurnal part has unit mean over a full day.
    pub fn hourly_weight(&self, hour_of_day: f64, rng: &mut StdRng) -> f64 {
        match self {
            ArrivalProcess::Flat => 1.0,
            ArrivalProcess::Diurnal {
                amplitude,
                peak_hour,
            } => diurnal_factor(hour_of_day, *amplitude, *peak_hour),
            ArrivalProcess::Bursty {
                amplitude,
                peak_hour,
                burst_probability,
                burst_magnitude,
            } => {
                let base = diurnal_factor(hour_of_day, *amplitude, *peak_hour);
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < *burst_probability {
                    // Jitter the burst height with a clamped normal sample so
                    // bursts vary without ever exploding past ~1.45× nominal.
                    let jitter = 1.0 + 0.15 * sample_standard_normal(rng);
                    base * (burst_magnitude * jitter).max(1.0)
                } else {
                    base
                }
            }
        }
    }
}

/// Sinusoidal diurnal multiplier with unit mean over a 24-hour cycle.
fn diurnal_factor(hour_of_day: f64, amplitude: f64, peak_hour: f64) -> f64 {
    let phase = std::f64::consts::TAU * (hour_of_day - peak_hour) / 24.0;
    (1.0 + amplitude * phase.cos()).max(0.0)
}

/// A standard-normal sample via Box–Muller, clamped to ±3σ so the burst
/// jitter can never round an extreme tail into an absurd intensity.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    z.clamp(-3.0, 3.0)
}

/// SplitMix64: a cheap, high-quality bit mixer used to derive independent
/// stream seeds from a base seed (the same mixer the sweep grid uses for
/// per-cell seeds).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_is_clamped_and_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 4000;
        let mut sum = 0.0;
        for _ in 0..n {
            let z = sample_standard_normal(&mut rng);
            assert!((-3.0..=3.0).contains(&z), "z {z} escaped the clamp");
            sum += z;
        }
        assert!((sum / n as f64).abs() < 0.1, "mean {}", sum / n as f64);
    }

    #[test]
    fn diurnal_weight_peaks_at_peak_hour_and_averages_to_one() {
        let p = ArrivalProcess::Diurnal {
            amplitude: 0.4,
            peak_hour: 19.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let peak = p.hourly_weight(19.0, &mut rng);
        let trough = p.hourly_weight(7.0, &mut rng);
        assert!((peak - 1.4).abs() < 1e-9, "peak {peak}");
        assert!((trough - 0.6).abs() < 1e-9, "trough {trough}");
        let mean: f64 = (0..24)
            .map(|h| p.hourly_weight(h as f64, &mut rng))
            .sum::<f64>()
            / 24.0;
        assert!((mean - 1.0).abs() < 1e-9, "daily mean {mean}");
    }

    #[test]
    fn bursty_weight_exceeds_diurnal_only_during_bursts() {
        let p = ArrivalProcess::Bursty {
            amplitude: 0.0,
            peak_hour: 0.0,
            burst_probability: 0.25,
            burst_magnitude: 2.5,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut bursts = 0usize;
        let n = 2000;
        for _ in 0..n {
            let w = p.hourly_weight(12.0, &mut rng);
            if w > 1.0 + 1e-9 {
                bursts += 1;
                // Magnitude 2.5 with ±15 % clamped-normal jitter stays within
                // [~1.0, ~3.63].
                assert!(w <= 2.5 * 1.45 + 1e-9, "burst weight {w}");
            } else {
                assert!((w - 1.0).abs() < 1e-9, "flat weight {w}");
            }
        }
        let rate = bursts as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "burst rate {rate}");
    }

    #[test]
    fn splitmix64_mixes_nearby_seeds_apart() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
        // Reference value from the canonical SplitMix64 sequence.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }
}
