//! Hourly carbon-intensity traces and the synthetic trace generator.

use crate::mix::VariableMix;
use crate::time::{HourOfYear, HOURS_PER_DAY, HOURS_PER_YEAR};
use crate::zone::ZoneProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Index;
use std::sync::OnceLock;

/// An hourly carbon-intensity trace for one carbon zone over the simulated
/// year, in g·CO2eq/kWh.
///
/// This is the in-memory equivalent of one zone's Electricity Maps CSV used
/// by the paper (Section 6.1.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonTrace {
    values: Vec<f64>,
}

impl CarbonTrace {
    /// Wraps a vector of hourly values.  The vector must have exactly
    /// [`HOURS_PER_YEAR`] entries, all finite and non-negative.
    pub fn from_values(values: Vec<f64>) -> Option<Self> {
        if values.len() != HOURS_PER_YEAR {
            return None;
        }
        if values.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return None;
        }
        Some(Self { values })
    }

    /// A constant trace (useful in tests and for hypothetical zero-carbon zones).
    pub fn constant(value: f64) -> Self {
        Self {
            values: vec![value.max(0.0); HOURS_PER_YEAR],
        }
    }

    /// Carbon intensity at a given hour.
    pub fn at(&self, hour: HourOfYear) -> f64 {
        self.values[hour.index()]
    }

    /// All hourly values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Annual mean carbon intensity.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Minimum hourly value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum hourly value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean over an arbitrary window of hours starting at `start`
    /// (wrapping at the end of the year).
    ///
    /// The hours are summed in window order whether or not the window
    /// wraps, so a window inside the year reads its slice directly.
    pub fn window_mean(&self, start: HourOfYear, hours: usize) -> f64 {
        if hours == 0 {
            return self.at(start);
        }
        let sum = match self.values[start.index()..].get(..hours) {
            Some(window) => window.iter().fold(0.0, |sum, v| sum + v),
            None => (0..hours).fold(0.0, |sum, k| sum + self.at(start.plus(k))),
        };
        sum / hours as f64
    }

    /// Mean carbon intensity over a month (0-based month index).
    pub fn monthly_mean(&self, month: usize) -> f64 {
        let hours: Vec<HourOfYear> = HourOfYear::month_hours(month).collect();
        hours.iter().map(|h| self.at(*h)).sum::<f64>() / hours.len() as f64
    }

    /// Mean of each of the 24 hours of day over the year (the average
    /// diurnal profile).
    pub fn diurnal_profile(&self) -> [f64; HOURS_PER_DAY] {
        let mut sums = [0.0; HOURS_PER_DAY];
        let mut counts = [0usize; HOURS_PER_DAY];
        for h in HourOfYear::all() {
            sums[h.hour_of_day()] += self.at(h);
            counts[h.hour_of_day()] += 1;
        }
        let mut out = [0.0; HOURS_PER_DAY];
        for i in 0..HOURS_PER_DAY {
            out[i] = sums[i] / counts[i] as f64;
        }
        out
    }
}

/// Deterministic synthetic generator of hourly carbon-intensity traces.
///
/// The generator reproduces the structural features of real zone traces that
/// matter for carbon-aware placement:
///
/// * a **diurnal solar cycle** — solar output follows a half-sine between
///   sunrise and sunset, so zones with large solar shares get large midday
///   dips (Figure 4a);
/// * a **seasonal cycle** — solar (and to a lesser degree demand) is
///   modulated over the year, producing the month-to-month swings of
///   Figure 4b;
/// * **stochastic wind** — an AR(1) process makes wind output persist over
///   hours but vary across days;
/// * a **demand swing** — an evening-peaking component that increases the
///   fossil share when demand is high.
///
/// Given the same seed and zone profile the generator always produces the
/// same trace, which keeps every experiment in the workspace reproducible.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator with a global seed.  Each zone's trace is derived
    /// from this seed combined with the zone name, so different zones get
    /// independent (but reproducible) randomness.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn zone_seed(&self, profile: &ZoneProfile) -> u64 {
        // FNV-1a over the zone name, mixed with the global seed.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in profile.name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ self.seed.rotate_left(17)
    }

    /// Generates the year-long hourly trace for one zone.
    pub fn generate(&self, profile: &ZoneProfile) -> CarbonTrace {
        let mut rng = StdRng::seed_from_u64(self.zone_seed(profile));
        let mut values = Vec::with_capacity(HOURS_PER_YEAR);

        // AR(1) state for wind output around 1.0.
        let mut wind_state = 1.0f64;
        let wind_phi = 0.92; // hour-to-hour persistence
        let wind_sigma = profile.wind_variability * 0.25;

        // Solar capacity factor: half-sine between 06:00 and 18:00 local.
        let solar_diurnal: [f64; HOURS_PER_DAY] = std::array::from_fn(|h| {
            let hod = h as f64;
            if (6.0..18.0).contains(&hod) {
                ((hod - 6.0) / 12.0 * std::f64::consts::PI).sin()
            } else {
                0.0
            }
        });
        // Demand swing: evening peak (hour 19 local).
        let demand: [f64; HOURS_PER_DAY] = std::array::from_fn(|h| {
            let hod = h as f64;
            ((hod - 19.0) / 24.0 * std::f64::consts::TAU).cos()
        });
        // Where the adjusted shares cannot be normalized, the hour keeps the
        // base mix.
        let base = (profile.mix.carbon_intensity(), profile.mix.fossil_share());
        let mix = VariableMix::new(&profile.mix);
        let mut seasonal_scale = 0.0;

        for hour in HourOfYear::all() {
            let hod = hour.hour_of_day();
            if hod == 0 {
                // The solar half-sine is modulated seasonally (peak around
                // day 172, the summer solstice in the northern hemisphere,
                // where all modeled zones are).
                let doy = hour.day_of_year() as f64;
                let season = ((doy - 172.0) / 365.0 * std::f64::consts::TAU).cos();
                seasonal_scale = 1.0 - profile.solar_seasonality * 0.5 * (1.0 - season);
            }
            // Normalize so the *average* solar factor over the year stays near 1.0
            // (the baseline mix is an annual average): the mean of the half-sine
            // over 24h is 2/PI * 12/24 = 1/PI.
            let solar_factor = (solar_diurnal[hod] * seasonal_scale) / std::f64::consts::FRAC_1_PI;

            // Wind capacity factor: persistent AR(1) noise around 1.0.
            let noise: f64 = rng.gen_range(-1.0..1.0);
            wind_state = 1.0 + wind_phi * (wind_state - 1.0) + wind_sigma * noise;
            wind_state = wind_state.clamp(0.0, 2.0);
            let wind_factor = wind_state.min(1.5);

            let (mut intensity, fossil_share) = match mix.shares(solar_factor, wind_factor) {
                Some(shares) => mix.intensity_and_fossil_share(&shares),
                None => base,
            };

            // The demand swing increases the carbon intensity of marginal
            // generation for fossil-heavy zones.
            intensity *= 1.0 + profile.demand_swing * 0.5 * demand[hod] * fossil_share;

            // Small measurement-like jitter (±2%).
            let jitter: f64 = rng.gen_range(-0.02..0.02);
            intensity *= 1.0 + jitter;

            values.push(intensity.max(0.0));
        }

        CarbonTrace { values }
    }
}

/// A year of hourly carbon intensity for every zone of a profile list, each
/// zone's generated on its first read and kept.
///
/// Indexing by zone id (the zone's position in the list) returns its trace,
/// generated by [`TraceGenerator::generate`] the first time.  A trace is
/// seeded only from its zone's name and the generator's seed, so neither
/// the order of first reads nor the thread that makes one can change a
/// value, and concurrent first reads of one zone generate it once.
#[derive(Debug)]
pub struct ZoneTraces {
    generator: TraceGenerator,
    profiles: Vec<ZoneProfile>,
    traces: Vec<OnceLock<CarbonTrace>>,
}

impl ZoneTraces {
    /// A store over `profiles` (in zone-id order) that generates nothing
    /// until a zone is read.
    pub fn new(generator: TraceGenerator, profiles: Vec<ZoneProfile>) -> Self {
        let traces = profiles.iter().map(|_| OnceLock::new()).collect();
        Self {
            generator,
            profiles,
            traces,
        }
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the store has no zones.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of zones whose trace has been generated so far.
    pub fn generated_count(&self) -> usize {
        self.traces.iter().filter(|t| t.get().is_some()).count()
    }
}

impl Index<usize> for ZoneTraces {
    type Output = CarbonTrace;

    /// The trace of zone `zone`, generated on its first read.  Panics if
    /// `zone` is out of range.
    fn index(&self, zone: usize) -> &CarbonTrace {
        self.traces[zone].get_or_init(|| self.generator.generate(&self.profiles[zone]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::EnergyMix;
    use crate::source::EnergySource;
    use carbonedge_geo::Coordinates;
    use proptest::prelude::*;

    fn solar_heavy_zone() -> ZoneProfile {
        ZoneProfile::new(
            "SolarZone",
            Coordinates::new(33.0, -112.0),
            EnergyMix::new(&[
                (EnergySource::Solar, 0.35),
                (EnergySource::Gas, 0.45),
                (EnergySource::Nuclear, 0.2),
            ])
            .unwrap(),
        )
        .with_solar_seasonality(0.6)
    }

    fn coal_zone() -> ZoneProfile {
        ZoneProfile::new(
            "CoalZone",
            Coordinates::new(52.0, 19.0),
            EnergyMix::new(&[
                (EnergySource::Coal, 0.7),
                (EnergySource::Gas, 0.2),
                (EnergySource::Wind, 0.1),
            ])
            .unwrap(),
        )
    }

    fn hydro_zone() -> ZoneProfile {
        ZoneProfile::new(
            "HydroZone",
            Coordinates::new(46.9, 7.4),
            EnergyMix::new(&[(EnergySource::Hydro, 0.85), (EnergySource::Nuclear, 0.15)]).unwrap(),
        )
    }

    /// The per-hour synthesis `TraceGenerator::generate` replaced: a fresh
    /// `Vec`-based mix adjustment and three trig calls per hour.
    /// `generate` must match it bit for bit.
    fn generate_per_hour(gen: &TraceGenerator, profile: &ZoneProfile) -> CarbonTrace {
        let mut rng = StdRng::seed_from_u64(gen.zone_seed(profile));
        let mut values = Vec::with_capacity(HOURS_PER_YEAR);

        // AR(1) state for wind output around 1.0.
        let mut wind_state = 1.0f64;
        let wind_phi = 0.92; // hour-to-hour persistence
        let wind_sigma = profile.wind_variability * 0.25;

        for hour in HourOfYear::all() {
            let hod = hour.hour_of_day() as f64;
            let doy = hour.day_of_year() as f64;

            // Solar capacity factor: half-sine between 06:00 and 18:00 local,
            // modulated seasonally (peak around day 172, the summer solstice
            // in the northern hemisphere, where all modeled zones are).
            let season = ((doy - 172.0) / 365.0 * std::f64::consts::TAU).cos();
            let seasonal_scale = 1.0 - profile.solar_seasonality * 0.5 * (1.0 - season);
            let solar_diurnal = if (6.0..18.0).contains(&hod) {
                ((hod - 6.0) / 12.0 * std::f64::consts::PI).sin()
            } else {
                0.0
            };
            // Normalize so the *average* solar factor over the year stays near 1.0
            // (the baseline mix is an annual average): the mean of the half-sine
            // over 24h is 2/PI * 12/24 = 1/PI.
            let solar_factor = (solar_diurnal * seasonal_scale) / std::f64::consts::FRAC_1_PI;

            // Wind capacity factor: persistent AR(1) noise around 1.0.
            let noise: f64 = rng.gen_range(-1.0..1.0);
            wind_state = 1.0 + wind_phi * (wind_state - 1.0) + wind_sigma * noise;
            wind_state = wind_state.clamp(0.0, 2.0);
            let wind_factor = wind_state.min(1.5);

            let shares = variable_output_per_hour(&profile.mix, solar_factor, wind_factor);
            let mut intensity: f64 = shares
                .iter()
                .map(|(s, share)| s.carbon_factor() * share)
                .sum();
            let fossil_share: f64 = shares
                .iter()
                .filter(|(s, _)| s.is_fossil())
                .map(|(_, share)| share)
                .sum();

            // Demand swing: evening peak (hour 19 local) increases the carbon
            // intensity of marginal generation for fossil-heavy zones.
            let demand = ((hod - 19.0) / 24.0 * std::f64::consts::TAU).cos();
            intensity *= 1.0 + profile.demand_swing * 0.5 * demand * fossil_share;

            // Small measurement-like jitter (±2%).
            let jitter: f64 = rng.gen_range(-0.02..0.02);
            intensity *= 1.0 + jitter;

            values.push(intensity.max(0.0));
        }

        CarbonTrace { values }
    }

    /// The `Vec`-based mix adjustment `VariableMix` replaced, frozen here
    /// so the reference above does not run the kernel it checks: scale the
    /// variable shares, let the firm shares fill the rest, then normalize
    /// (merging duplicate sources), or keep the base mix where that fails.
    fn variable_output_per_hour(
        mix: &EnergyMix,
        solar_factor: f64,
        wind_factor: f64,
    ) -> Vec<(EnergySource, f64)> {
        let solar_factor = solar_factor.clamp(0.0, 3.0);
        let wind_factor = wind_factor.clamp(0.0, 1.5);
        let mut out = Vec::new();
        let mut variable_total = 0.0;
        let mut firm_total = 0.0;
        for (src, share) in mix.iter() {
            let scaled = match src {
                EnergySource::Solar => share * solar_factor,
                EnergySource::Wind => share * wind_factor,
                _ => {
                    firm_total += share;
                    share
                }
            };
            if src.is_variable() {
                variable_total += scaled;
            }
            out.push((src, scaled));
        }
        let residual = (1.0 - variable_total).max(0.0);
        if firm_total > 0.0 {
            let scale = residual / firm_total;
            for entry in out.iter_mut() {
                if !entry.0.is_variable() {
                    entry.1 *= scale;
                }
            }
        }
        if out
            .iter()
            .any(|&(_, share)| !share.is_finite() || share < 0.0)
        {
            return mix.iter().collect();
        }
        let mut merged: Vec<(EnergySource, f64)> = Vec::new();
        for (src, share) in out {
            match merged.iter_mut().find(|(s, _)| *s == src) {
                Some(entry) => entry.1 += share,
                None => merged.push((src, share)),
            }
        }
        let total: f64 = merged.iter().map(|(_, s)| s).sum();
        if total <= 0.0 {
            return mix.iter().collect();
        }
        for entry in merged.iter_mut() {
            entry.1 /= total;
        }
        merged
    }

    fn pure_solar_zone() -> ZoneProfile {
        ZoneProfile::new(
            "PureSolarZone",
            Coordinates::new(35.0, -115.0),
            EnergyMix::pure(EnergySource::Solar),
        )
    }

    #[test]
    fn generate_matches_the_per_hour_synthesis_bit_for_bit() {
        // The pure-solar zone falls back to the base mix every night.
        let zones = [
            pure_solar_zone(),
            coal_zone(),
            hydro_zone(),
            solar_heavy_zone(),
        ];
        for seed in [0, 1, 7, 42, 1234] {
            let gen = TraceGenerator::new(seed);
            for zone in &zones {
                let fast: Vec<u64> = gen
                    .generate(zone)
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let slow: Vec<u64> = generate_per_hour(&gen, zone)
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert!(fast == slow, "{} diverges at seed {seed}", zone.name);
            }
        }
    }

    #[test]
    fn trace_has_full_year() {
        let t = TraceGenerator::new(1).generate(&solar_heavy_zone());
        assert_eq!(t.values().len(), HOURS_PER_YEAR);
    }

    #[test]
    fn generation_is_deterministic() {
        let z = solar_heavy_zone();
        let a = TraceGenerator::new(42).generate(&z);
        let b = TraceGenerator::new(42).generate(&z);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let z = solar_heavy_zone();
        let a = TraceGenerator::new(1).generate(&z);
        let b = TraceGenerator::new(2).generate(&z);
        assert_ne!(a, b);
    }

    #[test]
    fn coal_zone_is_much_dirtier_than_hydro_zone() {
        let gen = TraceGenerator::new(7);
        let coal = gen.generate(&coal_zone());
        let hydro = gen.generate(&hydro_zone());
        assert!(coal.mean() > 500.0, "coal mean {}", coal.mean());
        assert!(hydro.mean() < 60.0, "hydro mean {}", hydro.mean());
        assert!(coal.mean() / hydro.mean() > 8.0);
    }

    #[test]
    fn solar_zone_has_midday_dip() {
        let gen = TraceGenerator::new(7);
        let trace = gen.generate(&solar_heavy_zone());
        let profile = trace.diurnal_profile();
        let midday = profile[12];
        let midnight = profile[0];
        assert!(midday < midnight, "midday {midday} vs midnight {midnight}");
    }

    #[test]
    fn hydro_zone_is_stable_over_day() {
        let gen = TraceGenerator::new(7);
        let trace = gen.generate(&hydro_zone());
        let profile = trace.diurnal_profile();
        let spread = profile.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - profile.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 10.0, "spread {spread}");
    }

    #[test]
    fn seasonal_solar_zone_varies_by_month() {
        let gen = TraceGenerator::new(7);
        let trace = gen.generate(&solar_heavy_zone());
        let june = trace.monthly_mean(5);
        let december = trace.monthly_mean(11);
        assert!(
            december > june,
            "winter should be dirtier for a solar zone: jun {june} dec {december}"
        );
    }

    #[test]
    fn mean_is_between_min_and_max() {
        let t = TraceGenerator::new(3).generate(&coal_zone());
        assert!(t.min() <= t.mean() && t.mean() <= t.max());
    }

    #[test]
    fn window_mean_of_full_year_equals_mean() {
        let t = TraceGenerator::new(3).generate(&coal_zone());
        let wm = t.window_mean(HourOfYear::START, HOURS_PER_YEAR);
        assert!((wm - t.mean()).abs() < 1e-9);
    }

    #[test]
    fn from_values_validates_length_and_content() {
        assert!(CarbonTrace::from_values(vec![1.0; 10]).is_none());
        assert!(CarbonTrace::from_values(vec![-1.0; HOURS_PER_YEAR]).is_none());
        assert!(CarbonTrace::from_values(vec![f64::NAN; HOURS_PER_YEAR]).is_none());
        assert!(CarbonTrace::from_values(vec![100.0; HOURS_PER_YEAR]).is_some());
    }

    #[test]
    fn constant_trace_is_flat() {
        let t = CarbonTrace::constant(123.0);
        assert_eq!(t.mean(), 123.0);
        assert_eq!(t.min(), t.max());
    }

    #[test]
    fn window_mean_sums_in_window_order_with_or_without_a_wrap() {
        let t = TraceGenerator::new(3).generate(&solar_heavy_zone());
        let per_hour = |start: HourOfYear, hours: usize| {
            let mut sum = 0.0;
            for k in 0..hours {
                sum += t.at(start.plus(k));
            }
            sum / hours as f64
        };
        for (start, hours) in [
            (0, 1),
            (0, 24),
            (100, 168),
            (HOURS_PER_YEAR - 24, 24),
            (HOURS_PER_YEAR - 24, 25),
            (HOURS_PER_YEAR - 1, 48),
            (5, HOURS_PER_YEAR),
            (0, HOURS_PER_YEAR + 7),
        ] {
            let start = HourOfYear::new(start);
            assert_eq!(
                t.window_mean(start, hours).to_bits(),
                per_hour(start, hours).to_bits(),
                "{hours} hours from {start:?}"
            );
        }
    }

    #[test]
    fn zone_traces_index_in_profile_order() {
        let traces = ZoneTraces::new(TraceGenerator::new(5), vec![coal_zone(), hydro_zone()]);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces.generated_count(), 0, "nothing is generated up front");
        assert!(traces[0].mean() > traces[1].mean());
        assert_eq!(traces.generated_count(), 2);
    }

    #[test]
    fn zone_traces_generate_only_the_zones_read() {
        let traces = ZoneTraces::new(
            TraceGenerator::new(5),
            vec![coal_zone(), hydro_zone(), solar_heavy_zone()],
        );
        let first = traces[2].values().as_ptr();
        assert_eq!(traces.generated_count(), 1);
        assert_eq!(
            traces[2].values().as_ptr(),
            first,
            "a read reuses the trace"
        );
        assert_eq!(traces.generated_count(), 1);
    }

    #[test]
    fn concurrent_first_reads_of_one_zone_agree() {
        let gen = TraceGenerator::new(42);
        let expected = gen.generate(&solar_heavy_zone());
        for _ in 0..8 {
            let traces = ZoneTraces::new(gen.clone(), vec![coal_zone(), solar_heavy_zone()]);
            let barrier = std::sync::Barrier::new(2);
            let [a, b] = std::thread::scope(|scope| {
                let read = || {
                    barrier.wait();
                    &traces[1]
                };
                let a = scope.spawn(read);
                let b = scope.spawn(read);
                [a.join().unwrap(), b.join().unwrap()]
            });
            assert!(std::ptr::eq(a, b), "one generation serves both readers");
            assert_eq!(a, &expected);
            assert_eq!(traces.generated_count(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn generated_traces_stay_within_physical_bounds(seed in 0u64..1000) {
            let gen = TraceGenerator::new(seed);
            for zone in [solar_heavy_zone(), coal_zone(), hydro_zone()] {
                let t = gen.generate(&zone);
                prop_assert!(t.min() >= 0.0);
                // Nothing can be dirtier than pure coal plus the demand swing/jitter margin.
                prop_assert!(t.max() <= 820.0 * 1.3);
            }
        }
    }
}
