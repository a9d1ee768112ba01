//! Energy mixes: the relative share of each generation source in a zone.

use crate::source::EnergySource;

/// The generation mix of a carbon zone: the fraction of supplied electricity
/// coming from each [`EnergySource`].
///
/// The carbon intensity of a zone is the mix-weighted average of the
/// per-source carbon factors (Section 2.1 of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyMix {
    shares: Vec<(EnergySource, f64)>,
}

impl EnergyMix {
    /// Builds a mix from `(source, share)` pairs.
    ///
    /// Shares must be non-negative; they are normalized so they sum to one.
    /// Returns `None` if all shares are zero or any share is negative/NaN.
    pub fn new(shares: &[(EnergySource, f64)]) -> Option<Self> {
        let mut merged = shares.to_vec();
        normalize(&mut merged).then_some(Self { shares: merged })
    }

    /// Share of a given source (0 if absent).
    pub fn share(&self, source: EnergySource) -> f64 {
        self.shares
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// Iterates over `(source, share)` pairs with non-zero shares.
    pub fn iter(&self) -> impl Iterator<Item = (EnergySource, f64)> + '_ {
        self.shares.iter().copied()
    }

    /// Mix-weighted average carbon intensity in g·CO2eq/kWh.
    pub fn carbon_intensity(&self) -> f64 {
        self.shares
            .iter()
            .map(|(s, share)| s.carbon_factor() * share)
            .sum()
    }

    /// Fraction of supply coming from fossil sources.
    pub fn fossil_share(&self) -> f64 {
        self.shares
            .iter()
            .filter(|(s, _)| s.is_fossil())
            .map(|(_, share)| share)
            .sum()
    }
}

/// The normalization of [`EnergyMix::new`], in place: merges duplicate
/// sources into their first occurrence and divides by the total.  Returns
/// `false` if any share is negative or not finite, or the total is not
/// positive.
fn normalize(shares: &mut Vec<(EnergySource, f64)>) -> bool {
    if shares
        .iter()
        .any(|&(_, share)| !share.is_finite() || share < 0.0)
    {
        return false;
    }
    let mut kept = 0;
    for k in 0..shares.len() {
        let (src, share) = shares[k];
        if let Some(entry) = shares[..kept].iter_mut().find(|(s, _)| *s == src) {
            entry.1 += share;
        } else {
            shares[kept] = (src, share);
            kept += 1;
        }
    }
    shares.truncate(kept);
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    if total <= 0.0 {
        return false;
    }
    for entry in shares.iter_mut() {
        entry.1 /= total;
    }
    true
}

/// The number of distinct sources, which bounds the length of a mix:
/// [`EnergyMix::new`] merges duplicates, and every other constructor holds
/// each source at most once.
const SOURCES: usize = EnergySource::ALL.len();

/// How [`VariableMix`] scales a source.
#[derive(Debug, Clone, Copy)]
enum Output {
    /// Scaled by the solar capacity factor.
    Solar,
    /// Scaled by the wind capacity factor.
    Wind,
    /// Scaled to fill the demand the variable sources leave.
    Firm,
}

/// A mix whose variable sources (solar and wind) are scaled by hourly
/// capacity factors, with the shortfall (or surplus) absorbed by the firm
/// sources proportionally to their baseline shares.
///
/// This models how a grid dispatches replacement generation when
/// renewables under-produce (e.g. at night the solar share goes to zero and
/// gas/coal pick up the slack), which is exactly the mechanism that
/// produces the diurnal and seasonal carbon-intensity swings shown in
/// Figure 4 of the paper.  The mix's constants are hoisted out of the
/// hourly loop: each source's output kind, carbon factor and fossil flag,
/// and the firm-share total, in fixed-size arrays in mix order, so
/// adjusting the mix allocates nothing.  Every floating-point operation
/// runs in the order the `Vec`-based adjustment ran it, so each hour keeps
/// its bits.
#[derive(Debug, Clone)]
pub(crate) struct VariableMix {
    len: usize,
    output: [Output; SOURCES],
    shares: [f64; SOURCES],
    factors: [f64; SOURCES],
    fossil: [bool; SOURCES],
    firm_total: f64,
}

impl VariableMix {
    /// Hoists the constants of `mix`.
    pub(crate) fn new(mix: &EnergyMix) -> Self {
        let mut hoisted = Self {
            len: mix.shares.len(),
            output: [Output::Firm; SOURCES],
            shares: [0.0; SOURCES],
            factors: [0.0; SOURCES],
            fossil: [false; SOURCES],
            firm_total: 0.0,
        };
        for (k, &(src, share)) in mix.shares.iter().enumerate() {
            hoisted.output[k] = match src {
                EnergySource::Solar => Output::Solar,
                EnergySource::Wind => Output::Wind,
                _ => {
                    hoisted.firm_total += share;
                    Output::Firm
                }
            };
            hoisted.shares[k] = share;
            hoisted.factors[k] = src.carbon_factor();
            hoisted.fossil[k] = src.is_fossil();
        }
        hoisted
    }

    /// The normalized shares under the capacity factors, in mix order
    /// (entries past the mix's length are unspecified), or `None` where
    /// they cannot be normalized (e.g. a pure-solar zone at night) and the
    /// base mix stays as it is.
    pub(crate) fn shares(&self, solar_factor: f64, wind_factor: f64) -> Option<[f64; SOURCES]> {
        let solar_factor = solar_factor.clamp(0.0, 3.0);
        let wind_factor = wind_factor.clamp(0.0, 1.5);
        let mut shares = self.shares;
        let adjusted = &mut shares[..self.len];
        let mut variable_total = 0.0;
        for (share, output) in adjusted.iter_mut().zip(&self.output) {
            let factor = match output {
                Output::Solar => solar_factor,
                Output::Wind => wind_factor,
                Output::Firm => continue,
            };
            *share *= factor;
            variable_total += *share;
        }
        // The firm sources scale to fill the remaining demand.
        let residual = (1.0 - variable_total).max(0.0);
        if self.firm_total > 0.0 {
            let scale = residual / self.firm_total;
            for (share, output) in adjusted.iter_mut().zip(&self.output) {
                if let Output::Firm = output {
                    *share *= scale;
                }
            }
        }
        if adjusted
            .iter()
            .any(|share| !share.is_finite() || *share < 0.0)
        {
            return None;
        }
        let total: f64 = adjusted.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for share in adjusted.iter_mut() {
            *share /= total;
        }
        Some(shares)
    }

    /// The carbon intensity (g·CO2eq/kWh) and fossil fraction of shares
    /// returned by [`Self::shares`].
    pub(crate) fn intensity_and_fossil_share(&self, shares: &[f64; SOURCES]) -> (f64, f64) {
        let shares = &shares[..self.len];
        let intensity = self.factors.iter().zip(shares).map(|(f, s)| f * s).sum();
        let fossil_share = shares
            .iter()
            .zip(&self.fossil)
            .filter(|(_, fossil)| **fossil)
            .map(|(share, _)| share)
            .sum();
        (intensity, fossil_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl EnergyMix {
        /// The mix under capacity factors, as the trace generator adjusts it
        /// each hour.
        fn with_variable_output(&self, solar_factor: f64, wind_factor: f64) -> EnergyMix {
            match VariableMix::new(self).shares(solar_factor, wind_factor) {
                Some(adjusted) => EnergyMix {
                    shares: self
                        .shares
                        .iter()
                        .zip(adjusted)
                        .map(|(&(src, _), share)| (src, share))
                        .collect(),
                },
                None => self.clone(),
            }
        }
    }

    fn sample_mix() -> EnergyMix {
        EnergyMix::new(&[
            (EnergySource::Solar, 0.2),
            (EnergySource::Wind, 0.1),
            (EnergySource::Gas, 0.5),
            (EnergySource::Nuclear, 0.2),
        ])
        .unwrap()
    }

    #[test]
    fn shares_are_normalized() {
        let mix = EnergyMix::new(&[(EnergySource::Coal, 2.0), (EnergySource::Wind, 2.0)]).unwrap();
        assert!((mix.share(EnergySource::Coal) - 0.5).abs() < 1e-12);
        assert!((mix.share(EnergySource::Wind) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_sources_are_merged() {
        let mix = EnergyMix::new(&[
            (EnergySource::Gas, 0.25),
            (EnergySource::Gas, 0.25),
            (EnergySource::Hydro, 0.5),
        ])
        .unwrap();
        assert!((mix.share(EnergySource::Gas) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_or_zero_mix_is_rejected() {
        assert!(EnergyMix::new(&[]).is_none());
        assert!(EnergyMix::new(&[(EnergySource::Gas, 0.0)]).is_none());
        assert!(EnergyMix::new(&[(EnergySource::Gas, -1.0)]).is_none());
        assert!(EnergyMix::new(&[(EnergySource::Gas, f64::NAN)]).is_none());
    }

    #[test]
    fn pure_coal_matches_coal_factor() {
        let mix = EnergyMix::new(&[(EnergySource::Coal, 1.0)]).unwrap();
        assert!((mix.carbon_intensity() - EnergySource::Coal.carbon_factor()).abs() < 1e-9);
    }

    #[test]
    fn carbon_intensity_is_weighted_average() {
        let mix = EnergyMix::new(&[(EnergySource::Coal, 0.5), (EnergySource::Wind, 0.5)]).unwrap();
        let expected = 0.5 * 820.0 + 0.5 * 11.0;
        assert!((mix.carbon_intensity() - expected).abs() < 1e-9);
    }

    #[test]
    fn fossil_share_sums_the_fossil_sources() {
        let mix = sample_mix();
        assert!((mix.fossil_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_solar_at_night_raises_intensity() {
        let mix = sample_mix();
        let night = mix.with_variable_output(0.0, 1.0);
        assert!(night.carbon_intensity() > mix.carbon_intensity());
        assert_eq!(night.share(EnergySource::Solar), 0.0);
    }

    #[test]
    fn extra_wind_lowers_intensity() {
        let mix = sample_mix();
        let windy = mix.with_variable_output(1.0, 1.5);
        assert!(windy.carbon_intensity() < mix.carbon_intensity());
    }

    #[test]
    fn variable_output_preserves_normalization() {
        let mix = sample_mix();
        for &(sf, wf) in &[(0.0, 0.0), (0.5, 1.2), (1.5, 1.5)] {
            let adj = mix.with_variable_output(sf, wf);
            let total: f64 = adj.iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "total {total} for ({sf},{wf})");
        }
    }

    #[test]
    fn all_variable_mix_survives_zero_output() {
        // A mix with only solar and wind at zero output cannot normalize;
        // the implementation falls back to the baseline mix.
        let mix = EnergyMix::new(&[(EnergySource::Solar, 0.6), (EnergySource::Wind, 0.4)]).unwrap();
        let adj = mix.with_variable_output(0.0, 0.0);
        let total: f64 = adj.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn carbon_intensity_bounded_by_source_factors(
            hydro in 0.0f64..1.0, solar in 0.0f64..1.0, wind in 0.0f64..1.0,
            nuclear in 0.0f64..1.0, coal in 0.0f64..1.0, gas in 0.0f64..1.0,
        ) {
            prop_assume!(hydro + solar + wind + nuclear + coal + gas > 1e-9);
            let mix = EnergyMix::new(&[
                (EnergySource::Hydro, hydro),
                (EnergySource::Solar, solar),
                (EnergySource::Wind, wind),
                (EnergySource::Nuclear, nuclear),
                (EnergySource::Coal, coal),
                (EnergySource::Gas, gas),
            ]).unwrap();
            let ci = mix.carbon_intensity();
            prop_assert!(ci >= EnergySource::Wind.carbon_factor() - 1e-9);
            prop_assert!(ci <= EnergySource::Coal.carbon_factor() + 1e-9);
        }

        #[test]
        fn shares_always_sum_to_one(
            a in 0.0f64..10.0, b in 0.0f64..10.0, c in 0.0f64..10.0,
        ) {
            prop_assume!(a + b + c > 1e-9);
            let mix = EnergyMix::new(&[
                (EnergySource::Hydro, a),
                (EnergySource::Coal, b),
                (EnergySource::Gas, c),
            ]).unwrap();
            let total: f64 = mix.iter().map(|(_, s)| s).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
