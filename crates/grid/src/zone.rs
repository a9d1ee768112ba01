//! Carbon zones: grid regions with their own generation mix and variability.

use crate::mix::EnergyMix;
use carbonedge_geo::Coordinates;

/// Identifier of a carbon zone (index into a zone catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub usize);

impl ZoneId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Static description of a carbon zone: its location, baseline generation
/// mix, and the parameters that control how its renewable output varies over
/// the day and year.
///
/// A *carbon zone* is "a geographic area whose grid operator provides carbon
/// intensity data" (Section 3.1).  In this reproduction each zone carries
/// enough information to synthesize an hourly carbon-intensity trace that
/// has the same structure as the real data: a baseline mix, solar diurnal
/// cycles, seasonal modulation, and stochastic wind.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneProfile {
    /// Human-readable zone name, e.g. "Miami" or "Bern, CH".
    pub name: String,
    /// Representative location of the zone (its main city).
    pub location: Coordinates,
    /// Baseline annual-average generation mix.
    pub mix: EnergyMix,
    /// Amplitude of the seasonal modulation of solar output in `[0, 1]`:
    /// 0 means no seasonal change, 1 means winter output drops to zero.
    pub solar_seasonality: f64,
    /// Amplitude of stochastic day-to-day wind variability in `[0, 1]`.
    pub wind_variability: f64,
    /// Amplitude of an additional demand-driven diurnal swing applied to the
    /// fossil share in `[0, 0.5]`; models evening peaker plants.
    pub demand_swing: f64,
}

impl ZoneProfile {
    /// Creates a zone profile with the given name, location and baseline mix
    /// and moderate default variability parameters.
    pub fn new(name: impl Into<String>, location: Coordinates, mix: EnergyMix) -> Self {
        Self {
            name: name.into(),
            location,
            mix,
            solar_seasonality: 0.5,
            wind_variability: 0.3,
            demand_swing: 0.1,
        }
    }

    /// Sets the seasonal amplitude of solar output.
    pub fn with_solar_seasonality(mut self, s: f64) -> Self {
        self.solar_seasonality = s.clamp(0.0, 1.0);
        self
    }

    /// Sets the stochastic wind variability amplitude.
    pub fn with_wind_variability(mut self, w: f64) -> Self {
        self.wind_variability = w.clamp(0.0, 1.0);
        self
    }

    /// Sets the demand-driven diurnal swing amplitude.
    pub fn with_demand_swing(mut self, d: f64) -> Self {
        self.demand_swing = d.clamp(0.0, 0.5);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::EnergySource;

    fn zone() -> ZoneProfile {
        ZoneProfile::new(
            "Test",
            Coordinates::new(45.0, 8.0),
            EnergyMix::new(&[(EnergySource::Gas, 0.6), (EnergySource::Solar, 0.4)]).unwrap(),
        )
    }

    #[test]
    fn zone_intensity_is_its_mix_weighted_average() {
        let z = zone();
        let expected =
            0.6 * EnergySource::Gas.carbon_factor() + 0.4 * EnergySource::Solar.carbon_factor();
        assert!((z.mix.carbon_intensity() - expected).abs() < 1e-12);
    }

    #[test]
    fn builder_clamps_parameters() {
        let z = zone()
            .with_solar_seasonality(2.0)
            .with_wind_variability(-1.0)
            .with_demand_swing(0.9);
        assert_eq!(z.solar_seasonality, 1.0);
        assert_eq!(z.wind_variability, 0.0);
        assert_eq!(z.demand_swing, 0.5);
    }

    #[test]
    fn zone_id_index_round_trips() {
        assert_eq!(ZoneId(7).index(), 7);
    }

    #[test]
    fn defaults_are_moderate() {
        let z = zone();
        assert!(z.solar_seasonality > 0.0 && z.solar_seasonality < 1.0);
        assert!(z.wind_variability > 0.0 && z.wind_variability < 1.0);
    }
}
