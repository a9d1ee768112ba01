//! Generation sources and their lifecycle carbon-intensity factors.

/// An electricity generation source.
///
/// The set mirrors the source categories reported by Electricity Maps and
/// used in Figure 1a of the paper (hydro, solar, wind, nuclear, fossil
/// fuels), with the fossil category broken out into coal, gas and oil so the
/// synthetic mixes can reproduce the large spread between coal-heavy zones
/// (e.g. Poland, ~750 g·CO2eq/kWh) and gas-heavy zones (~400-500 g).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergySource {
    /// Hydroelectric generation.
    Hydro,
    /// Photovoltaic solar generation.
    Solar,
    /// Onshore/offshore wind generation.
    Wind,
    /// Nuclear generation.
    Nuclear,
    /// Hard coal / lignite generation.
    Coal,
    /// Natural-gas generation.
    Gas,
    /// Oil-fired generation.
    Oil,
    /// Biomass generation.
    Biomass,
    /// Geothermal generation.
    Geothermal,
    /// Battery discharge (treated as low-carbon storage).
    Battery,
}

impl EnergySource {
    /// All source variants, in a stable order.
    pub const ALL: [EnergySource; 10] = [
        EnergySource::Hydro,
        EnergySource::Solar,
        EnergySource::Wind,
        EnergySource::Nuclear,
        EnergySource::Coal,
        EnergySource::Gas,
        EnergySource::Oil,
        EnergySource::Biomass,
        EnergySource::Geothermal,
        EnergySource::Battery,
    ];

    /// Lifecycle carbon-intensity factor of the source in g·CO2eq/kWh.
    ///
    /// Values are the IPCC AR5 median lifecycle emission factors, which are
    /// also what Electricity Maps uses by default; they make the synthetic
    /// traces land in the same absolute ranges as the paper's Figure 1b
    /// (e.g. Ontario ≈ 30-60, Poland ≈ 600-800).
    pub fn carbon_factor(&self) -> f64 {
        match self {
            EnergySource::Hydro => 24.0,
            EnergySource::Solar => 45.0,
            EnergySource::Wind => 11.0,
            EnergySource::Nuclear => 12.0,
            EnergySource::Coal => 820.0,
            EnergySource::Gas => 490.0,
            EnergySource::Oil => 650.0,
            EnergySource::Biomass => 230.0,
            EnergySource::Geothermal => 38.0,
            EnergySource::Battery => 60.0,
        }
    }

    /// Whether the source is a fossil fuel.
    pub fn is_fossil(&self) -> bool {
        matches!(
            self,
            EnergySource::Coal | EnergySource::Gas | EnergySource::Oil
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{EnergyMix, VariableMix};

    #[test]
    fn all_sources_have_positive_factors() {
        for s in EnergySource::ALL {
            assert!(s.carbon_factor() > 0.0, "{s:?}");
        }
    }

    #[test]
    fn coal_is_dirtiest() {
        for s in EnergySource::ALL {
            assert!(EnergySource::Coal.carbon_factor() >= s.carbon_factor());
        }
    }

    #[test]
    fn wind_and_nuclear_are_cleanest() {
        let min = EnergySource::ALL
            .iter()
            .map(|s| s.carbon_factor())
            .fold(f64::INFINITY, f64::min);
        assert!(EnergySource::Wind.carbon_factor() <= min + 1.0);
    }

    #[test]
    fn variable_sources() {
        // Solar and wind follow the hourly capacity factors; every other
        // source is firm and fills the demand they leave.
        let sources = [
            EnergySource::Solar,
            EnergySource::Wind,
            EnergySource::Nuclear,
            EnergySource::Hydro,
        ];
        let mix = EnergyMix::new(&sources.map(|s| (s, 0.25))).unwrap();
        let shares = VariableMix::new(&mix).shares(0.0, 0.0).unwrap();
        assert_eq!(shares[..4], [0.0, 0.0, 0.5, 0.5]);
    }

    #[test]
    fn fossil_classification() {
        assert!(EnergySource::Coal.is_fossil());
        assert!(EnergySource::Gas.is_fossil());
        assert!(EnergySource::Oil.is_fossil());
        assert!(!EnergySource::Solar.is_fossil());
    }
}
