//! Generation-mix archetypes for assigning realistic mixes to zones.

use carbonedge_grid::{EnergyMix, EnergySource};

/// A generation-mix archetype: a named, typical composition of the grid of a
/// zone.  Zones in the catalog are tagged with an archetype plus a small
/// per-zone perturbation, which gives the catalog realistic structure
/// (hydro-heavy Pacific Northwest and Scandinavia, nuclear France, coal
/// Poland, solar/gas Southwest, …) without per-zone hand tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixArchetype {
    /// Dominated by hydro (e.g. Pacific Northwest, Norway, Switzerland).
    HydroHeavy,
    /// Dominated by nuclear (e.g. France, Ontario).
    NuclearHeavy,
    /// Dominated by coal (e.g. Poland, parts of the US Midwest).
    CoalHeavy,
    /// Dominated by natural gas (e.g. Florida, the Netherlands).
    GasHeavy,
    /// Large solar share backed by gas (e.g. US Southwest, southern Italy).
    SolarGas,
    /// Large wind share backed by gas (e.g. Texas, northern Germany, Denmark).
    WindGas,
    /// A coal + gas + some renewables blend (e.g. central Germany).
    FossilMixed,
    /// A diverse low-carbon blend of hydro, nuclear, wind and solar
    /// (e.g. Sweden, Austria).
    GreenMixed,
    /// A balanced blend of everything (typical "average" grid).
    Balanced,
}

impl MixArchetype {
    /// All archetypes.
    pub const ALL: [MixArchetype; 9] = [
        MixArchetype::HydroHeavy,
        MixArchetype::NuclearHeavy,
        MixArchetype::CoalHeavy,
        MixArchetype::GasHeavy,
        MixArchetype::SolarGas,
        MixArchetype::WindGas,
        MixArchetype::FossilMixed,
        MixArchetype::GreenMixed,
        MixArchetype::Balanced,
    ];

    /// The baseline energy mix of the archetype.
    #[rustfmt::skip]
    pub fn mix(&self) -> EnergyMix {
        use EnergySource::*;
        let shares: &[(EnergySource, f64)] = match self {
            MixArchetype::HydroHeavy => &[(Hydro, 0.78), (Wind, 0.08), (Gas, 0.08), (Nuclear, 0.06)],
            MixArchetype::NuclearHeavy => &[(Nuclear, 0.68), (Hydro, 0.12), (Gas, 0.10), (Wind, 0.06), (Solar, 0.04)],
            MixArchetype::CoalHeavy => &[(Coal, 0.68), (Gas, 0.16), (Wind, 0.10), (Solar, 0.06)],
            MixArchetype::GasHeavy => &[(Gas, 0.70), (Nuclear, 0.12), (Solar, 0.10), (Coal, 0.08)],
            MixArchetype::SolarGas => &[(Solar, 0.28), (Gas, 0.42), (Nuclear, 0.15), (Hydro, 0.07), (Coal, 0.08)],
            MixArchetype::WindGas => &[(Wind, 0.32), (Gas, 0.42), (Coal, 0.14), (Solar, 0.07), (Nuclear, 0.05)],
            MixArchetype::FossilMixed => &[(Coal, 0.32), (Gas, 0.34), (Wind, 0.16), (Solar, 0.10), (Hydro, 0.08)],
            MixArchetype::GreenMixed => &[(Hydro, 0.38), (Nuclear, 0.22), (Wind, 0.18), (Solar, 0.10), (Gas, 0.12)],
            MixArchetype::Balanced => &[(Gas, 0.30), (Coal, 0.18), (Nuclear, 0.18), (Hydro, 0.12), (Wind, 0.12), (Solar, 0.10)],
        };
        EnergyMix::new(shares).expect("archetype shares are valid")
    }

    /// A perturbed variant of the archetype mix, where the fossil share is
    /// scaled by `(1 + delta)` (delta in [-0.5, 0.5]) and renormalized.
    /// Used to give each zone in the catalog its own personality while
    /// keeping the archetype's character.
    pub fn perturbed_mix(&self, delta: f64) -> EnergyMix {
        let delta = delta.clamp(-0.5, 0.5);
        let base = self.mix();
        let shares: Vec<(EnergySource, f64)> = base
            .iter()
            .map(|(s, share)| {
                if s.is_fossil() {
                    (s, share * (1.0 + delta))
                } else {
                    (s, share)
                }
            })
            .collect();
        EnergyMix::new(&shares).unwrap_or(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetype_intensities_are_ordered_sensibly() {
        assert!(MixArchetype::HydroHeavy.mix().carbon_intensity() < 80.0);
        assert!(MixArchetype::NuclearHeavy.mix().carbon_intensity() < 100.0);
        assert!(MixArchetype::GreenMixed.mix().carbon_intensity() < 150.0);
        assert!(MixArchetype::CoalHeavy.mix().carbon_intensity() > 600.0);
        assert!(MixArchetype::GasHeavy.mix().carbon_intensity() > 350.0);
        assert!(
            MixArchetype::CoalHeavy.mix().carbon_intensity()
                > MixArchetype::FossilMixed.mix().carbon_intensity()
        );
    }

    #[test]
    fn coal_to_hydro_ratio_supports_mesoscale_spreads() {
        // The paper reports up to 10.8x yearly spread within one region and
        // ~19.5x in an hourly snapshot; the archetype extremes must support that.
        let ratio = MixArchetype::CoalHeavy.mix().carbon_intensity()
            / MixArchetype::HydroHeavy.mix().carbon_intensity();
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn all_archetype_mixes_are_normalized() {
        for a in MixArchetype::ALL {
            let total: f64 = a.mix().iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 1e-9, "{a:?}");
        }
    }

    #[test]
    fn perturbation_shifts_intensity_in_the_right_direction() {
        for a in MixArchetype::ALL {
            let up = a.perturbed_mix(0.3).carbon_intensity();
            let down = a.perturbed_mix(-0.3).carbon_intensity();
            let base = a.mix().carbon_intensity();
            if a.mix().fossil_share() > 0.0 {
                assert!(up >= base - 1e-9, "{a:?}");
                assert!(down <= base + 1e-9, "{a:?}");
            }
        }
    }

    #[test]
    fn perturbation_is_clamped() {
        let wild = MixArchetype::GasHeavy.perturbed_mix(5.0);
        let clamped = MixArchetype::GasHeavy.perturbed_mix(0.5);
        assert!((wild.carbon_intensity() - clamped.carbon_intensity()).abs() < 1e-9);
    }
}
