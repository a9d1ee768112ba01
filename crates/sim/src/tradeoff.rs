//! Carbon–energy trade-off sweep — Figure 16.
//!
//! The multi-objective policy of Eq. 8 interpolates between pure carbon
//! minimization (α = 0, the vanilla CarbonEdge policy) and pure energy
//! minimization (α = 1, the Energy-aware policy).  The paper sweeps α at
//! low and high cluster utilization and shows that a small α retains most of
//! the carbon savings while recovering much of the energy overhead.

use crate::hetero::{place_heuristic, ClusterKind, Deployment, HeterogeneityConfig};
use crate::metrics::PolicyOutcome;
use carbonedge_core::PlacementPolicy;

/// One point of the α sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The energy weight α.
    pub alpha: f64,
    /// Outcome of the placement at this α.
    pub outcome: PolicyOutcome,
}

/// Configuration and results of an α sweep.
#[derive(Debug, Clone)]
pub struct TradeoffSweep {
    /// Whether this is the high-utilization scenario.
    pub high_utilization: bool,
    /// The sweep points, in increasing α.
    pub points: Vec<TradeoffPoint>,
    /// Outcome of the Latency-aware baseline on the same scenario.
    pub latency_aware: PolicyOutcome,
}

impl TradeoffSweep {
    /// Runs the sweep over `alphas` for the low- or high-utilization
    /// scenario of Figure 16.
    ///
    /// Both scenarios place the heterogeneous cluster of Figure 15's
    /// deployment (Central-EU, one server per device type per site); the
    /// high-utilization scenario multiplies the offered load.
    pub fn run(high_utilization: bool, alphas: &[f64]) -> TradeoffSweep {
        // Low utilization: 1 app per model per site at 5 rps.
        // High utilization: 4 apps per model per site at 15 rps.
        let (apps_per_model_per_site, request_rate_rps) = if high_utilization {
            (4, 15.0)
        } else {
            (1, 5.0)
        };
        let config = HeterogeneityConfig {
            apps_per_model_per_site,
            request_rate_rps,
            ..Default::default()
        };
        let problem = Deployment::new(&config).problem(ClusterKind::Heterogeneous);

        let points = alphas
            .iter()
            .map(|alpha| TradeoffPoint {
                alpha: *alpha,
                outcome: place_heuristic(
                    &problem,
                    PlacementPolicy::CarbonEnergyTradeoff { alpha: *alpha },
                ),
            })
            .collect();
        let latency_aware = place_heuristic(&problem, PlacementPolicy::LatencyAware);

        TradeoffSweep {
            high_utilization,
            points,
            latency_aware,
        }
    }

    /// The default α grid of Figure 16 (0.0 to 1.0 in steps of 0.1).
    pub fn default_alphas() -> Vec<f64> {
        (0..=10).map(|k| k as f64 / 10.0).collect()
    }

    /// Carbon savings (vs. Latency-aware) retained at a given α, as a
    /// fraction of the savings at α = 0.
    pub fn retained_savings_fraction(&self, alpha: f64) -> Option<f64> {
        let at = |a: f64| {
            self.points
                .iter()
                .find(|p| (p.alpha - a).abs() < 1e-9)
                .map(|p| p.outcome.carbon_g)
        };
        let full = at(0.0)?;
        let here = at(alpha)?;
        let baseline = self.latency_aware.carbon_g;
        let full_savings = baseline - full;
        if full_savings <= 0.0 {
            return Some(1.0);
        }
        Some(((baseline - here) / full_savings).clamp(0.0, 1.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carbon_rises_and_energy_falls_with_alpha() {
        // Figure 16: moving α from 0 to 1 trades carbon for energy.
        let sweep = TradeoffSweep::run(false, &[0.0, 0.5, 1.0]);
        let first = sweep.points.first().unwrap().outcome;
        let last = sweep.points.last().unwrap().outcome;
        assert!(
            last.carbon_g >= first.carbon_g - 1e-9,
            "carbon should not fall as α grows"
        );
        assert!(
            last.energy_j <= first.energy_j + 1e-9,
            "energy should not rise as α grows"
        );
    }

    #[test]
    fn alpha_zero_saves_most_carbon_versus_latency_aware() {
        // Figure 16a: at α = 0 the low-utilization scenario reaches ~98%
        // savings versus Latency-aware.
        let sweep = TradeoffSweep::run(false, &[0.0]);
        let ce = sweep.points[0].outcome.carbon_g;
        let la = sweep.latency_aware.carbon_g;
        let savings = (1.0 - ce / la) * 100.0;
        assert!(savings > 50.0, "savings {savings}");
    }

    #[test]
    fn small_alpha_retains_most_savings() {
        // Figure 16a: α = 0.1 retains ~97.5% of the carbon savings while
        // cutting energy use substantially.
        let sweep = TradeoffSweep::run(false, &[0.0, 0.1, 1.0]);
        let retained = sweep.retained_savings_fraction(0.1).unwrap();
        assert!(retained > 0.6, "retained {retained}");
        let e0 = sweep.points[0].outcome.energy_j;
        let e01 = sweep.points[1].outcome.energy_j;
        assert!(e01 <= e0 + 1e-9);
    }

    #[test]
    fn high_utilization_scales_magnitudes_up() {
        // Figure 16b: the high-utilization scenario has much larger carbon
        // and energy magnitudes.
        let low = TradeoffSweep::run(false, &[0.0]);
        let high = TradeoffSweep::run(true, &[0.0]);
        assert!(high.points[0].outcome.carbon_g > low.points[0].outcome.carbon_g * 3.0);
        assert!(high.points[0].outcome.energy_j > low.points[0].outcome.energy_j * 3.0);
        assert!(high.high_utilization);
    }

    #[test]
    fn default_alpha_grid_matches_figure() {
        let alphas = TradeoffSweep::default_alphas();
        assert_eq!(alphas.len(), 11);
        assert_eq!(alphas[0], 0.0);
        assert_eq!(*alphas.last().unwrap(), 1.0);
    }

    #[test]
    fn retained_fraction_handles_missing_alpha() {
        let sweep = TradeoffSweep::run(false, &[0.0, 1.0]);
        assert!(sweep.retained_savings_fraction(0.3).is_none());
        assert!(sweep.retained_savings_fraction(1.0).is_some());
    }
}
