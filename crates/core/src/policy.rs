//! Placement policies.
//!
//! The paper evaluates its carbon-aware policy against three baselines
//! (Section 6.1.3): `Latency-aware` (place on the nearest edge data center),
//! `Energy-aware` (minimize energy subject to latency and resource
//! constraints) and `Intensity-aware` (greedily choose the lowest-carbon-
//! intensity feasible location).  Section 6.4 adds a multi-objective
//! carbon–energy policy (Eq. 8) parameterized by a weight α.
//!
//! A policy is expressed as a cost function over feasible `(application,
//! server)` pairs plus a per-server activation cost; the incremental
//! placement algorithm minimizes the summed cost.

use crate::problem::PlacementProblem;
use serde::{Deserialize, Serialize};

/// The placement policies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The CarbonEdge policy: minimize total carbon (Eq. 6) — operational
    /// carbon plus server-activation carbon.
    CarbonAware,
    /// Place each application on its nearest (lowest-latency) feasible
    /// server; ignores carbon and energy.
    LatencyAware,
    /// Minimize energy consumption (operational plus activation energy).
    EnergyAware,
    /// Greedily prefer the feasible server with the lowest carbon intensity,
    /// regardless of the application's energy profile on it.
    IntensityAware,
    /// The multi-objective carbon–energy policy of Eq. 8:
    /// `α · normalized-energy + (1 − α) · normalized-carbon`.
    /// `α = 0` recovers `CarbonAware`, `α = 1` recovers `EnergyAware`.
    CarbonEnergyTradeoff {
        /// Energy weight α ∈ [0, 1].
        alpha: f64,
    },
}

impl PlacementPolicy {
    /// Display name used in experiment output.
    pub fn name(&self) -> String {
        match self {
            PlacementPolicy::CarbonAware => "CarbonEdge".to_string(),
            PlacementPolicy::LatencyAware => "Latency-aware".to_string(),
            PlacementPolicy::EnergyAware => "Energy-aware".to_string(),
            PlacementPolicy::IntensityAware => "Intensity-aware".to_string(),
            PlacementPolicy::CarbonEnergyTradeoff { alpha } => format!("CarbonEdge(α={alpha:.2})"),
        }
    }

    /// All single-objective policies (the four compared in Figure 15).
    pub const BASELINE_SET: [PlacementPolicy; 4] = [
        PlacementPolicy::LatencyAware,
        PlacementPolicy::EnergyAware,
        PlacementPolicy::IntensityAware,
        PlacementPolicy::CarbonAware,
    ];

    /// Whether this policy's pair costs are denominated in grams of carbon,
    /// making a per-move migration carbon term directly commensurate with
    /// its objective.  Only such policies weigh migration cost in their
    /// *decisions*; every policy still has migration carbon *accounted*
    /// after the fact, but folding grams into, say, the latency-aware
    /// policy's millisecond costs would mix units.
    pub fn migration_aware(&self) -> bool {
        matches!(self, PlacementPolicy::CarbonAware)
    }

    /// Builds the per-pair operational costs and per-server activation costs
    /// the placement optimizer should minimize for this policy.
    ///
    /// Returns `(pair_cost, activation_cost)`: `pair_cost` lists each
    /// application's feasible `(server, cost)` pairs, servers ascending (a
    /// pair that fails the hardware or latency test is absent), and
    /// `activation_cost[j]` is the extra cost of newly powering on server `j`.
    ///
    /// The pairs are found in one pass: per application, the energy is read
    /// once per run of consecutive servers with the same device (`None` marks
    /// the run hardware-infeasible), and each server of the run is kept when
    /// its latency meets the SLO.  Every cost is computed by the expression
    /// of the matching per-pair method of [`PlacementProblem`], so it equals
    /// that method bit for bit.
    pub fn costs(&self, problem: &PlacementProblem) -> (PairCosts, Vec<f64>) {
        let servers = &problem.servers;
        let mut runs = Vec::new();
        let mut run_start = 0;
        for j in 1..=servers.len() {
            if j == servers.len() || servers[j].device != servers[run_start].device {
                runs.push(run_start..j);
                run_start = j;
            }
        }

        let mut pair_cost = PairCosts {
            offsets: vec![0],
            pairs: Vec::new(),
        };
        // The tradeoff's raw energies, aligned with `pair_cost.pairs`, which
        // hold its raw carbon until normalization below.
        let mut energies = Vec::new();
        for (i, app) in problem.apps.iter().enumerate() {
            for run in &runs {
                let Some(energy) = problem.energy_j(i, run.start) else {
                    continue;
                };
                for j in run.clone() {
                    let latency = problem.latency_ms(i, j);
                    // NaN latencies and SLOs fail this test, as in
                    // `PlacementProblem::is_feasible_pair`.
                    let within_slo = latency <= app.latency_slo_ms + 1e-9;
                    if !within_slo {
                        continue;
                    }
                    let intensity = servers[j].carbon_intensity;
                    let cost = match self {
                        PlacementPolicy::CarbonAware => energy / 3.6e6 * intensity,
                        PlacementPolicy::LatencyAware => latency,
                        PlacementPolicy::EnergyAware => energy,
                        PlacementPolicy::IntensityAware => intensity,
                        PlacementPolicy::CarbonEnergyTradeoff { .. } => {
                            energies.push(energy);
                            energy / 3.6e6 * intensity
                        }
                    };
                    pair_cost.pairs.push((j, cost));
                }
            }
            pair_cost.offsets.push(pair_cost.pairs.len());
        }

        let mut activation: Vec<f64> = servers
            .iter()
            .enumerate()
            .map(|(j, server)| {
                if server.powered_on {
                    0.0
                } else {
                    match self {
                        PlacementPolicy::CarbonAware => problem.activation_carbon_g(j),
                        PlacementPolicy::EnergyAware => problem.activation_energy_j(j),
                        PlacementPolicy::LatencyAware | PlacementPolicy::IntensityAware => 0.0,
                        PlacementPolicy::CarbonEnergyTradeoff { .. } => 0.0, // set below
                    }
                }
            })
            .collect();

        if let PlacementPolicy::CarbonEnergyTradeoff { alpha } = self {
            let alpha = alpha.clamp(0.0, 1.0);
            // Min-max normalize carbon and energy over the feasible pairs
            // (the paper normalizes both objectives to [0, 1]).
            if !energies.is_empty() {
                let (cmin, cspan) = min_and_span(pair_cost.pairs.iter().map(|&(_, c)| c));
                let (emin, espan) = min_and_span(energies.iter().copied());
                for ((_, cost), &e) in pair_cost.pairs.iter_mut().zip(&energies) {
                    let c = *cost;
                    *cost = alpha * (e - emin) / espan + (1.0 - alpha) * (c - cmin) / cspan;
                }
                // Activation costs normalized against the same spans so they
                // stay commensurate with the pair costs.
                for (j, act) in activation.iter_mut().enumerate() {
                    if !servers[j].powered_on {
                        let c = problem.activation_carbon_g(j) / cspan;
                        let e = problem.activation_energy_j(j) / espan;
                        *act = alpha * e + (1.0 - alpha) * c;
                    }
                }
            }
        }

        (pair_cost, activation)
    }
}

/// The minimum of `values` and their span, `max - min` floored at `1e-12`.
fn min_and_span(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let (min, max) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), v| {
        (min.min(v), max.max(v))
    });
    (min, (max - min).max(1e-12))
}

/// The feasible `(server, cost)` pairs of each application of a placement
/// problem, servers strictly ascending within a row.  The rows sit in one
/// flat vector; a server missing from a row is an infeasible pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCosts {
    /// `pairs[offsets[i]..offsets[i + 1]]` is row `i`.
    offsets: Vec<usize>,
    pairs: Vec<(usize, f64)>,
}

impl PairCosts {
    /// Number of applications (rows).
    pub fn num_apps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of feasible pairs over all rows.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    fn range(&self, app: usize) -> std::ops::Range<usize> {
        self.offsets[app]..self.offsets[app + 1]
    }

    /// Application `app`'s feasible `(server, cost)` pairs, servers
    /// ascending.  Panics if `app` is out of range.
    pub fn row(&self, app: usize) -> &[(usize, f64)] {
        &self.pairs[self.range(app)]
    }

    /// Mutable access to application `app`'s costs (the servers must stay
    /// as they are).  Panics if `app` is out of range.
    pub fn row_mut(&mut self, app: usize) -> &mut [(usize, f64)] {
        let range = self.range(app);
        &mut self.pairs[range]
    }

    /// The cost of the pair `(app, server)`, or `None` when the pair is
    /// infeasible or either index is out of range.
    pub fn get(&self, app: usize, server: usize) -> Option<f64> {
        if app >= self.num_apps() {
            return None;
        }
        let row = self.row(app);
        let k = row.binary_search_by_key(&server, |&(j, _)| j).ok()?;
        Some(row[k].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ServerSnapshot;
    use carbonedge_geo::Coordinates;
    use carbonedge_grid::ZoneId;
    use carbonedge_net::LatencyModel;
    use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};

    fn problem() -> PlacementProblem {
        let servers = vec![
            // Local, dirty, energy-hungry GTX 1080.
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::Gtx1080,
                Coordinates::new(48.14, 11.58),
            )
            .with_carbon_intensity(500.0),
            // Remote (~335 km), green, efficient A2 — currently off.
            ServerSnapshot::new(
                1,
                1,
                ZoneId(1),
                DeviceKind::A2,
                Coordinates::new(46.95, 7.45),
            )
            .with_carbon_intensity(50.0)
            .with_powered_on(false),
        ];
        let app = Application::new(
            AppId(0),
            ModelKind::ResNet50,
            20.0,
            40.0,
            Coordinates::new(48.14, 11.58),
            0,
        );
        PlacementProblem::new(servers, vec![app], 1.0)
            .with_latency_model(LatencyModel::deterministic())
    }

    #[test]
    fn carbon_aware_prefers_green_server() {
        let p = problem();
        let (costs, _) = PlacementPolicy::CarbonAware.costs(&p);
        assert!(costs.get(0, 1).unwrap() < costs.get(0, 0).unwrap());
    }

    #[test]
    fn latency_aware_prefers_local_server() {
        let p = problem();
        let (costs, activation) = PlacementPolicy::LatencyAware.costs(&p);
        assert!(costs.get(0, 0).unwrap() < costs.get(0, 1).unwrap());
        assert_eq!(activation, vec![0.0, 0.0]);
    }

    #[test]
    fn energy_aware_prefers_efficient_device() {
        let p = problem();
        let (costs, _) = PlacementPolicy::EnergyAware.costs(&p);
        // ResNet50 on A2 uses less energy than on GTX 1080.
        assert!(costs.get(0, 1).unwrap() < costs.get(0, 0).unwrap());
    }

    #[test]
    fn intensity_aware_uses_zone_intensity_only() {
        let p = problem();
        let (costs, _) = PlacementPolicy::IntensityAware.costs(&p);
        assert_eq!(costs.get(0, 0).unwrap(), 500.0);
        assert_eq!(costs.get(0, 1).unwrap(), 50.0);
    }

    #[test]
    fn infeasible_pairs_have_no_cost() {
        let mut p = problem();
        p.apps[0].latency_slo_ms = 3.0; // remote server now violates the SLO
        let (costs, _) = PlacementPolicy::CarbonAware.costs(&p);
        assert!(costs.get(0, 0).is_some());
        assert!(costs.get(0, 1).is_none());
    }

    #[test]
    fn activation_costs_only_for_powered_off_servers() {
        let p = problem();
        let (_, act_carbon) = PlacementPolicy::CarbonAware.costs(&p);
        assert_eq!(act_carbon[0], 0.0);
        assert!(act_carbon[1] > 0.0);
        let (_, act_energy) = PlacementPolicy::EnergyAware.costs(&p);
        assert!(act_energy[1] > 0.0);
    }

    #[test]
    fn tradeoff_alpha_zero_matches_carbon_ranking() {
        let p = problem();
        let (carbon, _) = PlacementPolicy::CarbonAware.costs(&p);
        let (mixed, _) = PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.0 }.costs(&p);
        // Same ranking of the two servers.
        assert_eq!(
            carbon.get(0, 0) > carbon.get(0, 1),
            mixed.get(0, 0) > mixed.get(0, 1)
        );
    }

    #[test]
    fn tradeoff_costs_are_normalized() {
        let p = problem();
        let (mixed, _) = PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.5 }.costs(&p);
        assert_eq!(mixed.row(0).len(), 2);
        for &(_, c) in mixed.row(0) {
            assert!((0.0..=1.0 + 1e-9).contains(&c), "cost {c}");
        }
    }

    #[test]
    fn tradeoff_alpha_is_clamped() {
        let p = problem();
        let (hi, _) = PlacementPolicy::CarbonEnergyTradeoff { alpha: 5.0 }.costs(&p);
        let (one, _) = PlacementPolicy::CarbonEnergyTradeoff { alpha: 1.0 }.costs(&p);
        assert_eq!(hi, one);
    }

    #[test]
    fn policy_names_are_distinct() {
        let names: std::collections::HashSet<String> = PlacementPolicy::BASELINE_SET
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names.len(), 4);
    }
}
