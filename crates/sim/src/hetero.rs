//! Device-heterogeneity experiment — Figure 15.
//!
//! The paper serves a mix of EfficientNetB0, ResNet50 and YOLOv4 applications
//! on clusters of Orin Nano, A2 and GTX 1080 servers (and a heterogeneous
//! cluster mixing all three), comparing the four policies.  Carbon-aware
//! placement exploits the interplay between energy efficiency, carbon
//! intensity and processing speed, and the heterogeneous cluster gives it
//! the most freedom.

use crate::metrics::PolicyOutcome;
use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_grid::HourOfYear;
use carbonedge_net::LatencyModel;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};

/// Region providing the edge sites and carbon zones.
const REGION: StudyRegion = StudyRegion::CentralEu;
/// Round-trip latency SLO (ms).
const LATENCY_SLO_MS: f64 = 20.0;
/// Hour of year used for the carbon-intensity snapshot.
const HOUR: usize = 12 * 24;
/// Trace seed.
const SEED: u64 = 42;

/// Which cluster composition to evaluate (the x-axis groups of Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// Every site runs Jetson Orin Nano servers.
    OrinNano,
    /// Every site runs NVIDIA A2 servers.
    A2,
    /// Every site runs GTX 1080 servers.
    Gtx1080,
    /// Each site runs a mix of all three device types.
    Heterogeneous,
}

impl ClusterKind {
    /// All cluster kinds in figure order.
    pub const ALL: [ClusterKind; 4] = [
        ClusterKind::OrinNano,
        ClusterKind::A2,
        ClusterKind::Gtx1080,
        ClusterKind::Heterogeneous,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterKind::OrinNano => "Orin Nano",
            ClusterKind::A2 => "A2",
            ClusterKind::Gtx1080 => "GTX 1080",
            ClusterKind::Heterogeneous => "Hetero.",
        }
    }

    /// The devices installed at each site for this cluster kind.
    pub fn devices(&self) -> Vec<DeviceKind> {
        match self {
            ClusterKind::OrinNano => vec![DeviceKind::OrinNano; 3],
            ClusterKind::A2 => vec![DeviceKind::A2; 3],
            ClusterKind::Gtx1080 => vec![DeviceKind::Gtx1080; 3],
            ClusterKind::Heterogeneous => {
                vec![DeviceKind::OrinNano, DeviceKind::A2, DeviceKind::Gtx1080]
            }
        }
    }
}

/// Configuration of the heterogeneity experiment: the offered load.
#[derive(Debug, Clone)]
pub struct HeterogeneityConfig {
    /// Number of applications per model kind arriving at each site.
    pub apps_per_model_per_site: usize,
    /// Per-application request rate.
    pub request_rate_rps: f64,
}

impl Default for HeterogeneityConfig {
    fn default() -> Self {
        Self {
            apps_per_model_per_site: 1,
            request_rate_rps: 10.0,
        }
    }
}

/// Result of the heterogeneity experiment for one cluster kind and policy.
#[derive(Debug, Clone)]
pub struct HeterogeneityResult {
    /// Cluster kind.
    pub cluster: &'static str,
    /// Policy name.
    pub policy: String,
    /// Aggregate outcome.
    pub outcome: PolicyOutcome,
}

/// The deployment of Figures 15 and 16, generated once per experiment: the
/// sites of [`REGION`], each priced at its zone's carbon intensity at
/// [`HOUR`] of the seeded traces.
pub(crate) struct Deployment {
    config: HeterogeneityConfig,
    region: MesoscaleRegion,
    /// Carbon intensity per site, in region member order.
    intensity: Vec<f64>,
}

impl Deployment {
    /// Resolves the region and prices its sites.
    pub(crate) fn new(config: &HeterogeneityConfig) -> Self {
        let catalog = ZoneCatalog::worldwide();
        let region = MesoscaleRegion::resolve(REGION, &catalog);
        let traces = catalog.traces(SEED);
        let now = HourOfYear::new(HOUR);
        let intensity = region
            .zones
            .iter()
            .map(|zone| traces[zone.index()].at(now))
            .collect();
        Self {
            config: config.clone(),
            region,
            intensity,
        }
    }

    /// The one-hour placement problem of `cluster`: each site hosts one
    /// server per device of the cluster and receives
    /// `apps_per_model_per_site` applications of each GPU model at the
    /// configured rate and [`LATENCY_SLO_MS`].
    pub(crate) fn problem(&self, cluster: ClusterKind) -> PlacementProblem {
        let sites = self.region.zones.iter().zip(&self.region.members);
        let mut servers = Vec::new();
        for (site_idx, ((zone, (_, loc)), intensity)) in sites.zip(&self.intensity).enumerate() {
            for device in cluster.devices() {
                servers.push(
                    ServerSnapshot::new(servers.len(), site_idx, *zone, device, *loc)
                        .with_carbon_intensity(*intensity),
                );
            }
        }
        let mut apps = Vec::new();
        for (_, loc) in &self.region.members {
            for model in ModelKind::GPU_MODELS {
                for _ in 0..self.config.apps_per_model_per_site {
                    apps.push(Application::new(
                        AppId(apps.len()),
                        model,
                        self.config.request_rate_rps,
                        LATENCY_SLO_MS,
                        *loc,
                        0,
                    ));
                }
            }
        }
        PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
    }
}

/// Places `problem` with the assignment heuristic under `policy` and totals
/// the decision.
pub(crate) fn place_heuristic(
    problem: &PlacementProblem,
    policy: PlacementPolicy,
) -> PolicyOutcome {
    let decision = IncrementalPlacer::new(policy)
        .heuristic_only()
        .place(problem)
        .expect("heterogeneous deployment placement feasible");
    PolicyOutcome {
        carbon_g: decision.total_carbon_g,
        energy_j: decision.total_energy_j,
        mean_latency_ms: decision.mean_latency_ms,
        placed_apps: problem.apps.len() - decision.unplaced.len(),
    }
}

/// Runs the heterogeneity experiment across all cluster kinds and the four
/// policies of Figure 15, returning one result per (cluster, policy).
pub fn run_heterogeneity(config: &HeterogeneityConfig) -> Vec<HeterogeneityResult> {
    let deployment = Deployment::new(config);
    let mut results = Vec::new();
    for cluster in ClusterKind::ALL {
        let problem = deployment.problem(cluster);
        for policy in PlacementPolicy::BASELINE_SET {
            results.push(HeterogeneityResult {
                cluster: cluster.name(),
                policy: policy.name(),
                outcome: place_heuristic(&problem, policy),
            });
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Savings;

    fn results() -> Vec<HeterogeneityResult> {
        run_heterogeneity(&HeterogeneityConfig::default())
    }

    /// Looks up one (cluster, policy) outcome in a result set.
    fn outcome_of<'a>(
        results: &'a [HeterogeneityResult],
        cluster: &str,
        policy: &str,
    ) -> Option<&'a PolicyOutcome> {
        results
            .iter()
            .find(|r| r.cluster == cluster && r.policy == policy)
            .map(|r| &r.outcome)
    }

    /// Savings of CarbonEdge over a baseline policy for one cluster kind.
    fn savings_versus(
        results: &[HeterogeneityResult],
        cluster: &str,
        baseline: &str,
    ) -> Option<Savings> {
        let ce = outcome_of(results, cluster, "CarbonEdge")?;
        let base = outcome_of(results, cluster, baseline)?;
        Some(Savings::versus(ce, base))
    }

    #[test]
    fn all_cluster_policy_combinations_are_present() {
        let r = results();
        assert_eq!(r.len(), 4 * 4);
        for cluster in ClusterKind::ALL {
            for policy in [
                "CarbonEdge",
                "Latency-aware",
                "Energy-aware",
                "Intensity-aware",
            ] {
                assert!(
                    outcome_of(&r, cluster.name(), policy).is_some(),
                    "{cluster:?} {policy}"
                );
            }
        }
    }

    #[test]
    fn orin_nano_uses_less_energy_than_gtx1080() {
        // Figure 15b: serving the same load on Orin Nano uses far less energy
        // than on GTX 1080 (the paper reports ~95% less).
        let r = results();
        let nano = outcome_of(&r, "Orin Nano", "Latency-aware")
            .unwrap()
            .energy_j;
        let gtx = outcome_of(&r, "GTX 1080", "Latency-aware")
            .unwrap()
            .energy_j;
        assert!(nano < gtx * 0.5, "nano {nano} gtx {gtx}");
    }

    #[test]
    fn carbonedge_beats_all_baselines_on_heterogeneous_cluster() {
        // Figure 15a: on the heterogeneous cluster CarbonEdge reduces carbon
        // versus Latency-, Intensity- and Energy-aware baselines.
        let r = results();
        let ce = outcome_of(&r, "Hetero.", "CarbonEdge").unwrap().carbon_g;
        for baseline in ["Latency-aware", "Intensity-aware", "Energy-aware"] {
            let b = outcome_of(&r, "Hetero.", baseline).unwrap().carbon_g;
            assert!(ce <= b + 1e-9, "CarbonEdge {ce} vs {baseline} {b}");
        }
        let vs_latency = savings_versus(&r, "Hetero.", "Latency-aware").unwrap();
        assert!(
            vs_latency.carbon_percent > 40.0,
            "savings {}",
            vs_latency.carbon_percent
        );
    }

    #[test]
    fn carbonedge_saves_carbon_on_every_homogeneous_cluster() {
        // Figure 15a: 53%-62% reductions on single-device clusters.
        let r = results();
        for cluster in ["Orin Nano", "A2", "GTX 1080"] {
            let s = savings_versus(&r, cluster, "Latency-aware").unwrap();
            assert!(s.carbon_percent > 20.0, "{cluster}: {}", s.carbon_percent);
        }
    }

    #[test]
    fn carbon_aware_placement_uses_more_energy_than_energy_aware() {
        // Figure 15b: the carbon-energy trade-off — Intensity-aware and
        // CarbonEdge consume more energy than Energy-aware.
        let r = results();
        let ce = outcome_of(&r, "Hetero.", "CarbonEdge").unwrap().energy_j;
        let ea = outcome_of(&r, "Hetero.", "Energy-aware").unwrap().energy_j;
        assert!(
            ce >= ea - 1e-9,
            "CarbonEdge energy {ce} vs Energy-aware {ea}"
        );
    }

    #[test]
    fn every_application_is_placed() {
        let r = results();
        for res in &r {
            assert!(res.outcome.placed_apps > 0);
            assert!(res.outcome.carbon_g > 0.0);
        }
    }
}
