//! Regional (mesoscale) testbed emulation — Figures 8, 9 and 10.
//!
//! The paper's testbed deploys five edge data centers across the Florida and
//! Central-EU regions (one Dell R630 + NVIDIA A2 per site), runs a CPU-based
//! sensor-processing application ("Sci") and a GPU model-serving application
//! (ResNet50), and compares the Latency-aware baseline with CarbonEdge over
//! 24 hours.  This module reproduces that experiment in simulation, driving
//! the same incremental placement service.

use crate::metrics::{PolicyOutcome, Savings};
use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_grid::{HourOfYear, ZoneTraces};
use carbonedge_net::LatencyModel;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, WorkloadProfile};
use std::collections::HashMap;

/// Per-application request rate (requests/second).
const REQUEST_RATE_RPS: f64 = 15.0;
/// Round-trip latency SLO (ms); the paper uses 20 ms (~500 km).
const LATENCY_SLO_MS: f64 = 20.0;
/// First hour of the 24-hour window within the simulated year: a mid-July
/// day, matching Figure 1b's window.
const START_HOUR: usize = 24 * 195;
/// Trace-generation seed.
const SEED: u64 = 42;

/// The two testbed workloads of Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestbedWorkload {
    /// CPU-based scientific/sensor processing application.
    SciCpu,
    /// GPU-based ResNet50 model serving.
    ResNet50,
}

impl TestbedWorkload {
    /// The workload's model kind.
    pub fn model(&self) -> ModelKind {
        match self {
            TestbedWorkload::SciCpu => ModelKind::SciCpu,
            TestbedWorkload::ResNet50 => ModelKind::ResNet50,
        }
    }

    /// The device installed in every testbed server for this workload.
    pub fn device(&self) -> DeviceKind {
        match self {
            TestbedWorkload::SciCpu => DeviceKind::XeonCpu,
            TestbedWorkload::ResNet50 => DeviceKind::A2,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TestbedWorkload::SciCpu => "Sci",
            TestbedWorkload::ResNet50 => "ResNet50",
        }
    }
}

/// Configuration of one regional testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Which mesoscale region to deploy in.
    pub region: StudyRegion,
    /// Which workload to run.
    pub workload: TestbedWorkload,
}

impl TestbedConfig {
    /// The paper's configuration for a region and workload.
    pub fn new(region: StudyRegion, workload: TestbedWorkload) -> Self {
        Self { region, workload }
    }
}

/// Result of one regional testbed run for one policy.
#[derive(Debug, Clone)]
pub struct TestbedPolicyResult {
    /// Policy name.
    pub policy: String,
    /// Hourly carbon emissions per origin zone (g CO2eq), 24 values each.
    pub hourly_emissions: Vec<(String, Vec<f64>)>,
    /// End-to-end response time per origin zone (network RTT + processing), ms.
    pub response_time_ms: Vec<(String, f64)>,
    /// Aggregate outcome over the 24 hours.
    pub outcome: PolicyOutcome,
}

/// Result of a full regional testbed comparison.
#[derive(Debug, Clone)]
pub struct TestbedResult {
    /// Region name.
    pub region: String,
    /// Workload name.
    pub workload: String,
    /// Hourly carbon intensity per zone (g/kWh), 24 values each (Figure 8a).
    pub hourly_intensity: Vec<(String, Vec<f64>)>,
    /// Per-policy results.
    pub policies: Vec<TestbedPolicyResult>,
    /// Savings of CarbonEdge versus the Latency-aware baseline (Figure 10).
    pub savings: Savings,
}

impl TestbedResult {
    /// Looks up the result of one policy.
    pub fn policy(&self, name: &str) -> Option<&TestbedPolicyResult> {
        self.policies.iter().find(|p| p.policy == name)
    }
}

/// Runs the regional testbed experiment for one configuration, comparing the
/// Latency-aware baseline with CarbonEdge (and any extra policies supplied).
pub fn run_testbed(config: &TestbedConfig) -> TestbedResult {
    run_testbed_with_policies(
        config,
        &[PlacementPolicy::LatencyAware, PlacementPolicy::CarbonAware],
    )
}

/// Runs the regional testbed experiment with an explicit policy list.
pub fn run_testbed_with_policies(
    config: &TestbedConfig,
    policies: &[PlacementPolicy],
) -> TestbedResult {
    let catalog = ZoneCatalog::worldwide();
    let region = MesoscaleRegion::resolve(config.region, &catalog);
    let traces = catalog.traces(SEED);
    let latency_model = LatencyModel::deterministic();
    let device = config.workload.device();
    let profile = WorkloadProfile::lookup(config.workload.model(), device)
        .expect("testbed workload runs on its testbed device");

    // Hourly intensity per zone (Figure 8a).
    let hourly_intensity: Vec<(String, Vec<f64>)> = region
        .zones
        .iter()
        .zip(region.members.iter())
        .map(|(zone, (name, _))| {
            let series: Vec<f64> = (0..24)
                .map(|h| traces[zone.index()].at(HourOfYear::new(START_HOUR + h)))
                .collect();
            (name.clone(), series)
        })
        .collect();

    let mut results = Vec::new();
    for policy in policies {
        results.push(run_policy(
            config,
            &region,
            &traces,
            &latency_model,
            &profile,
            *policy,
        ));
    }

    let baseline = results
        .iter()
        .find(|r| r.policy == PlacementPolicy::LatencyAware.name())
        .map(|r| r.outcome)
        .unwrap_or_default();
    let carbonedge = results
        .iter()
        .find(|r| r.policy == PlacementPolicy::CarbonAware.name())
        .map(|r| r.outcome)
        .unwrap_or(baseline);

    TestbedResult {
        region: config.region.name().to_string(),
        workload: config.workload.name().to_string(),
        hourly_intensity,
        policies: results,
        savings: Savings::versus(&carbonedge, &baseline),
    }
}

fn run_policy(
    config: &TestbedConfig,
    region: &MesoscaleRegion,
    traces: &ZoneTraces,
    latency_model: &LatencyModel,
    profile: &WorkloadProfile,
    policy: PlacementPolicy,
) -> TestbedPolicyResult {
    let placer = IncrementalPlacer::new(policy);
    let n = region.members.len();
    let mut hourly_emissions: Vec<(String, Vec<f64>)> = region
        .members
        .iter()
        .map(|(name, _)| (name.clone(), Vec::with_capacity(24)))
        .collect();
    let mut response_accum: HashMap<usize, (f64, usize)> = HashMap::new();
    let mut outcome = PolicyOutcome::default();

    for h in 0..24 {
        let now = HourOfYear::new(START_HOUR + h);
        // One server per site, powered on, with the hour's forecast intensity.
        let servers: Vec<ServerSnapshot> = region
            .zones
            .iter()
            .zip(region.members.iter())
            .enumerate()
            .map(|(site, (zone, (_, loc)))| {
                ServerSnapshot::new(site, site, *zone, config.workload.device(), *loc)
                    .with_carbon_intensity(traces[zone.index()].at(now))
            })
            .collect();
        // One application per site, originating at that site's location.
        let apps: Vec<Application> = region
            .members
            .iter()
            .enumerate()
            .map(|(i, (_, loc))| {
                Application::new(
                    AppId(i),
                    config.workload.model(),
                    REQUEST_RATE_RPS,
                    LATENCY_SLO_MS,
                    *loc,
                    i,
                )
            })
            .collect();
        let problem =
            PlacementProblem::new(servers, apps, 1.0).with_latency_model(latency_model.clone());
        let decision = placer
            .place(&problem)
            .expect("testbed placement is feasible");

        outcome.accumulate(&PolicyOutcome {
            carbon_g: decision.total_carbon_g,
            energy_j: decision.total_energy_j,
            mean_latency_ms: decision.mean_latency_ms,
            placed_apps: n - decision.unplaced.len(),
        });

        for (i, emissions) in hourly_emissions.iter_mut().enumerate().take(n) {
            let emission = match decision.assignment[i] {
                Some(j) => problem.operational_carbon_g(i, j).unwrap_or(0.0),
                None => 0.0,
            };
            emissions.1.push(emission);
            if let Some(j) = decision.assignment[i] {
                let rtt = problem.latency_ms(i, j);
                let response = rtt + profile.processing_time_ms;
                let entry = response_accum.entry(i).or_insert((0.0, 0));
                entry.0 += response;
                entry.1 += 1;
            }
        }
    }

    let response_time_ms: Vec<(String, f64)> = region
        .members
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let (sum, count) = response_accum.get(&i).copied().unwrap_or((0.0, 0));
            (
                name.clone(),
                if count > 0 { sum / count as f64 } else { 0.0 },
            )
        })
        .collect();

    TestbedPolicyResult {
        policy: policy.name(),
        hourly_emissions,
        response_time_ms,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn florida_carbonedge_saves_carbon_with_small_latency_cost() {
        // Figure 10: ~39% savings in Florida with a ~6.6 ms latency increase.
        let result = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::SciCpu,
        ));
        assert!(
            result.savings.carbon_percent > 15.0 && result.savings.carbon_percent < 60.0,
            "Florida savings {}",
            result.savings.carbon_percent
        );
        assert!(
            result.savings.latency_increase_ms > 1.0 && result.savings.latency_increase_ms < 20.0,
            "latency increase {}",
            result.savings.latency_increase_ms
        );
    }

    #[test]
    fn central_eu_savings_exceed_florida_savings() {
        // Figure 10: Central EU reaches ~78.7% savings, far above Florida.
        let florida = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::SciCpu,
        ));
        let eu = run_testbed(&TestbedConfig::new(
            StudyRegion::CentralEu,
            TestbedWorkload::SciCpu,
        ));
        assert!(
            eu.savings.carbon_percent > florida.savings.carbon_percent + 10.0,
            "EU {} vs FL {}",
            eu.savings.carbon_percent,
            florida.savings.carbon_percent
        );
        assert!(
            eu.savings.carbon_percent > 55.0 && eu.savings.carbon_percent < 95.0,
            "EU savings {}",
            eu.savings.carbon_percent
        );
    }

    #[test]
    fn gpu_workload_emits_less_than_cpu_workload() {
        // Figure 10a: the GPU application emits less carbon in absolute terms
        // because it draws far less power per request.
        let cpu = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::SciCpu,
        ));
        let gpu = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::ResNet50,
        ));
        let cpu_latency_aware = cpu.policy("Latency-aware").unwrap().outcome.carbon_g;
        let gpu_latency_aware = gpu.policy("Latency-aware").unwrap().outcome.carbon_g;
        assert!(gpu_latency_aware < cpu_latency_aware);
        // Savings percentages stay in the same ballpark across workloads
        // because the placement decisions are the same.
        assert!((cpu.savings.carbon_percent - gpu.savings.carbon_percent).abs() < 15.0);
    }

    #[test]
    fn carbonedge_consolidates_into_greenest_zone() {
        // Figure 8c: CarbonEdge serves every application from the greenest
        // zone (Miami), so per-zone emissions become nearly identical.
        let result = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::SciCpu,
        ));
        let ce = result.policy("CarbonEdge").unwrap();
        let totals: Vec<f64> = ce
            .hourly_emissions
            .iter()
            .map(|(_, series)| series.iter().sum::<f64>())
            .collect();
        let max = totals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min < 0.15 * max,
            "per-zone totals spread too much: {totals:?}"
        );
    }

    #[test]
    fn latency_aware_emissions_track_local_intensity() {
        // Figure 8b: under Latency-aware, each zone's emissions follow its
        // own carbon intensity, so the dirtiest zone emits the most.
        let result = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::SciCpu,
        ));
        let la = result.policy("Latency-aware").unwrap();
        let mut totals: Vec<(String, f64)> = la
            .hourly_emissions
            .iter()
            .map(|(name, series)| (name.clone(), series.iter().sum::<f64>()))
            .collect();
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        // Miami (the greenest Florida zone) must not be the top emitter.
        assert_ne!(totals[0].0, "Miami");
        // And the spread across zones must be visible.
        assert!(totals[0].1 > totals.last().unwrap().1 * 1.2);
    }

    #[test]
    fn response_times_are_bounded_by_slo_plus_processing() {
        // Figure 9: response-time increases stay within ~10 ms because all
        // placements respect the 20 ms round-trip SLO.
        let result = run_testbed(&TestbedConfig::new(
            StudyRegion::Florida,
            TestbedWorkload::ResNet50,
        ));
        let profile = WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::A2).unwrap();
        for policy in &result.policies {
            for (_, rt) in &policy.response_time_ms {
                assert!(*rt <= 20.0 + profile.processing_time_ms + 1e-6, "rt {rt}");
            }
        }
        let la = result.policy("Latency-aware").unwrap();
        let ce = result.policy("CarbonEdge").unwrap();
        for ((_, rt_la), (_, rt_ce)) in la.response_time_ms.iter().zip(ce.response_time_ms.iter()) {
            assert!(
                rt_ce + 1e-9 >= *rt_la,
                "CarbonEdge cannot be faster than local serving"
            );
        }
    }

    #[test]
    fn hourly_series_have_24_points() {
        let result = run_testbed(&TestbedConfig::new(
            StudyRegion::CentralEu,
            TestbedWorkload::SciCpu,
        ));
        assert_eq!(result.hourly_intensity.len(), 5);
        assert!(result.hourly_intensity.iter().all(|(_, s)| s.len() == 24));
        for p in &result.policies {
            assert!(p.hourly_emissions.iter().all(|(_, s)| s.len() == 24));
        }
    }

    #[test]
    fn testbed_run_is_deterministic() {
        let config = TestbedConfig::new(StudyRegion::Florida, TestbedWorkload::SciCpu);
        let a = run_testbed(&config);
        let b = run_testbed(&config);
        assert_eq!(a.savings.carbon_percent, b.savings.carbon_percent);
        assert_eq!(
            a.policy("CarbonEdge").unwrap().outcome.carbon_g,
            b.policy("CarbonEdge").unwrap().outcome.carbon_g
        );
    }
}
