//! End-to-end integration: datasets → traces → placement problem →
//! incremental placer.

use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_grid::HourOfYear;
use carbonedge_net::LatencyModel;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};

/// Builds the Central-EU regional scenario used across these tests.
fn regional_scenario() -> (Vec<ServerSnapshot>, Vec<Application>) {
    let catalog = ZoneCatalog::worldwide();
    let region = MesoscaleRegion::resolve(StudyRegion::CentralEu, &catalog);
    let traces = catalog.traces(42);
    let now = HourOfYear::new(4000);

    let mut snapshots = Vec::new();
    for (idx, (zone, (_, loc))) in region.zones.iter().zip(region.members.iter()).enumerate() {
        snapshots.push(
            ServerSnapshot::new(idx, idx, *zone, DeviceKind::A2, *loc)
                .with_carbon_intensity(traces[zone.index()].at(now)),
        );
    }
    let apps: Vec<Application> = region
        .members
        .iter()
        .enumerate()
        .map(|(i, (_, loc))| Application::new(AppId(i), ModelKind::ResNet50, 15.0, 20.0, *loc, i))
        .collect();
    (snapshots, apps)
}

#[test]
fn carbon_aware_beats_latency_aware_on_carbon_but_not_latency() {
    let (snapshots, apps) = regional_scenario();
    let problem = PlacementProblem::new(snapshots, apps, 1.0)
        .with_latency_model(LatencyModel::deterministic());
    let carbon = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
        .place(&problem)
        .unwrap();
    let latency = IncrementalPlacer::new(PlacementPolicy::LatencyAware)
        .place(&problem)
        .unwrap();
    assert!(carbon.total_carbon_g < latency.total_carbon_g);
    assert!(carbon.mean_latency_ms >= latency.mean_latency_ms);
    // The latency SLO is still respected by every placed application.
    for (i, server) in carbon.assignment.iter().enumerate() {
        let j = server.unwrap();
        assert!(problem.latency_ms(i, j) <= problem.apps[i].latency_slo_ms + 1e-9);
    }
}

#[test]
fn all_four_policies_produce_feasible_placements() {
    let (snapshots, apps) = regional_scenario();
    let problem = PlacementProblem::new(snapshots, apps, 1.0)
        .with_latency_model(LatencyModel::deterministic());
    for policy in PlacementPolicy::BASELINE_SET {
        let decision = IncrementalPlacer::new(policy).place(&problem).unwrap();
        assert!(
            decision.unplaced.is_empty(),
            "{policy:?} left apps unplaced"
        );
        assert!(decision.total_carbon_g > 0.0);
        assert!(decision.total_energy_j > 0.0);
    }
}

#[test]
fn exact_and_heuristic_solvers_agree_on_the_regional_scenario() {
    let (snapshots, apps) = regional_scenario();
    let problem = PlacementProblem::new(snapshots, apps, 1.0)
        .with_latency_model(LatencyModel::deterministic());
    let exact = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
        .with_exact_size_limit(10_000)
        .place(&problem)
        .unwrap();
    let heuristic = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
        .heuristic_only()
        .place(&problem)
        .unwrap();
    assert!(exact.exact);
    assert!(!heuristic.exact);
    // The heuristic can only be worse (or equal), and on this small regional
    // instance it should be within a few percent of the MILP optimum.
    assert!(heuristic.total_carbon_g >= exact.total_carbon_g - 1e-6);
    assert!(heuristic.total_carbon_g <= exact.total_carbon_g * 1.05 + 1e-6);
}
