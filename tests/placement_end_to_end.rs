//! End-to-end integration: datasets → traces → placement problem →
//! incremental placer → orchestrator commit.

use carbonedge_cluster::{EdgeSite, Orchestrator, ServerId, SiteId};
use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_grid::HourOfYear;
use carbonedge_net::LatencyModel;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};

/// Builds the Central-EU regional scenario used across these tests.
fn regional_scenario() -> (Vec<ServerSnapshot>, Vec<Application>, Vec<EdgeSite>) {
    let catalog = ZoneCatalog::worldwide();
    let region = MesoscaleRegion::resolve(StudyRegion::CentralEu, &catalog);
    let traces = catalog.traces(42);
    let now = HourOfYear::new(4000);

    let mut snapshots = Vec::new();
    let mut sites = Vec::new();
    for (idx, (zone, (name, loc))) in region.zones.iter().zip(region.members.iter()).enumerate() {
        snapshots.push(
            ServerSnapshot::new(idx, idx, *zone, DeviceKind::A2, *loc)
                .with_carbon_intensity(traces[zone.index()].at(now)),
        );
        let mut site = EdgeSite::new(SiteId(idx), name.clone(), *loc, *zone);
        site.add_servers(DeviceKind::A2, 1, idx);
        sites.push(site);
    }
    let apps: Vec<Application> = region
        .members
        .iter()
        .enumerate()
        .map(|(i, (_, loc))| Application::new(AppId(i), ModelKind::ResNet50, 15.0, 20.0, *loc, i))
        .collect();
    (snapshots, apps, sites)
}

#[test]
fn carbon_aware_placement_commits_onto_the_cluster() {
    let (snapshots, apps, sites) = regional_scenario();
    let problem = PlacementProblem::new(snapshots, apps.clone(), 1.0)
        .with_latency_model(LatencyModel::deterministic());
    let decision = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
        .place(&problem)
        .expect("regional placement is feasible");
    assert!(decision.unplaced.is_empty());

    // Commit the decision through the orchestrator (the Sinfonia-equivalent).
    let mut orchestrator = Orchestrator::new(sites);
    for (app, server) in apps.iter().zip(decision.assignment.iter()) {
        let server = ServerId(server.expect("placed"));
        let outcome = orchestrator.deploy(app, server).expect("deploy succeeds");
        assert_eq!(outcome.app, app.id);
    }
    assert_eq!(orchestrator.deployed_count(), apps.len());
    // The cluster state reflects the placement decision.
    for (app, server) in apps.iter().zip(decision.assignment.iter()) {
        assert_eq!(
            orchestrator.placement_of(app.id),
            Some(ServerId(server.unwrap()))
        );
    }
}

#[test]
fn carbon_aware_beats_latency_aware_on_carbon_but_not_latency() {
    let (snapshots, apps, _) = regional_scenario();
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
    let (snapshots, apps, _) = regional_scenario();
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
    let (snapshots, apps, _) = regional_scenario();
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
