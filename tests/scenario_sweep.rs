//! Integration tests of the scenario-sweep engine: a multi-axis grid run in
//! parallel must be deterministic, internally consistent with standalone
//! `CdnSimulator` runs, and produce sensible savings aggregation.  The
//! `#[ignore]`d long-sweep smoke is run by CI's dedicated step
//! (`cargo test -q -- --ignored`).

use carbonedge_bench::summary;
use carbonedge_core::PlacementPolicy;
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_sim::cdn::{CdnScenario, CdnShared, CdnSimulator};
use carbonedge_sweep::{SweepAxis, SweepExecutor, SweepSpec, WorkloadSpec, BASELINE_POLICY};

/// A 3-axis grid (area × latency × policy) small enough for the default
/// test run.
fn three_axis_spec() -> SweepSpec {
    SweepSpec::new("three-axis")
        .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
        .with_latency_limits(vec![10.0, 25.0])
        .with_site_limit(Some(15))
}

#[test]
fn parallel_three_axis_grid_is_deterministic_and_seed_stable() {
    let spec = three_axis_spec();
    assert!(spec.axis_count() >= 3);
    let first = SweepExecutor::new().with_jobs(4).run(&spec).unwrap();
    let second = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
    assert_eq!(first.cells.len(), 8);
    assert_eq!(first.render(), second.render());
    for (a, b) in first.cells.iter().zip(second.cells.iter()) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.cell.cell_seed, b.cell.cell_seed);
    }
}

#[test]
fn sweep_cells_match_standalone_simulator_runs() {
    let spec = three_axis_spec();
    let report = SweepExecutor::new().with_jobs(3).run(&spec).unwrap();
    for cell in report.cells.iter().take(4) {
        let standalone = CdnSimulator::new(cell.cell.config()).run(cell.cell.policy);
        assert_eq!(cell.outcome, standalone.outcome, "cell {}", cell.cell.index);
    }
}

#[test]
fn savings_aggregation_pairs_policies_within_scenarios() {
    let report = SweepExecutor::new()
        .with_jobs(2)
        .run(&three_axis_spec())
        .unwrap();
    let rows = report.savings_rows();
    assert_eq!(rows.len(), 4); // one CarbonEdge row per scenario coordinate
    for row in &rows {
        assert!(row.savings.carbon_percent > 0.0, "{}", row.scenario);
        assert!(row.carbon_g < row.baseline_carbon_g);
    }
    let by_area = report.marginal_rows(SweepAxis::Area);
    let us = by_area.iter().find(|m| m.value == "US").unwrap();
    let eu = by_area.iter().find(|m| m.value == "EU").unwrap();
    assert!(
        eu.mean_saving_percent > us.mean_saving_percent,
        "Europe's greener mix should out-save the US: US {} EU {}",
        us.mean_saving_percent,
        eu.mean_saving_percent
    );
}

#[test]
fn additional_policies_ride_the_policy_axis() {
    let spec = three_axis_spec()
        .with_latency_limits(vec![20.0])
        .with_policies(vec![
            PlacementPolicy::LatencyAware,
            PlacementPolicy::CarbonAware,
            PlacementPolicy::IntensityAware,
        ]);
    let report = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
    let rows = report.savings_rows();
    // Two non-baseline policies per scenario coordinate, two areas.
    assert_eq!(rows.len(), 4);
    let policies: std::collections::HashSet<&str> =
        rows.iter().map(|r| r.policy.as_str()).collect();
    assert!(policies.contains("CarbonEdge") && policies.contains("Intensity-aware"));
    assert!(rows.iter().all(|r| r.policy != BASELINE_POLICY));
}

#[test]
fn forecaster_and_epoch_axes_are_parallel_deterministic() {
    let spec = SweepSpec::new("forecast-axes")
        .with_areas(vec![ZoneArea::UnitedStates])
        .with_site_limit(Some(12))
        .with_demand(4, 1)
        .with_forecasters(vec![ForecasterKind::Oracle, ForecasterKind::Persistence])
        .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Weekly]);
    assert!(spec.axis_count() >= 3);
    let sequential = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
    let parallel = SweepExecutor::new().with_jobs(4).run(&spec).unwrap();
    for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(a.outcome, b.outcome, "cell {}", a.cell.index);
        assert_eq!(a.decision_carbon_g, b.decision_carbon_g);
    }
    assert_eq!(sequential.render(), parallel.render());
    assert_eq!(
        sequential.render_forecast_regret(),
        parallel.render_forecast_regret()
    );
    // Marginal aggregation picks the new axes up unchanged.
    let by_forecaster = sequential.marginal_rows(SweepAxis::Forecaster);
    assert!(by_forecaster.iter().any(|m| m.value == "oracle"));
    assert!(by_forecaster.iter().any(|m| m.value == "persistence"));
    let by_epoch = sequential.marginal_rows(SweepAxis::Epoch);
    assert!(by_epoch.iter().any(|m| m.value == "monthly"));
    assert!(by_epoch.iter().any(|m| m.value == "weekly"));
}

/// The default grid of `experiments --sweep` through the executor's
/// single-worker sequence (one placer re-stamped per cell).  A
/// Latency-aware cell prices every monthly epoch alike, so 11 of its 12
/// heuristic decisions reuse the first one's construction; a CarbonEdge
/// decision never does.  The count is the worker placer's history, so it is
/// summed from the runs here and no report carries it.
#[test]
fn the_default_grid_memoizes_every_repeated_latency_aware_decision() {
    let spec = summary::sweep_spec(false);
    let shared = CdnShared::new();
    let mut placer = SweepExecutor::new().placer_template;
    let (mut decisions, mut memoized) = (0, 0);
    for cell in spec.cells() {
        placer.policy = cell.policy;
        placer.milp_solver.discard_warm_start();
        let result = shared.simulator(cell.config()).run_with(&placer);
        let expected = match cell.policy {
            PlacementPolicy::LatencyAware => 11,
            _ => 0,
        };
        assert_eq!(result.memoized_decisions, expected, "{}", cell.label());
        decisions += result.epochs.len();
        memoized += result.memoized_decisions;
    }
    assert_eq!((memoized, decisions), (198, 432));
}

/// Long-sweep smoke (CI `--ignored` job): a five-axis grid with a seed
/// replication axis and a second workload, still gated to a small site cap.
#[test]
#[ignore = "long-sweep smoke, run via cargo test -- --ignored"]
fn long_sweep_smoke_five_axis_grid() {
    let spec = SweepSpec::new("long-smoke")
        .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
        .with_scenarios(vec![
            CdnScenario::Homogeneous,
            CdnScenario::PopulationDemand,
        ])
        .with_latency_limits(vec![10.0, 20.0, 30.0])
        .with_workloads(vec![
            WorkloadSpec::resnet50_on_a2(),
            WorkloadSpec::efficientnet_on_orin(),
        ])
        .with_seeds(vec![42, 1337])
        .with_site_limit(Some(30));
    assert!(spec.axis_count() >= 5);
    assert_eq!(spec.cell_count(), 96);
    let report = SweepExecutor::new().run(&spec).unwrap();
    assert_eq!(report.cells.len(), 96);
    // Every scenario coordinate produced a baseline pairing.
    assert_eq!(report.savings_rows().len(), 48);
    // Savings direction holds across every axis value, both seeds included.
    for row in report.marginal_rows(SweepAxis::Seed) {
        assert!(row.mean_saving_percent > 0.0, "seed {}", row.value);
        assert_eq!(row.comparisons, 24);
    }
    for row in report.marginal_rows(SweepAxis::Workload) {
        assert!(row.mean_saving_percent > 0.0, "workload {}", row.value);
    }
    // The report renders without panicking and mentions both seeds.
    let text = report.render();
    assert!(text.contains("seed 42") && text.contains("seed 1337"));
}
