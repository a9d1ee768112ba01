//! The prep-cache differential: sweep reports produced through the shared
//! [`CdnShared`] scenario preparation and the executor's group warm starts
//! must be **bit-identical** to the cold oracle — a fresh standalone
//! simulator on its own freshly built prep and a fresh placer per cell — for
//! any job count.
//!
//! This is the contract that keeps the delta-evaluation machinery honest: a
//! cached prep must equal the one each of its cells would build for itself
//! (its `PrepKey` must cover every input that shapes it, and the `AreaKey`
//! of the area inputs it shares every input that shapes those), and no
//! solver state, such as a neighbor cell's warm-start basis, may cross a
//! cell boundary.  Caching is then purely a performance change, never a
//! numerical one.

use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_sim::cdn::{CdnShared, CdnSimulator};
use carbonedge_sim::ServingMode;
use carbonedge_sweep::executor::SweepExecutor;
use carbonedge_sweep::report::SweepReport;
use carbonedge_sweep::spec::SweepSpec;

/// Runs every cell of `spec` on the cold path: a fresh shared environment's
/// cold simulator (on its own fresh prep, bypassing the cache) and a
/// basis-free placer per cell, so no state of any kind crosses cell
/// boundaries.
fn cold_oracle(spec: &SweepSpec, template: &IncrementalPlacer) -> Vec<carbonedge_sim::CdnResult> {
    let shared = CdnShared::new();
    spec.cells()
        .iter()
        .map(|cell| {
            let simulator = shared.cold_simulator(cell.config());
            let mut placer = template.clone();
            placer.policy = cell.policy;
            placer.milp_solver.discard_warm_start();
            simulator.run_with(&placer)
        })
        .collect()
}

/// Asserts the executor's report matches the cold oracle bit for bit on
/// every field a report aggregates.
fn assert_matches_oracle(report: &SweepReport, oracle: &[carbonedge_sim::CdnResult]) {
    assert_eq!(report.cells.len(), oracle.len());
    for (cell, cold) in report.cells.iter().zip(oracle) {
        let label = cell.cell.label();
        assert_eq!(cell.outcome, cold.outcome, "outcome diverged in {label}");
        assert_eq!(
            cell.decision_carbon_g, cold.decision_carbon_g,
            "decision carbon diverged in {label}"
        );
        let cold_monthly: Vec<f64> = cold.monthly.iter().map(|m| m.carbon_g).collect();
        assert_eq!(
            cell.monthly_carbon_g, cold_monthly,
            "monthly carbon diverged in {label}"
        );
        assert_eq!(cell.moves, cold.moves, "moves diverged in {label}");
        assert_eq!(
            cell.migration_carbon_g, cold.migration_carbon_g,
            "migration carbon diverged in {label}"
        );
        assert_eq!(cell.serving, cold.serving, "serving diverged in {label}");
        let cold_mean = if cold.assigned_intensity.is_empty() {
            0.0
        } else {
            cold.assigned_intensity.iter().sum::<f64>() / cold.assigned_intensity.len() as f64
        };
        assert_eq!(
            cell.mean_assigned_intensity, cold_mean,
            "assigned intensity diverged in {label}"
        );
    }
}

/// A small multi-axis grid: two latency limits × two forecasters × two
/// seeds × two epoch schedules × two policies, so scenario groups (cells
/// sharing everything but policy) are non-trivial, each area input is
/// shared by two preps, and both caches are exercised across every input
/// of the area key: an area key that dropped the seed, the epoch schedule
/// or the forecaster would hand a prep another area's epoch means.
fn heuristic_spec() -> SweepSpec {
    SweepSpec::new("delta-heuristic")
        .with_areas(vec![ZoneArea::Europe])
        .with_latency_limits(vec![10.0, 20.0])
        .with_forecasters(vec![
            ForecasterKind::Oracle,
            ForecasterKind::MovingAverage { window_hours: 24 },
        ])
        .with_seeds(vec![42, 7])
        .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Weekly])
        .with_policies(vec![
            PlacementPolicy::LatencyAware,
            PlacementPolicy::CarbonAware,
        ])
        .with_site_limit(Some(8))
}

#[test]
fn prepped_sweep_matches_cold_oracle_for_any_job_count() {
    let spec = heuristic_spec();
    let template = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let oracle = cold_oracle(&spec, &template);

    for jobs in [1usize, 4] {
        let report = SweepExecutor::new()
            .with_jobs(jobs)
            .with_placer_template(template.clone())
            .run(&spec)
            .unwrap();
        assert_matches_oracle(&report, &oracle);
    }
}

#[test]
fn exact_path_group_warm_starts_match_cold_oracle() {
    // A grid small enough for the exact MILP path, so each cell chains
    // warm-restarted epoch re-solves internally, and two policies per
    // scenario group.  This is the regression pin for the executor's
    // warm-start hygiene: carrying a basis across the policy change is a
    // cost-only restart, but a degenerate optimum lets the simplex settle
    // on a different equally-optimal vertex (same carbon, different
    // latency), so the executor must discard the basis at every cell
    // boundary to stay bit-identical with the cold oracle.
    let spec = SweepSpec::new("delta-exact")
        .with_areas(vec![ZoneArea::Europe])
        .with_latency_limits(vec![20.0])
        .with_epochs(vec![EpochSchedule::Monthly])
        .with_policies(vec![
            PlacementPolicy::LatencyAware,
            PlacementPolicy::CarbonAware,
        ])
        .with_site_limit(Some(3))
        .with_demand(1, 2);
    let template = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
    let oracle = cold_oracle(&spec, &template);
    assert!(
        oracle.iter().all(|r| r.exact_decisions > 0),
        "the exact spec must actually take the MILP path"
    );

    for jobs in [1usize, 3] {
        let report = SweepExecutor::new()
            .with_jobs(jobs)
            .with_placer_template(template.clone())
            .run(&spec)
            .unwrap();
        assert_matches_oracle(&report, &oracle);
    }
}

#[test]
fn online_serving_cells_match_cold_oracle() {
    // OnlineReplace cells decide over whole epochs read from the prep and
    // over any drift-cut windows computed on demand.  At the default 0.5
    // threshold the trigger may never fire here; the sim crate's
    // `cached_and_fresh_preps_agree_when_drift_cuts_windows` covers fires.
    let spec = SweepSpec::new("delta-online")
        .with_areas(vec![ZoneArea::Europe])
        .with_latency_limits(vec![20.0])
        .with_servings(vec![ServingMode::EventLevel, ServingMode::OnlineReplace])
        .with_policies(vec![
            PlacementPolicy::LatencyAware,
            PlacementPolicy::CarbonAware,
        ])
        .with_site_limit(Some(6))
        .with_seeds(vec![7])
        .with_base_seed(7)
        .with_epochs(vec![EpochSchedule::Monthly]);
    let template = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let oracle = cold_oracle(&spec, &template);
    let report = SweepExecutor::new()
        .with_jobs(2)
        .with_placer_template(template.clone())
        .run(&spec)
        .unwrap();
    assert_matches_oracle(&report, &oracle);
}

#[test]
fn shared_environment_caches_one_prep_per_scenario() {
    let shared = CdnShared::new();
    let spec = heuristic_spec();
    assert_eq!(shared.cached_prep_count(), 0);
    for cell in &spec.cells() {
        let _ = shared.simulator(cell.config());
    }
    // 16 scenarios (2 latency limits × 2 forecasters × 2 seeds × 2 epoch
    // schedules) — the policy axis shares preps, so there are half as many
    // preps as cells.
    assert_eq!(shared.cached_prep_count(), 16);
    // A cold simulator neither consumes nor populates the prep cache.
    let cold = shared.cold_simulator(spec.cells()[0].config());
    let _ = cold;
    assert_eq!(shared.cached_prep_count(), 16);
}

#[test]
fn standalone_simulator_is_the_cold_path() {
    // `CdnSimulator::new` must build its own fresh prep: it is the documented
    // oracle constructor, and its results are what every cached-prep run is
    // held to.
    let config = spec_config();
    let standalone = CdnSimulator::new(config.clone());
    let shared = CdnShared::new();
    let prepped = shared.simulator(config);
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let a = standalone.run_with(&placer);
    let b = prepped.run_with(&placer);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.decision_carbon_g, b.decision_carbon_g);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.assigned_intensity, b.assigned_intensity);
}

fn spec_config() -> carbonedge_sim::CdnConfig {
    carbonedge_sim::CdnConfig::new(ZoneArea::Europe)
        .with_site_limit(10)
        .with_forecaster(ForecasterKind::MovingAverage { window_hours: 48 })
        .with_epoch(EpochSchedule::Weekly)
}
