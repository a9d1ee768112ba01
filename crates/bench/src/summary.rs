//! The scenario grids behind `experiments --sweep`, `--forecast`,
//! `--migration` and `--serving`, and the one runner that executes them and
//! the grids of the paper's Figures 11, 12 and 14.
//!
//! The quick sweep grid crosses the axes of those three figures (area,
//! latency limit, demand/capacity skew) on a reduced site catalog.  Every
//! report renders seed-stable and independent of the worker count, so
//! `tests/experiments_golden.rs` can diff each quick grid's table against a
//! checked-in snapshot with numeric tolerances and catch silent drift in
//! any layer under it (datasets, traces, solver, simulator, aggregation).

use carbonedge_core::MigrationCostLevel;
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_sim::ServingMode;
use carbonedge_sweep::{SweepExecutor, SweepReport, SweepSpec};

/// Runs `spec` with `jobs` workers and stamps the wall-clock seconds onto
/// the report.  The executor itself never reads the clock (its decision
/// logic must stay timing-independent — see the `wall-clock` lint rule), so
/// measurement lives here at the bench edge, next to the code that prints
/// [`SweepReport::footer`].  Panics if `spec` is invalid; every caller
/// passes a built-in grid: one of those below, or a paper figure's.
pub fn run(spec: &SweepSpec, jobs: usize) -> SweepReport {
    let started = std::time::Instant::now();
    let mut report = SweepExecutor::new()
        .with_jobs(jobs)
        .run(spec)
        .expect("the built-in sweep grids are valid");
    report.wall_seconds = started.elapsed().as_secs_f64();
    report
}

/// The grid `experiments --sweep` runs: both continents, three latency
/// limits, all three demand/capacity scenarios, CarbonEdge versus the
/// Latency-aware baseline.  `quick` caps the site catalog at 40 sites per
/// continent (the golden-test configuration); the full grid uses 120.
pub fn sweep_spec(quick: bool) -> SweepSpec {
    let spec = SweepSpec::quick_default();
    if quick {
        spec
    } else {
        SweepSpec {
            name: "default-grid".into(),
            ..spec.with_site_limit(Some(120))
        }
    }
}

/// The grid `experiments --forecast` runs: forecaster (oracle, persistence,
/// 24-hour moving average) crossed with the epoch schedule (monthly,
/// weekly) and both policies, so the regret table isolates what forecast
/// error and re-planning cadence cost in realized carbon.  The deployment
/// runs at ~80% utilization (4 apps per site on single-server sites) —
/// under the paper's lightly-loaded defaults a mis-forecast almost never
/// flips a placement (the zone ranking survives), so the saturated shape is
/// where regret becomes visible.  `quick` keeps the grid to the US on a
/// 25-site cap (the golden-test configuration); the full grid adds Europe
/// and a 100-site cap.
pub fn forecast_spec(quick: bool) -> SweepSpec {
    let areas = if quick {
        vec![ZoneArea::UnitedStates]
    } else {
        vec![ZoneArea::UnitedStates, ZoneArea::Europe]
    };
    SweepSpec::new(if quick {
        "forecast-quick"
    } else {
        "forecast-grid"
    })
    .with_areas(areas)
    .with_site_limit(Some(if quick { 25 } else { 100 }))
    .with_demand(4, 1)
    .with_forecasters(vec![
        ForecasterKind::Oracle,
        ForecasterKind::Persistence,
        ForecasterKind::moving_average_24h(),
    ])
    .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Weekly])
}

/// The grid `experiments --migration` runs: the re-placement epoch schedule
/// (monthly, weekly, daily) crossed with the migration-cost calibration
/// (free, paper, heavy) and both policies, so the churn table isolates what
/// re-placement cadence buys once moving a service has a price.  The grid
/// is European with a 30 ms latency limit — the wide reach puts near-tied
/// zones in every feasible set, so intensity rankings genuinely flip
/// between epochs and free re-placement churns (hundreds of moves monthly,
/// ~10k daily); at the paper's lightly-loaded request rate each move is
/// worth milligrams while a paper-calibrated move costs ~10 g, so the
/// hysteresis suppresses the churn and the daily savings shrink
/// monotonically as the migration cost rises.  `quick` caps the catalog at
/// 60 sites (the golden-test configuration); the full grid uses 100.
pub fn migration_spec(quick: bool) -> SweepSpec {
    SweepSpec::new(if quick {
        "migration-quick"
    } else {
        "migration-grid"
    })
    .with_areas(vec![ZoneArea::Europe])
    .with_latency_limits(vec![30.0])
    .with_site_limit(Some(if quick { 60 } else { 100 }))
    .with_epochs(vec![
        EpochSchedule::Monthly,
        EpochSchedule::Weekly,
        EpochSchedule::Daily,
    ])
    .with_migrations(MigrationCostLevel::ALL.to_vec())
}

/// The grid `experiments --serving` runs: all three serving modes
/// (aggregate, event-level, event-level with the online drift trigger)
/// crossed with both policies, so the serving table prices carbon-aware
/// placement in tail latency and drops once requests are materialized and
/// queued.  The deployment runs saturated (4 apps per site on single-server
/// sites) with a 30 ms European reach — at the paper's lightly-loaded
/// defaults the queues never fill and every mode serves everything, so the
/// saturated shape is where diurnal peaks and bursts produce real drops and
/// tail inflation.  `quick` caps the catalog at 25 sites (the golden-test
/// configuration); the full grid uses 60.
pub fn serving_spec(quick: bool) -> SweepSpec {
    SweepSpec::new(if quick {
        "serving-quick"
    } else {
        "serving-grid"
    })
    .with_areas(vec![ZoneArea::Europe])
    .with_latency_limits(vec![30.0])
    .with_site_limit(Some(if quick { 25 } else { 60 }))
    .with_demand(4, 1)
    .with_servings(ServingMode::ALL.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_grids_are_valid_and_multi_axis() {
        for quick in [true, false] {
            let spec = sweep_spec(quick);
            assert!(spec.validate().is_ok());
            assert!(
                spec.axis_count() >= 3,
                "--sweep must run a >=3-axis grid, got {}",
                spec.axis_count()
            );
        }
        assert_eq!(sweep_spec(true).cells()[0].site_limit, Some(40));
        assert_eq!(sweep_spec(false).cells()[0].site_limit, Some(120));
    }

    #[test]
    fn migration_grids_cross_epoch_migration_and_policy() {
        for quick in [true, false] {
            let spec = migration_spec(quick);
            assert!(spec.validate().is_ok());
            assert_eq!(spec.epochs.len(), 3);
            assert_eq!(spec.migrations.len(), 3);
            assert!(
                spec.migrations.contains(&MigrationCostLevel::Free),
                "the churn table needs the free level as the no-cost anchor"
            );
        }
        assert_eq!(migration_spec(true).cell_count(), 18);
        assert_eq!(migration_spec(true).cells()[0].site_limit, Some(60));
        assert_eq!(migration_spec(false).cells()[0].site_limit, Some(100));
    }

    #[test]
    fn serving_grids_cross_serving_mode_and_policy() {
        for quick in [true, false] {
            let spec = serving_spec(quick);
            assert!(spec.validate().is_ok());
            assert_eq!(spec.servings.len(), 3);
            assert!(
                spec.servings.contains(&ServingMode::Aggregate),
                "the serving grid needs the aggregate mode as the no-queueing anchor"
            );
            assert_eq!(
                (spec.apps_per_site, spec.servers_per_site),
                (4, 1),
                "the serving grid must run saturated or queues never fill"
            );
        }
        assert_eq!(serving_spec(true).cell_count(), 6);
        assert_eq!(serving_spec(true).cells()[0].site_limit, Some(25));
        assert_eq!(serving_spec(false).cells()[0].site_limit, Some(60));
    }

    #[test]
    fn forecast_grids_cross_forecaster_epoch_and_policy() {
        for quick in [true, false] {
            let spec = forecast_spec(quick);
            assert!(spec.validate().is_ok());
            assert_eq!(spec.forecasters.len(), 3);
            assert_eq!(spec.epochs.len(), 2);
            assert!(
                spec.forecasters.contains(&ForecasterKind::Oracle),
                "regret needs the oracle partner"
            );
        }
        assert_eq!(forecast_spec(true).cell_count(), 12);
        assert_eq!(forecast_spec(false).cell_count(), 24);
    }
}
