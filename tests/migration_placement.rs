//! Integration tests of the stateful, migration-cost-aware re-placement
//! pipeline.
//!
//! The contracts that make the refactor safe to ship:
//!
//! 1. **Stateless equivalence at zero cost** — with the `Free` migration
//!    level (the default), the stateful engine's decisions, realized carbon
//!    and per-month aggregates reproduce a stateless replica of the PR 4
//!    epoch loop *bit for bit*, on heuristic and exact paths alike.  The
//!    state threading may only add churn *accounting*, never alter a
//!    decision.
//! 2. **Monotone realized carbon on the exact path** — with oracle
//!    forecasts and exact per-epoch solves, charging more for migration can
//!    never reduce total realized carbon, so the level ordering
//!    free ≤ paper ≤ heavy holds on a fixed grid.
//! 3. **The churn table's story** — on the `--migration` quick grid, moves
//!    and savings both shrink monotonically as the migration cost rises,
//!    and daily re-placement's extra savings are strictly eaten by the
//!    paper-calibrated cost.

use carbonedge_core::{IncrementalPlacer, MigrationCostLevel, PlacementPolicy, PlacementProblem};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_grid::EpochSchedule;
use carbonedge_net::LatencyModel;
use carbonedge_sim::cdn::{CdnConfig, CdnScenario, CdnSimulator};
use carbonedge_sim::metrics::PolicyOutcome;
use carbonedge_workload::{AppId, Application};
use proptest::prelude::*;
use std::collections::HashMap;

/// Everything the stateless PR 4 epoch engine reported that the stateful
/// engine must reproduce at zero migration cost.
struct StatelessRun {
    outcome: PolicyOutcome,
    epoch_carbon: Vec<f64>,
    epoch_decision_carbon: Vec<f64>,
    assigned_intensity: Vec<f64>,
    assignments: Vec<Vec<Option<usize>>>,
}

/// A faithful replica of the pre-refactor (stateless) epoch loop built from
/// public APIs: every epoch solved from scratch with no incumbent, decided
/// against the forecast mean and accounted at the epoch's actual mean.
fn stateless_run(config: &CdnConfig, placer: &IncrementalPlacer) -> StatelessRun {
    let catalog = ZoneCatalog::worldwide();
    let site_catalog = EdgeSiteCatalog::akamai_like(&catalog);
    let traces = catalog.generate_traces(config.seed);
    let mut sites: Vec<_> = site_catalog
        .in_area(config.area)
        .iter()
        .map(|s| (s.location, s.zone, s.population_m))
        .collect();
    if let Some(limit) = config.site_limit {
        sites.truncate(limit);
    }
    let latency_model = LatencyModel::deterministic();
    let mean_population = sites.iter().map(|(_, _, p)| *p).sum::<f64>() / sites.len().max(1) as f64;

    let mut outcome = PolicyOutcome::default();
    let mut epoch_carbon = Vec::new();
    let mut epoch_decision_carbon = Vec::new();
    let mut assigned_intensity = Vec::new();
    let mut assignments = Vec::new();

    for epoch in config.epoch.epochs() {
        let mut servers = Vec::new();
        let mut actual_by_server = Vec::new();
        let mut zone_means: HashMap<carbonedge_grid::ZoneId, (f64, f64)> = HashMap::new();
        for (site_idx, (loc, zone, pop)) in sites.iter().enumerate() {
            let count = match config.scenario {
                CdnScenario::PopulationCapacity => ((pop / mean_population)
                    * config.servers_per_site as f64)
                    .round()
                    .max(1.0) as usize,
                _ => config.servers_per_site,
            };
            let (decided, actual) = *zone_means.entry(*zone).or_insert_with(|| {
                (
                    config.forecaster.forecast_mean(
                        &traces[zone.index()],
                        epoch.start,
                        epoch.hours,
                    ),
                    traces[zone.index()]
                        .window_mean(epoch.start, epoch.hours)
                        .max(0.0),
                )
            });
            for _ in 0..count {
                servers.push(
                    carbonedge_core::ServerSnapshot::new(
                        servers.len(),
                        site_idx,
                        *zone,
                        config.device,
                        *loc,
                    )
                    .with_carbon_intensity(decided),
                );
                actual_by_server.push(actual);
            }
        }
        let mut apps = Vec::new();
        for (loc, _, pop) in &sites {
            let count = match config.scenario {
                CdnScenario::PopulationDemand => ((pop / mean_population)
                    * config.apps_per_site as f64)
                    .round()
                    .max(0.0) as usize,
                _ => config.apps_per_site,
            };
            for _ in 0..count {
                apps.push(Application::new(
                    AppId(apps.len()),
                    config.model,
                    config.request_rate_rps,
                    config.latency_limit_ms,
                    *loc,
                    0,
                ));
            }
        }
        if apps.is_empty() || servers.is_empty() {
            epoch_carbon.push(0.0);
            epoch_decision_carbon.push(0.0);
            assignments.push(Vec::new());
            continue;
        }
        let mut problem = PlacementProblem::new(servers, apps, epoch.hours as f64)
            .with_latency_model(latency_model.clone());
        let decision = placer.place(&problem).expect("stateless replica feasible");
        for (server, actual) in problem.servers.iter_mut().zip(&actual_by_server) {
            server.carbon_intensity = *actual;
        }
        let realized = problem
            .total_carbon_g(&decision.assignment)
            .expect("assignment stays feasible");
        let placed = decision.assignment.iter().flatten().count();
        outcome.accumulate(&PolicyOutcome {
            carbon_g: realized,
            energy_j: decision.total_energy_j,
            mean_latency_ms: decision.mean_latency_ms,
            placed_apps: placed,
        });
        epoch_carbon.push(realized);
        epoch_decision_carbon.push(decision.total_carbon_g);
        for assignment in decision.assignment.iter().flatten() {
            assigned_intensity.push(problem.servers[*assignment].carbon_intensity);
        }
        assignments.push(decision.assignment);
    }

    StatelessRun {
        outcome,
        epoch_carbon,
        epoch_decision_carbon,
        assigned_intensity,
        assignments,
    }
}

/// Bit-for-bit comparison of the stateful engine at the `Free` level
/// against the stateless replica.
fn assert_free_matches_stateless(config: CdnConfig, placer: &IncrementalPlacer) {
    assert_eq!(config.migration, MigrationCostLevel::Free);
    let stateless = stateless_run(&config, placer);
    let engine = CdnSimulator::new(config).run_with(placer);

    assert_eq!(engine.outcome, stateless.outcome);
    assert_eq!(engine.decision_carbon_g, {
        stateless.epoch_decision_carbon.iter().sum::<f64>()
    });
    assert_eq!(engine.assigned_intensity, stateless.assigned_intensity);
    assert_eq!(engine.epochs.len(), stateless.epoch_carbon.len());
    assert_eq!(engine.migration_carbon_g, 0.0);
    let mut moves_recounted = 0usize;
    for ((epoch, carbon), decision_carbon) in engine
        .epochs
        .iter()
        .zip(stateless.epoch_carbon.iter())
        .zip(stateless.epoch_decision_carbon.iter())
    {
        assert_eq!(epoch.carbon_g, *carbon, "epoch {}", epoch.index);
        assert_eq!(
            epoch.decision_carbon_g, *decision_carbon,
            "epoch {}",
            epoch.index
        );
        assert_eq!(epoch.migration_carbon_g, 0.0);
        moves_recounted += epoch.moves;
    }
    assert_eq!(engine.moves, moves_recounted);
    // The engine's churn accounting must agree with a direct diff of the
    // stateless replica's (identical) per-epoch assignments.
    let mut expected_moves = 0usize;
    for pair in stateless.assignments.windows(2) {
        expected_moves += carbonedge_core::AssignmentDiff::between(&pair[0], &pair[1]).moves();
    }
    assert_eq!(engine.moves, expected_moves);
}

#[test]
fn free_level_reproduces_the_stateless_engine_bit_for_bit() {
    // The heuristic CDN path, on a grid with real churn (60 EU sites at a
    // 30 ms limit re-placed weekly) and on a skewed-demand scenario.
    let churny = CdnConfig::new(ZoneArea::Europe)
        .with_site_limit(60)
        .with_latency_limit(30.0)
        .with_epoch(EpochSchedule::Weekly);
    assert_free_matches_stateless(
        churny,
        &IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
    );
    assert_free_matches_stateless(
        CdnConfig::new(ZoneArea::UnitedStates)
            .with_site_limit(15)
            .with_scenario(CdnScenario::PopulationDemand),
        &IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
    );
    assert_free_matches_stateless(
        CdnConfig::new(ZoneArea::Europe).with_site_limit(20),
        &IncrementalPlacer::new(PlacementPolicy::LatencyAware).heuristic_only(),
    );
}

/// A deployment small enough that every epoch decision goes through the
/// exact MILP path but utilized enough that decisions are not forced.
fn exact_path_config(area: ZoneArea, seed: u64, epoch: EpochSchedule) -> CdnConfig {
    let mut config = CdnConfig::new(area).with_site_limit(3).with_epoch(epoch);
    config.servers_per_site = 1;
    config.apps_per_site = 2;
    config.request_rate_rps = 25.0;
    config.seed = seed;
    config
}

fn exact_realized_total(config: CdnConfig, level: MigrationCostLevel) -> f64 {
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
    let result = CdnSimulator::new(config.with_migration(level)).run_with(&placer);
    assert_eq!(
        result.exact_decisions,
        result.epochs.len(),
        "every epoch must take the exact path"
    );
    result.outcome.carbon_g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Zero-migration-cost stateful placement equals the stateless path on
    /// every exact-path scenario (both continents, monthly and weekly).
    #[test]
    fn zero_cost_stateful_equals_stateless_on_exact_path(seed in 0u64..500) {
        let area = if seed % 2 == 0 { ZoneArea::Europe } else { ZoneArea::UnitedStates };
        let epoch = if seed % 4 < 2 { EpochSchedule::Monthly } else { EpochSchedule::Weekly };
        let config = exact_path_config(area, seed, epoch);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let stateless = stateless_run(&config, &placer);
        let engine = CdnSimulator::new(config).run_with(&placer);
        prop_assert_eq!(engine.outcome, stateless.outcome);
        prop_assert_eq!(engine.migration_carbon_g, 0.0);
        for (epoch_outcome, carbon) in engine.epochs.iter().zip(stateless.epoch_carbon.iter()) {
            prop_assert_eq!(epoch_outcome.carbon_g, *carbon);
        }
    }

    /// With oracle forecasts and exact per-epoch solves, total realized
    /// carbon is monotone non-decreasing in the migration-cost level.
    #[test]
    fn realized_carbon_is_monotone_in_migration_cost_on_exact_path(seed in 0u64..500) {
        let area = if seed % 2 == 0 { ZoneArea::Europe } else { ZoneArea::UnitedStates };
        let epoch = if seed % 4 < 2 { EpochSchedule::Monthly } else { EpochSchedule::Weekly };
        let config = exact_path_config(area, seed, epoch);
        let free = exact_realized_total(config.clone(), MigrationCostLevel::Free);
        let paper = exact_realized_total(config.clone(), MigrationCostLevel::Paper);
        let heavy = exact_realized_total(config, MigrationCostLevel::Heavy);
        prop_assert!(
            free <= paper * (1.0 + 1e-9) + 1e-9,
            "free {} beat by paper {} (seed {})", free, paper, seed
        );
        prop_assert!(
            paper <= heavy * (1.0 + 1e-9) + 1e-9,
            "paper {} beat by heavy {} (seed {})", paper, heavy, seed
        );
    }
}

#[test]
fn quick_migration_grid_savings_shrink_monotonically_with_migration_cost() {
    // The acceptance check behind `experiments --migration --quick`: within
    // every (policy, epoch) block of the churn table, both churn and
    // savings are monotone non-increasing as the migration cost rises, and
    // the daily block shows the paper-calibrated cost strictly eating the
    // free re-placement gains.
    let report = carbonedge_bench::summary::run_migration(true, 2);
    let rows = report.migration_churn_rows();
    assert!(!rows.is_empty());
    let levels = ["mig-free", "mig-paper", "mig-heavy"];
    /// Rows of one (policy, epoch) block: (level rank, moves, saving %).
    type Block = Vec<(usize, f64, f64)>;
    let mut blocks: HashMap<(String, String), Block> = HashMap::new();
    for row in &rows {
        let level_rank = levels
            .iter()
            .position(|l| *l == row.migration)
            .expect("known level");
        blocks
            .entry((row.policy.clone(), row.epoch.clone()))
            .or_default()
            .push((level_rank, row.mean_moves, row.mean_saving_percent));
    }
    for ((policy, epoch), mut block) in blocks {
        block.sort_by_key(|(rank, _, _)| *rank);
        assert_eq!(block.len(), 3, "{policy}/{epoch}");
        for pair in block.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "{policy}/{epoch}: churn must not rise with migration cost"
            );
            assert!(
                pair[1].2 <= pair[0].2 + 1e-9,
                "{policy}/{epoch}: savings must not rise with migration cost \
                 ({} then {})",
                pair[0].2,
                pair[1].2
            );
        }
        if epoch == "daily" && policy == "CarbonEdge" {
            assert!(
                block[0].2 > block[1].2,
                "daily free savings {} must strictly exceed paper savings {}",
                block[0].2,
                block[1].2
            );
            assert!(block[0].1 > 0.0, "free daily re-placement must churn");
            assert_eq!(block[1].1, 0.0, "paper cost suppresses the daily churn");
        }
    }
}
