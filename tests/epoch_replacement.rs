//! Integration tests of the epoch re-placement engine.
//!
//! The two contracts that make the engine safe to ship:
//!
//! 1. **Legacy equivalence** — the monthly-epoch + oracle-forecaster
//!    configuration (the default) reproduces the pre-engine monthly
//!    simulation *bit for bit*.  The test re-implements the legacy loop
//!    (per-month placement against the month's true mean intensity) from
//!    the public APIs and compares every output field exactly.
//! 2. **Oracle dominance on the exact path** — when every epoch decision is
//!    solved to optimality, the oracle forecaster's realized carbon is a
//!    true minimum, so no other forecaster can realize less.  This is the
//!    property the forecast-regret table rests on.

use carbonedge_bench::summary;
use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_net::LatencyModel;
use carbonedge_sim::cdn::{CdnConfig, CdnScenario, CdnSimulator, MonthlyOutcome};
use carbonedge_sim::metrics::PolicyOutcome;
use carbonedge_workload::{AppId, Application};
use proptest::prelude::*;

/// Everything the pre-engine monthly simulation reported.
struct LegacyRun {
    outcome: PolicyOutcome,
    monthly: Vec<MonthlyOutcome>,
    placements_per_site: Vec<Vec<usize>>,
    assigned_intensity: Vec<f64>,
}

/// A faithful re-implementation of the pre-engine `CdnSimulator::run_with`
/// loop: one placement per calendar month, decided *and* accounted against
/// the month's true mean intensity.
fn legacy_run(config: &CdnConfig, placer: &IncrementalPlacer) -> LegacyRun {
    let catalog = ZoneCatalog::worldwide();
    let site_catalog = EdgeSiteCatalog::akamai_like(&catalog);
    let traces = catalog.traces(config.seed);
    let mut sites: Vec<_> = site_catalog
        .in_area(config.area)
        .iter()
        .map(|s| (s.name.clone(), s.location, s.zone, s.population_m))
        .collect();
    if let Some(limit) = config.site_limit {
        sites.truncate(limit);
    }
    let latency_model = LatencyModel::deterministic();
    let mean_population =
        sites.iter().map(|(_, _, _, p)| *p).sum::<f64>() / sites.len().max(1) as f64;

    let mut outcome = PolicyOutcome::default();
    let mut monthly = Vec::with_capacity(12);
    let mut placements_per_site = Vec::with_capacity(12);
    let mut assigned_intensity = Vec::new();

    for month in 0..12 {
        let hours_in_month = carbonedge_grid::time::DAYS_PER_MONTH[month] as f64 * 24.0;
        let mut servers = Vec::new();
        let mut server_site = Vec::new();
        for (site_idx, (_, loc, zone, pop)) in sites.iter().enumerate() {
            let count = match config.scenario {
                CdnScenario::PopulationCapacity => ((pop / mean_population)
                    * config.servers_per_site as f64)
                    .round()
                    .max(1.0) as usize,
                _ => config.servers_per_site,
            };
            let intensity = traces[zone.index()].monthly_mean(month);
            for _ in 0..count {
                servers.push(
                    ServerSnapshot::new(servers.len(), site_idx, *zone, config.device, *loc)
                        .with_carbon_intensity(intensity),
                );
                server_site.push(site_idx);
            }
        }
        let mut apps = Vec::new();
        for (_, loc, _, pop) in &sites {
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
            monthly.push(MonthlyOutcome::default());
            placements_per_site.push(vec![0; sites.len()]);
            continue;
        }
        let problem = PlacementProblem::new(servers, apps, hours_in_month)
            .with_latency_model(latency_model.clone());
        let decision = placer.place(&problem).expect("legacy placement feasible");
        let placed = decision.assignment.iter().flatten().count();
        outcome.accumulate(&PolicyOutcome {
            carbon_g: decision.total_carbon_g,
            energy_j: decision.total_energy_j,
            mean_latency_ms: decision.mean_latency_ms,
            placed_apps: placed,
        });
        monthly.push(MonthlyOutcome {
            carbon_g: decision.total_carbon_g,
            energy_j: decision.total_energy_j,
            mean_latency_ms: decision.mean_latency_ms,
        });
        let mut site_counts = vec![0usize; sites.len()];
        for assignment in decision.assignment.iter().flatten() {
            site_counts[server_site[*assignment]] += 1;
            assigned_intensity.push(problem.servers[*assignment].carbon_intensity);
        }
        placements_per_site.push(site_counts);
    }

    LegacyRun {
        outcome,
        monthly,
        placements_per_site,
        assigned_intensity,
    }
}

/// Bit-for-bit comparison of a legacy replica against the epoch engine.
fn assert_matches_legacy(config: CdnConfig, policy: PlacementPolicy) {
    assert_eq!(config.epoch, EpochSchedule::Monthly);
    assert_eq!(config.forecaster, ForecasterKind::Oracle);
    let placer = IncrementalPlacer::new(policy).heuristic_only();
    let legacy = legacy_run(&config, &placer);
    let engine = CdnSimulator::new(config).run_with(&placer);

    // Exact equality everywhere — the legacy path *is* this configuration.
    assert_eq!(engine.outcome, legacy.outcome);
    assert_eq!(engine.monthly, legacy.monthly);
    assert_eq!(engine.placements_per_site, legacy.placements_per_site);
    assert_eq!(engine.assigned_intensity, legacy.assigned_intensity);
    // And the engine's extras stay consistent with the legacy view.
    assert_eq!(engine.epochs.len(), 12);
    assert_eq!(engine.decision_carbon_g, engine.outcome.carbon_g);
}

#[test]
fn monthly_oracle_reproduces_legacy_simulation_bit_for_bit() {
    assert_matches_legacy(
        CdnConfig::new(ZoneArea::Europe).with_site_limit(20),
        PlacementPolicy::CarbonAware,
    );
    assert_matches_legacy(
        CdnConfig::new(ZoneArea::UnitedStates).with_site_limit(15),
        PlacementPolicy::LatencyAware,
    );
    assert_matches_legacy(
        CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(15)
            .with_scenario(CdnScenario::PopulationDemand),
        PlacementPolicy::CarbonAware,
    );
    assert_matches_legacy(
        CdnConfig::new(ZoneArea::UnitedStates)
            .with_site_limit(15)
            .with_scenario(CdnScenario::PopulationCapacity)
            .with_latency_limit(10.0),
        PlacementPolicy::CarbonAware,
    );
}

/// A deployment small enough that every epoch decision goes through the
/// exact MILP path (apps × servers ≤ the placer's exact-size limit) but
/// utilized enough that forecast error can flip placements.
fn exact_path_config(area: ZoneArea, seed: u64, epoch: EpochSchedule) -> CdnConfig {
    let mut config = CdnConfig::new(area).with_site_limit(3).with_epoch(epoch);
    config.servers_per_site = 1;
    config.apps_per_site = 2;
    config.request_rate_rps = 25.0;
    config.seed = seed;
    config
}

fn realized_carbon(config: CdnConfig, forecaster: ForecasterKind) -> Vec<f64> {
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
    let result = CdnSimulator::new(config.with_forecaster(forecaster)).run_with(&placer);
    assert_eq!(
        result.exact_decisions,
        result.epochs.len(),
        "every epoch must take the exact path"
    );
    result.epochs.iter().map(|e| e.carbon_g).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With exact epoch decisions, the oracle minimizes realized carbon per
    /// epoch, so no real forecaster can beat it — epoch by epoch, on either
    /// continent, at monthly and weekly cadence.
    #[test]
    fn oracle_realized_carbon_never_exceeds_any_forecaster(seed in 0u64..500) {
        let area = if seed % 2 == 0 { ZoneArea::Europe } else { ZoneArea::UnitedStates };
        let epoch = if seed % 4 < 2 { EpochSchedule::Monthly } else { EpochSchedule::Weekly };
        let config = exact_path_config(area, seed, epoch);
        let oracle = realized_carbon(config.clone(), ForecasterKind::Oracle);
        for forecaster in [ForecasterKind::Persistence, ForecasterKind::moving_average_24h()] {
            let other = realized_carbon(config.clone(), forecaster);
            prop_assert_eq!(oracle.len(), other.len());
            for (k, (o, p)) in oracle.iter().zip(other.iter()).enumerate() {
                prop_assert!(
                    *o <= p * (1.0 + 1e-9) + 1e-9,
                    "epoch {}: oracle {} beat by {:?} {} (seed {})",
                    k, o, forecaster, p, seed
                );
            }
        }
    }
}

#[test]
fn forecast_regret_is_visible_and_correctly_signed_on_the_quick_grid() {
    // The acceptance check behind `experiments --forecast --quick`: on the
    // saturated quick grid the oracle realizes no more carbon than
    // persistence for every (policy, epoch) pair, and persistence pays a
    // strictly positive regret somewhere (forecast error has a real cost).
    let report = summary::run(&summary::forecast_spec(true), 2);
    let rows = report.forecast_regret_rows();
    assert!(!rows.is_empty());
    let mut persistence_regret = 0.0f64;
    for row in &rows {
        if row.forecaster == "oracle" {
            assert_eq!(row.mean_regret_percent, 0.0);
        }
        if row.forecaster == "persistence" {
            assert!(
                row.mean_carbon_g >= row.mean_oracle_carbon_g - 1e-9,
                "{}/{}: persistence {} under oracle {}",
                row.policy,
                row.epoch,
                row.mean_carbon_g,
                row.mean_oracle_carbon_g
            );
            persistence_regret = persistence_regret.max(row.mean_regret_percent);
        }
    }
    assert!(
        persistence_regret > 0.0,
        "the saturated quick grid must show persistence paying real regret"
    );
}
