//! Integration tests of the event-level serving engine refactor.
//!
//! The contracts that make the refactor safe to ship:
//!
//! 1. **Aggregate mode is the legacy engine, bit for bit** — with
//!    `ServingMode::Aggregate` (the default), the refactored simulator
//!    reproduces a faithful replica of the pre-refactor epoch loop exactly:
//!    same outcome, same per-epoch decision and realized carbon, same
//!    assigned intensities, and no serving metrics.  Materializing request
//!    streams is opt-in; the refactor may never perturb the aggregate
//!    accounting.
//! 2. **Conservation through the whole stack** — for any seed, rate and
//!    site cap, the event-level engine's request total equals the total the
//!    aggregate demand model implies (per-epoch apportionment is exact by
//!    construction), and every request is accounted as served or dropped.
//! 3. **Determinism under parallelism** — serving metrics on the sweep grid
//!    are bit-identical for any `--jobs` worker count.

use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_grid::EpochSchedule;
use carbonedge_net::LatencyModel;
use carbonedge_sim::cdn::{CdnConfig, CdnScenario, CdnSimulator};
use carbonedge_sim::metrics::PolicyOutcome;
use carbonedge_sim::ServingMode;
use carbonedge_sweep::{SweepExecutor, SweepSpec};
use carbonedge_workload::{AppId, Application};
use proptest::prelude::*;
use std::collections::HashMap;

/// Everything the pre-refactor epoch engine reported that aggregate mode
/// must reproduce after the serving refactor.
struct LegacyRun {
    outcome: PolicyOutcome,
    epoch_carbon: Vec<f64>,
    epoch_decision_carbon: Vec<f64>,
    assigned_intensity: Vec<f64>,
}

/// A faithful replica of the pre-refactor epoch loop built from public
/// APIs: every epoch solved with no incumbent (the zero-migration default),
/// decided against the forecast mean and accounted at the epoch's actual
/// mean.  No request stream is ever materialized.
fn legacy_run(config: &CdnConfig, placer: &IncrementalPlacer) -> LegacyRun {
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
            continue;
        }
        let mut problem = PlacementProblem::new(servers, apps, epoch.hours as f64)
            .with_latency_model(latency_model.clone());
        let decision = placer.place(&problem).expect("legacy replica feasible");
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
    }

    LegacyRun {
        outcome,
        epoch_carbon,
        epoch_decision_carbon,
        assigned_intensity,
    }
}

/// Bit-for-bit comparison of the refactored simulator in aggregate mode
/// against the legacy replica.
fn assert_aggregate_matches_legacy(config: CdnConfig, placer: &IncrementalPlacer) {
    assert_eq!(config.serving, ServingMode::Aggregate);
    let legacy = legacy_run(&config, placer);
    let result = CdnSimulator::new(config).run_with(placer);

    assert!(
        result.serving.is_none(),
        "aggregate mode must not record serving metrics"
    );
    assert_eq!(result.outcome, legacy.outcome);
    assert_eq!(
        result.decision_carbon_g,
        legacy.epoch_decision_carbon.iter().sum::<f64>()
    );
    assert_eq!(result.assigned_intensity, legacy.assigned_intensity);
    assert_eq!(result.epochs.len(), legacy.epoch_carbon.len());
    for ((epoch, carbon), decision_carbon) in result
        .epochs
        .iter()
        .zip(legacy.epoch_carbon.iter())
        .zip(legacy.epoch_decision_carbon.iter())
    {
        assert_eq!(epoch.carbon_g, *carbon, "epoch {}", epoch.index);
        assert_eq!(
            epoch.decision_carbon_g, *decision_carbon,
            "epoch {}",
            epoch.index
        );
    }
}

#[test]
fn aggregate_mode_reproduces_the_legacy_engine_bit_for_bit() {
    // The default configuration is aggregate mode — no opt-in required.
    assert_eq!(
        CdnConfig::new(ZoneArea::Europe).serving,
        ServingMode::Aggregate
    );
    // A churny grid (60 EU sites, 30 ms reach, weekly re-placement), a
    // skewed-demand US grid, and the latency-aware baseline.
    assert_aggregate_matches_legacy(
        CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(60)
            .with_latency_limit(30.0)
            .with_epoch(EpochSchedule::Weekly),
        &IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
    );
    assert_aggregate_matches_legacy(
        CdnConfig::new(ZoneArea::UnitedStates)
            .with_site_limit(15)
            .with_scenario(CdnScenario::PopulationDemand),
        &IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
    );
    assert_aggregate_matches_legacy(
        CdnConfig::new(ZoneArea::Europe).with_site_limit(20),
        &IncrementalPlacer::new(PlacementPolicy::LatencyAware).heuristic_only(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed, rate and site cap, the event-level request total is
    /// exactly what the aggregate demand model implies, and every request
    /// ends the year served or dropped.
    #[test]
    fn event_totals_match_the_aggregate_demand_model(
        seed in 0u64..1000,
        rate in 0.5f64..20.0,
        site_limit in 4usize..8,
    ) {
        let mut config = CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(site_limit)
            .with_serving(ServingMode::EventLevel);
        config.seed = seed;
        config.request_rate_rps = rate;
        let epoch = config.epoch;
        let apps_per_site = config.apps_per_site;
        let simulator = CdnSimulator::new(config);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
        let result = simulator.run_with(&placer);
        let metrics = result.serving.expect("event-level runs record metrics");

        // Streams apportion `round(rate x 3600 x epoch_hours)` per epoch,
        // so the expected total follows from the epoch schedule alone.
        let streams = simulator.site_count() * apps_per_site;
        let per_stream: u64 = epoch
            .epochs()
            .into_iter()
            .map(|e| (rate * 3600.0 * e.hours as f64).round() as u64)
            .sum();
        prop_assert_eq!(metrics.requests_total, streams as u64 * per_stream);

        let accounted = metrics.served + metrics.dropped;
        let total = metrics.requests_total as f64;
        prop_assert!(
            (accounted - total).abs() <= 1e-6 * total.max(1.0),
            "served {} + dropped {} != total {}",
            metrics.served, metrics.dropped, total
        );
    }
}

#[test]
fn serving_results_are_bit_identical_for_any_worker_count() {
    let spec = SweepSpec::new("serving-jobs")
        .with_areas(vec![ZoneArea::Europe])
        .with_latency_limits(vec![30.0])
        .with_site_limit(Some(12))
        .with_demand(4, 1)
        .with_servings(ServingMode::ALL.to_vec());
    let sequential = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
    let parallel = SweepExecutor::new().with_jobs(4).run(&spec).unwrap();
    for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(a.serving, b.serving, "cell {}", a.cell.index);
        assert_eq!(a.outcome, b.outcome, "cell {}", a.cell.index);
    }
    assert_eq!(sequential.render_serving(), parallel.render_serving());
    // Event-level cells carry metrics; aggregate cells never do.
    for cell in &sequential.cells {
        assert_eq!(
            cell.serving.is_some(),
            cell.cell.serving.is_event_level(),
            "cell {}",
            cell.cell.index
        );
    }
}
