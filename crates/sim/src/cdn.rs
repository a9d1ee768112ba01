//! Continental-scale CDN simulation — Figures 11, 12, 13 and 14.
//!
//! The paper simulates a CDN's edge data centers across the US and Europe
//! for a full year: applications arrive at edge sites, and each policy
//! places them on servers within the application's latency limit.  Carbon is
//! accounted from the hourly intensity of the hosting zone.
//!
//! # The epoch re-placement engine
//!
//! The year is partitioned by an [`EpochSchedule`] (monthly, weekly or
//! daily).  At each epoch boundary the simulator re-solves placement against
//! the **forecast** mean intensity Ī over the epoch, computed by the
//! scenario's [`ForecasterKind`] from the zone's trace — this is the
//! *decision* intensity of Section 4.2.
//! Realized carbon is then *accounted* from the actual hourly trace over the
//! same epoch (the assignment's energy re-priced at the epoch's true mean
//! intensity), so forecast error shows up as the gap between
//! [`EpochOutcome::decision_carbon_g`] and [`EpochOutcome::carbon_g`].  The
//! legacy monthly simulation is exactly the `Monthly` + `Oracle`
//! configuration (the default), which reproduces its results bit for bit.
//!
//! One loop runs every [`ServingMode`]: per epoch it decides over the
//! remaining window, serves until the next trigger, accounts the served
//! segment, and repeats until the epoch ends.  The epoch end is the trigger
//! that always fires; [`ServingMode::OnlineReplace`] adds a demand-drift
//! trigger that cuts the epoch into several segments.  Every input comes
//! from one [`ScenarioPrep`]: the epoch-invariant deployment, its pair
//! latencies and the per-epoch intensity means of its area.
//!
//! # Stateful re-placement
//!
//! The committed assignment is threaded from each epoch into the next as a
//! [`carbonedge_core::PlacementState`], so re-solves are *delta* placements:
//! the placer weighs the forecast carbon savings of every move against the
//! per-application migration cost of the configured
//! [`MigrationCostLevel`] (model-image transfer + downtime, in grams).
//! Moves are counted per epoch with
//! [`carbonedge_core::PlacementState::moves`], their migration carbon is
//! charged into both the decision and the realized totals, and
//! [`MigrationCostLevel::Free`] reproduces the stateless engine's decisions
//! bit for bit while still reporting churn.

use crate::metrics::{PolicyOutcome, Savings};
use crate::serving::{ServingEngine, ServingMetrics, ServingMode};
use carbonedge_core::{
    IncrementalPlacer, MigrationCostLevel, PairLatencyCache, PlacementPolicy, PlacementProblem,
    PlacementState, ServerSnapshot,
};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_grid::{EpochSchedule, ForecasterKind, HourOfYear, ZoneId, ZoneTraces};
use carbonedge_net::LatencyModel;
use carbonedge_workload::{
    AppId, Application, ArrivalProcess, DeviceKind, ModelKind, RequestStream, WorkloadProfile,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Demand/capacity scenarios of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdnScenario {
    /// Uniform demand and uniform capacity across sites ("Homo").
    Homogeneous,
    /// Demand proportional to metro population, capacity uniform ("Demand").
    PopulationDemand,
    /// Capacity proportional to metro population, demand uniform ("Capacity").
    PopulationCapacity,
}

impl CdnScenario {
    /// Display name used in Figure 14.
    pub fn name(&self) -> &'static str {
        match self {
            CdnScenario::Homogeneous => "Homo",
            CdnScenario::PopulationDemand => "Demand",
            CdnScenario::PopulationCapacity => "Capacity",
        }
    }
}

/// Configuration of a CDN-scale simulation.
#[derive(Debug, Clone)]
pub struct CdnConfig {
    /// Which continent to simulate (US or Europe).
    pub area: ZoneArea,
    /// Round-trip latency limit for every application (ms); 20 ms ≈ 500 km.
    pub latency_limit_ms: f64,
    /// Applications arriving per site per month.
    pub apps_per_site: usize,
    /// Number of servers per edge site in the homogeneous scenario.
    pub servers_per_site: usize,
    /// Device installed in the CDN servers.
    pub device: DeviceKind,
    /// Model served by the arriving applications.
    pub model: ModelKind,
    /// Per-application request rate (requests/second).
    pub request_rate_rps: f64,
    /// Demand/capacity scenario.
    pub scenario: CdnScenario,
    /// Optional cap on the number of edge sites (used to keep unit tests
    /// fast); `None` simulates the full catalog.
    pub site_limit: Option<usize>,
    /// Trace seed.
    pub seed: u64,
    /// How often the placement is re-solved over the year.
    pub epoch: EpochSchedule,
    /// Forecaster serving the decision intensity Ī at each epoch boundary.
    pub forecaster: ForecasterKind,
    /// Per-application migration cost charged when a re-solve moves an
    /// application off its incumbent server.
    pub migration: MigrationCostLevel,
    /// How demand is served: hour-aggregated (the legacy model) or through
    /// the batched event-level loop (with or without the online
    /// re-placement trigger).
    pub serving: ServingMode,
    /// Relative per-site demand drift that triggers a mid-epoch re-solve
    /// under [`ServingMode::OnlineReplace`].
    pub drift_threshold: f64,
    /// Hours a fresh decision is exempt from the drift trigger.
    pub drift_cooldown_hours: usize,
}

impl CdnConfig {
    /// The paper's default CDN setup for an area: 20 ms RTT limit, ResNet50
    /// on NVIDIA A2 servers, homogeneous demand and capacity.
    pub fn new(area: ZoneArea) -> Self {
        Self {
            area,
            latency_limit_ms: 20.0,
            apps_per_site: 1,
            servers_per_site: 4,
            device: DeviceKind::A2,
            model: ModelKind::ResNet50,
            request_rate_rps: 15.0,
            scenario: CdnScenario::Homogeneous,
            site_limit: None,
            seed: 42,
            epoch: EpochSchedule::Monthly,
            forecaster: ForecasterKind::Oracle,
            migration: MigrationCostLevel::Free,
            serving: ServingMode::Aggregate,
            drift_threshold: 0.5,
            drift_cooldown_hours: 24,
        }
    }

    /// Sets the latency limit (Figure 12 sweeps 5–30 ms).
    pub fn with_latency_limit(mut self, ms: f64) -> Self {
        self.latency_limit_ms = ms;
        self
    }

    /// Sets the scenario (Figure 14).
    pub fn with_scenario(mut self, scenario: CdnScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Restricts the simulation to the first `n` sites of the area.
    pub fn with_site_limit(mut self, n: usize) -> Self {
        self.site_limit = Some(n);
        self
    }

    /// Sets the re-placement schedule.
    pub fn with_epoch(mut self, epoch: EpochSchedule) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the forecaster serving the decision intensity.
    pub fn with_forecaster(mut self, forecaster: ForecasterKind) -> Self {
        self.forecaster = forecaster;
        self
    }

    /// Sets the migration-cost calibration charged per move.
    pub fn with_migration(mut self, migration: MigrationCostLevel) -> Self {
        self.migration = migration;
        self
    }

    /// Sets the serving mode (aggregate, event-level, or event-level with
    /// the online re-placement trigger).
    pub fn with_serving(mut self, serving: ServingMode) -> Self {
        self.serving = serving;
        self
    }

    /// Sets the online re-placement trigger: relative demand drift and the
    /// per-decision cooldown before the trigger re-arms.
    pub fn with_drift(mut self, threshold: f64, cooldown_hours: usize) -> Self {
        self.drift_threshold = threshold;
        self.drift_cooldown_hours = cooldown_hours;
        self
    }
}

/// Per-month outcome of one policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonthlyOutcome {
    /// Total carbon for the month, grams.
    pub carbon_g: f64,
    /// Total energy for the month, joules.
    pub energy_j: f64,
    /// Mean round-trip latency of placed applications, ms.
    pub mean_latency_ms: f64,
}

/// Outcome of one placement epoch, separating the carbon the placer
/// *decided* against (forecast intensities) from the carbon it *realized*
/// (the actual trace over the epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochOutcome {
    /// Position in the schedule.
    pub index: usize,
    /// First hour of the epoch.
    pub start: carbonedge_grid::HourOfYear,
    /// Hours the epoch spans.
    pub hours: usize,
    /// Realized carbon: the decision's energy re-priced at the epoch's
    /// actual mean intensity per zone, grams.
    pub carbon_g: f64,
    /// Carbon the placer expected under the forecast intensities, grams.
    pub decision_carbon_g: f64,
    /// Total energy over the epoch, joules (independent of intensity).
    pub energy_j: f64,
    /// Mean round-trip latency of placed applications, ms.
    pub mean_latency_ms: f64,
    /// Applications placed in this epoch.
    pub placed_apps: usize,
    /// Applications moved off their previous epoch's server (0 in the
    /// first epoch — there is no incumbent yet).
    pub moves: usize,
    /// Migration carbon charged for those moves, grams; included in both
    /// `carbon_g` and `decision_carbon_g`.
    pub migration_carbon_g: f64,
}

/// Result of running one policy over the full year.
#[derive(Debug, Clone)]
pub struct CdnResult {
    /// Policy name.
    pub policy: String,
    /// Aggregated *realized* outcome over the year.
    pub outcome: PolicyOutcome,
    /// Total carbon the placer expected under its forecasts, grams; the gap
    /// to `outcome.carbon_g` is the aggregate forecast pricing error.
    pub decision_carbon_g: f64,
    /// Per-month outcomes (12 entries).  Under non-monthly schedules each
    /// epoch is attributed to the calendar month containing its first hour.
    pub monthly: Vec<MonthlyOutcome>,
    /// Per-epoch outcomes in schedule order.
    pub epochs: Vec<EpochOutcome>,
    /// Per-site application counts per month (`[month][site]`, Figure 13d);
    /// epochs are attributed to the month of their first hour.
    pub placements_per_site: Vec<Vec<usize>>,
    /// The realized mean carbon intensity of the zone each placed
    /// application landed in (one sample per app-epoch, Figure 11c).
    pub assigned_intensity: Vec<f64>,
    /// Site names in `placements_per_site` column order.
    pub site_names: Vec<String>,
    /// Simplex pivots the placer's exact path spent over the run (0 for
    /// heuristic-only runs) — the epoch-to-epoch warm-restart work.
    pub solver_pivots: usize,
    /// Number of epochs decided by the exact MILP path.
    pub exact_decisions: usize,
    /// Number of decisions whose exact path ran but found no assignment,
    /// so the heuristic decided instead (see
    /// `PlacementDecision::exact_fallback`).
    pub exact_fallbacks: usize,
    /// Number of heuristic decisions that reused the assignment of the
    /// placer's previous, bit-identical instance (see
    /// `PlacementDecision::memoized`).  This counts the placer's history,
    /// not a property of the run: a placer that decided a bit-identical
    /// instance before the run (a sweep worker's previous cell) hits on the
    /// run's first decision, a fresh one does not.
    pub memoized_decisions: usize,
    /// Applications moved between servers across all epoch boundaries (the
    /// run's churn).
    pub moves: usize,
    /// Total migration carbon charged for those moves, grams; included in
    /// `outcome.carbon_g` and `decision_carbon_g`.
    pub migration_carbon_g: f64,
    /// Event-level serving metrics (`None` under
    /// [`ServingMode::Aggregate`], which leaves the legacy result
    /// untouched).
    pub serving: Option<ServingMetrics>,
}

impl CdnResult {
    /// Applications assigned to a named site per month.
    pub fn monthly_placements_for(&self, site_name: &str) -> Option<Vec<usize>> {
        let idx = self.site_names.iter().position(|n| n == site_name)?;
        Some(self.placements_per_site.iter().map(|m| m[idx]).collect())
    }
}

/// Immutable inputs shared by every CDN simulation: the worldwide zone
/// catalog, the Akamai-like edge-site catalog derived from it, one trace
/// store per seed, and two caches: area inputs, and the scenario
/// preparations built on them.
///
/// A year of hourly values per zone is the expensive input of a simulator,
/// and a scenario sweep instantiates dozens to thousands of simulators that
/// differ only in policy, latency limit or demand scenario.  Each seed's
/// [`ZoneTraces`] generates a zone's year the first time a scenario
/// preparation (or [`CdnSimulator::monthly_intensity_of`]) reads it, so a
/// sweep generates only the zones its sites sit in, and each of them once
/// per seed.  Sharing one `CdnShared` across those cells makes simulator
/// construction an `Arc` clone plus a site-list copy, and is safe to use
/// concurrently from the sweep executor's worker threads.
pub struct CdnShared {
    catalog: Arc<ZoneCatalog>,
    site_catalog: EdgeSiteCatalog,
    /// Per-seed trace stores.  Creating one generates nothing, so it
    /// happens under the map mutex; generation happens inside each zone's
    /// own slot of the store.
    traces_by_seed: Mutex<HashMap<u64, Arc<ZoneTraces>>>,
    /// Per-area input slots, filled by the first scenario preparation of
    /// the area.
    areas: Mutex<HashMap<AreaKey, Slot<AreaInputs>>>,
    /// Per-scenario preparation slots.
    preps: Mutex<HashMap<PrepKey, Slot<ScenarioPrep>>>,
}

/// A lazily initialized cache slot.  The cache's mutex is held only to
/// find the slot; the (expensive) build happens inside the slot's own
/// `OnceLock`.
type Slot<T> = Arc<OnceLock<Arc<T>>>;
/// One simulated edge site: name, location, zone and metro population.
type Site = (String, carbonedge_geo::Coordinates, ZoneId, f64);

/// The slot of `key` in `slots`, created empty on first use.  Both caches
/// are monotone insert-only maps, so a lock poisoned by a panicking sweep
/// worker is still structurally sound: the guard is recovered.
fn slot_of<K: Eq + Hash, T>(slots: &Mutex<HashMap<K, Slot<T>>>, key: K) -> Slot<T> {
    let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(slots.entry(key).or_default())
}

/// The configuration fields an [`AreaInputs`] depends on: the site list
/// (area and site cap), and the traces, epoch schedule and forecaster its
/// epoch means read.  Every scenario, latency limit and workload of an
/// area shares one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AreaKey {
    area: ZoneArea,
    site_limit: Option<usize>,
    seed: u64,
    epoch: EpochSchedule,
    forecaster: ForecasterKind,
}

impl AreaKey {
    fn of(config: &CdnConfig) -> Self {
        Self {
            area: config.area,
            site_limit: config.site_limit,
            seed: config.seed,
            epoch: config.epoch,
            forecaster: config.forecaster,
        }
    }
}

/// The inputs that depend on an area's sites but not on the deployment a
/// scenario sizes on them, computed once per [`AreaKey`]: the site list,
/// the site-to-site round-trip latency matrix and the per-epoch per-site
/// decision (forecast) and accounting (actual) mean intensities.
struct AreaInputs {
    /// The area's sites, capped at the site limit.
    sites: Vec<Site>,
    /// `rtt_ms[a * sites + b]`: round trip from site `a` to site `b`, ms,
    /// shared by the latency cache of every scenario of the area.
    rtt_ms: Arc<[f64]>,
    /// `[epoch.index][site]` → (decision mean, actual mean) intensity.
    epoch_site_means: Vec<Vec<(f64, f64)>>,
}

impl AreaInputs {
    /// Builds the inputs of `config`'s area.
    fn build(
        config: &CdnConfig,
        site_catalog: &EdgeSiteCatalog,
        traces: &ZoneTraces,
        latency_model: &LatencyModel,
    ) -> Self {
        let mut sites: Vec<Site> = site_catalog
            .in_area(config.area)
            .iter()
            .map(|s| (s.name.clone(), s.location, s.zone, s.population_m))
            .collect();
        if let Some(limit) = config.site_limit {
            sites.truncate(limit);
        }
        // The same pure call `PlacementProblem::latency_ms` would make:
        // identical coordinates, identical bits.
        let rtt_ms = sites
            .iter()
            .flat_map(|(_, a, _, _)| {
                sites
                    .iter()
                    .map(move |(_, b, _, _)| latency_model.round_trip_ms(*a, *b))
            })
            .collect();
        let epoch_site_means = config
            .epoch
            .epochs()
            .into_iter()
            .map(|epoch| {
                site_means_for_window(&sites, traces, config.forecaster, epoch.start, epoch.hours)
            })
            .collect();
        Self {
            sites,
            rtt_ms,
            epoch_site_means,
        }
    }
}

/// The configuration fields a [`ScenarioPrep`] depends on: everything that
/// shapes the deployment, and its area's [`AreaKey`] — but **not** the
/// policy, migration costs, serving mode or drift trigger, which only steer
/// how the shared inputs are consumed.  Sweep cells differing in those
/// consumer axes therefore share one prep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrepKey {
    area: ZoneArea,
    scenario: CdnScenario,
    latency_bits: u64,
    rate_bits: u64,
    apps_per_site: usize,
    servers_per_site: usize,
    device: DeviceKind,
    model: ModelKind,
    site_limit: Option<usize>,
    seed: u64,
    epoch: EpochSchedule,
    forecaster: ForecasterKind,
}

impl PrepKey {
    fn of(config: &CdnConfig) -> Self {
        Self {
            area: config.area,
            scenario: config.scenario,
            latency_bits: config.latency_limit_ms.to_bits(),
            rate_bits: config.request_rate_rps.to_bits(),
            apps_per_site: config.apps_per_site,
            servers_per_site: config.servers_per_site,
            device: config.device,
            model: config.model,
            site_limit: config.site_limit,
            seed: config.seed,
            epoch: config.epoch,
            forecaster: config.forecaster,
        }
    }
}

/// Scenario-level preparation computed once per `PrepKey` and consumed by
/// every policy/migration/serving variant of the scenario.  It owns the
/// epoch-invariant deployment — server snapshots and applications (whose
/// `origin_site` is their site index) sized by the demand/capacity
/// scenario, the server→site map, the per-site server counts — and the
/// pair latencies over it, and holds its area's `AreaInputs`: the sites,
/// the site-to-site latency matrix the pair latencies read, and the epoch
/// intensity means.
///
/// It is the only producer of a run's inputs: every simulator runs on one,
/// taken from the per-`PrepKey` cache (on area inputs from the per-`AreaKey`
/// cache) by [`CdnShared::simulator`], or built fresh and private, area
/// inputs included, by [`CdnShared::cold_simulator`].  The fresh-vs-cached
/// differential (the sim crate's shared-vs-standalone tests and the sweep
/// crate's `sweep_delta`) therefore pins both cache keys: a consumer axis
/// that leaked into a prep, or an input missing from a key, would make the
/// two runs diverge.
pub struct ScenarioPrep {
    /// The area's sites, latency matrix and epoch means.
    area: Arc<AreaInputs>,
    /// Server snapshots in site order; each run re-prices its own copy per
    /// decision window.
    servers: Vec<ServerSnapshot>,
    /// Arriving applications in site order.
    apps: Vec<Application>,
    /// Site index of every server.
    server_site: Vec<usize>,
    /// Servers per site, sized by the capacity scenario.
    servers_per_site: Vec<usize>,
    /// Pair round-trip latencies with app/server classes = site indices.
    latency: Arc<PairLatencyCache>,
}

impl ScenarioPrep {
    /// Builds the deployment of `config` on its area's inputs.
    fn build(config: &CdnConfig, area: Arc<AreaInputs>) -> Self {
        let sites = &area.sites;
        // The mean metro population normalizes the population-proportional
        // demand/capacity scenarios.
        let mean_population =
            sites.iter().map(|(_, _, _, p)| *p).sum::<f64>() / sites.len().max(1) as f64;
        let mut servers = Vec::new();
        let mut servers_per_site = Vec::new();
        let mut apps = Vec::new();
        for (site, (_, loc, zone, pop)) in sites.iter().enumerate() {
            let count = config.servers_at(*pop, mean_population);
            for _ in 0..count {
                servers.push(ServerSnapshot::new(
                    servers.len(),
                    site,
                    *zone,
                    config.device,
                    *loc,
                ));
            }
            servers_per_site.push(count);
            for _ in 0..config.apps_at(*pop, mean_population) {
                apps.push(Application::new(
                    AppId(apps.len()),
                    config.model,
                    config.request_rate_rps,
                    config.latency_limit_ms,
                    *loc,
                    site,
                ));
            }
        }
        let server_site: Vec<usize> = servers.iter().map(|s| s.site).collect();
        let latency = Arc::new(PairLatencyCache::new(
            apps.iter().map(|a| a.origin_site as u32).collect(),
            server_site.iter().map(|&s| s as u32).collect(),
            Arc::clone(&area.rtt_ms),
            sites.len(),
        ));
        Self {
            servers,
            apps,
            server_site,
            servers_per_site,
            latency,
            area,
        }
    }
}

impl CdnConfig {
    /// Servers at a site of metro `population` (Figure 14's capacity skew).
    fn servers_at(&self, population: f64, mean_population: f64) -> usize {
        match self.scenario {
            CdnScenario::PopulationCapacity => ((population / mean_population)
                * self.servers_per_site as f64)
                .round()
                // lint:allow(lossy-cast): rounded and clamped to >= 1.0 above, so the cast is exact
                .max(1.0) as usize,
            _ => self.servers_per_site,
        }
    }

    /// Applications arriving at a site of metro `population` (Figure 14's
    /// demand skew).
    fn apps_at(&self, population: f64, mean_population: f64) -> usize {
        match self.scenario {
            CdnScenario::PopulationDemand => ((population / mean_population)
                * self.apps_per_site as f64)
                .round()
                // lint:allow(lossy-cast): rounded and clamped to >= 0.0 above, so the cast is exact
                .max(0.0) as usize,
            _ => self.apps_per_site,
        }
    }
}

/// The per-site (decision, actual) mean intensities for one window:
/// decision = the *forecast* mean for the site's zone over the window (the
/// decision intensity Ī of Section 4.2), actual = the trace's true window
/// mean, kept aside for accounting.  Both depend only on (zone, window);
/// sites sharing a zone reuse them instead of re-scanning the trace window
/// per site.  The area inputs store these vectors per epoch and a run
/// computes the windows the drift trigger cuts short, both through this
/// routine.
fn site_means_for_window(
    sites: &[Site],
    traces: &ZoneTraces,
    forecaster: ForecasterKind,
    window_start: HourOfYear,
    window_hours: usize,
) -> Vec<(f64, f64)> {
    let mut zone_means: HashMap<ZoneId, (f64, f64)> = HashMap::new();
    sites
        .iter()
        .map(|(_, _, zone, _)| {
            *zone_means.entry(*zone).or_insert_with(|| {
                let trace = &traces[zone.index()];
                (
                    forecaster.forecast_mean(trace, window_start, window_hours),
                    trace.window_mean(window_start, window_hours).max(0.0),
                )
            })
        })
        .collect()
}

/// Prices every server at its site's decision mean, through the
/// [`ServerSnapshot::with_carbon_intensity`] clamp, over `hours`.
fn price_decided(problem: &mut PlacementProblem, site_means: &[(f64, f64)], hours: usize) {
    for server in &mut problem.servers {
        *server = server
            .clone()
            .with_carbon_intensity(site_means[server.site].0);
    }
    problem.epoch_hours = hours as f64;
}

impl CdnShared {
    /// Builds the shared catalogs (traces are generated lazily per seed and
    /// zone).
    pub fn new() -> Self {
        let catalog = Arc::new(ZoneCatalog::worldwide());
        let site_catalog = EdgeSiteCatalog::akamai_like(&catalog);
        Self {
            catalog,
            site_catalog,
            traces_by_seed: Mutex::new(HashMap::new()),
            areas: Mutex::new(HashMap::new()),
            preps: Mutex::new(HashMap::new()),
        }
    }

    /// The shared worldwide zone catalog.
    pub fn catalog(&self) -> &Arc<ZoneCatalog> {
        &self.catalog
    }

    /// The trace store of a seed, created on first use.  It generates a
    /// zone's year on that zone's first read, so this call itself
    /// generates nothing.
    ///
    /// Every cache is a monotone insert-only map, so a lock poisoned by a
    /// panicking sweep worker is still structurally sound — recover the
    /// guard instead of cascading the panic into every other worker.
    pub fn traces(&self, seed: u64) -> Arc<ZoneTraces> {
        let mut cache = self
            .traces_by_seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            cache
                .entry(seed)
                .or_insert_with(|| Arc::new(self.catalog.traces(seed))),
        )
    }

    /// Number of distinct seeds with a trace store.
    pub fn cached_seed_count(&self) -> usize {
        self.traces_by_seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Number of distinct scenarios whose preparation is cached (built).
    pub fn cached_prep_count(&self) -> usize {
        self.preps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Builds a simulator for a configuration on the shared catalogs, with
    /// the scenario preparation taken from the per-`PrepKey` cache: the
    /// deployment and its pair latencies are built once per scenario and
    /// reused by every policy/migration/serving variant.  A prep's first
    /// build takes its area inputs (sites, latency matrix, epoch intensity
    /// means) from the per-`AreaKey` cache, so every scenario of an area
    /// shares them.
    pub fn simulator(&self, config: CdnConfig) -> CdnSimulator {
        let traces = self.traces(config.seed);
        let latency_model = LatencyModel::deterministic();
        let slot = slot_of(&self.preps, PrepKey::of(&config));
        let prep = Arc::clone(slot.get_or_init(|| {
            let slot = slot_of(&self.areas, AreaKey::of(&config));
            let area = slot.get_or_init(|| {
                Arc::new(AreaInputs::build(
                    &config,
                    &self.site_catalog,
                    &traces,
                    &latency_model,
                ))
            });
            Arc::new(ScenarioPrep::build(&config, Arc::clone(area)))
        }));
        self.simulator_on(config, traces, latency_model, prep)
    }

    /// Builds a simulator on a fresh, private scenario preparation, on
    /// fresh, private area inputs, that neither consumes nor populates a
    /// cache.  This is the differential oracle the cached path is tested
    /// against (`tests/sweep_delta.rs` and the shared-vs-standalone sim
    /// tests): a key bug makes a cached prep or area differ from a fresh
    /// one.  It is also what [`CdnSimulator::new`] returns.
    pub fn cold_simulator(&self, config: CdnConfig) -> CdnSimulator {
        let traces = self.traces(config.seed);
        let latency_model = LatencyModel::deterministic();
        let area = AreaInputs::build(&config, &self.site_catalog, &traces, &latency_model);
        let prep = Arc::new(ScenarioPrep::build(&config, Arc::new(area)));
        self.simulator_on(config, traces, latency_model, prep)
    }

    /// Assembles a simulator on `prep`.
    fn simulator_on(
        &self,
        config: CdnConfig,
        traces: Arc<ZoneTraces>,
        latency_model: LatencyModel,
        prep: Arc<ScenarioPrep>,
    ) -> CdnSimulator {
        CdnSimulator {
            config,
            catalog: Arc::clone(&self.catalog),
            traces,
            latency_model,
            prep,
        }
    }
}

impl Default for CdnShared {
    fn default() -> Self {
        Self::new()
    }
}

/// The CDN simulator: the catalog, traces and scenario preparation for one
/// area.
pub struct CdnSimulator {
    config: CdnConfig,
    catalog: Arc<ZoneCatalog>,
    traces: Arc<ZoneTraces>,
    latency_model: LatencyModel,
    /// The deployment, site list and epoch inputs every run consumes:
    /// shared through the [`CdnShared`] caches, or private to a cold
    /// simulator.
    prep: Arc<ScenarioPrep>,
}

impl CdnSimulator {
    /// Builds a standalone simulator for a configuration on a fresh, private
    /// scenario preparation (see [`CdnShared::cold_simulator`]).  Sweeps
    /// running many configurations should build one [`CdnShared`] and call
    /// [`CdnShared::simulator`] instead, which reuses catalogs, traces and
    /// the scenario preparation.
    pub fn new(config: CdnConfig) -> Self {
        CdnShared::new().cold_simulator(config)
    }

    /// Number of simulated edge sites.
    pub fn site_count(&self) -> usize {
        self.sites().len()
    }

    /// The sites restricted to the area.
    fn sites(&self) -> &[Site] {
        &self.prep.area.sites
    }

    /// The zone catalog backing the simulation.
    pub fn catalog(&self) -> &ZoneCatalog {
        &self.catalog
    }

    /// Monthly mean carbon intensity of a named zone (Figure 13c).
    pub fn monthly_intensity_of(&self, zone_name: &str) -> Option<Vec<f64>> {
        let id = self.catalog.id_of(zone_name)?;
        Some(
            (0..12)
                .map(|m| self.traces[id.index()].monthly_mean(m))
                .collect(),
        )
    }

    /// Runs the year-long simulation for one policy with the default
    /// heuristic placer.
    pub fn run(&self, policy: PlacementPolicy) -> CdnResult {
        self.run_with(&IncrementalPlacer::new(policy).heuristic_only())
    }

    /// Runs the year-long simulation with a caller-provided placer, letting
    /// sweeps share one solver configuration across cells (the sweep
    /// executor assigns each cell's policy to its placer's `policy` field).
    ///
    /// One loop serves every [`ServingMode`].  Per epoch of the configured
    /// [`EpochSchedule`] it decides over the remaining window against the
    /// **forecast** mean intensity ([`ForecasterKind::forecast_mean`] of the
    /// configured forecaster), serves until the next trigger, accounts the
    /// served segment at its **actual** mean intensity plus the migration
    /// carbon of any moves, and repeats until the epoch ends.  The trigger is the epoch end, or a demand drift past
    /// [`CdnConfig::drift_threshold`] under [`ServingMode::OnlineReplace`];
    /// `Aggregate` has no serving engine and `EventLevel` passes an infinite
    /// threshold, so both decide once per epoch.  Each decision re-prices one
    /// problem over the epoch-invariant deployment, with the previous
    /// assignment as its [`PlacementState`].  Between decisions only the
    /// server intensities, `epoch_hours` and the state change, and the
    /// placer's resident deployment (its placement skeleton: each
    /// application's feasible servers, the pairs' demands, energies and
    /// latencies, and the per-server pair index) reads none of them, so
    /// the placer builds the skeleton on the run's first decision and every
    /// later decision only prices its pairs.  The prep's latency cache is
    /// shared by every run on it, so the next run on the same deployment —
    /// a sweep worker's next policy cell — reuses the skeleton too.  A
    /// placer holds one deployment, so a sweep keeps one skeleton per
    /// worker alive, not one per cached `ScenarioPrep`.
    /// Migration terms are folded into
    /// the costs, never into the constraint matrix, so an exact-path placer
    /// warm-restarts every re-solve from the previous optimal basis
    /// (cost-only changes restart primal phase-2; see
    /// [`CdnResult::solver_pivots`]).
    pub fn run_with(&self, placer: &IncrementalPlacer) -> CdnResult {
        let config = &self.config;
        let prep = &*self.prep;
        let cost = config.migration.cost_for(config.model, config.device);
        let migration = vec![cost; prep.apps.len()];
        let drift_threshold = match config.serving {
            ServingMode::OnlineReplace => config.drift_threshold,
            _ => f64::INFINITY,
        };
        let mut engine = self
            .config
            .serving
            .is_event_level()
            .then(|| self.build_serving_engine());
        let mut problem = PlacementProblem::new(prep.servers.clone(), prep.apps.clone(), 1.0)
            .with_latency_model(self.latency_model.clone())
            .with_latency_cache(Arc::clone(&prep.latency));
        let deployed = !prep.apps.is_empty() && !prep.servers.is_empty();

        let mut outcome = PolicyOutcome::default();
        let mut decision_carbon_total = 0.0f64;
        let mut placements_per_site = vec![vec![0usize; self.site_count()]; 12];
        let mut assigned_intensity = Vec::new();
        let mut epochs = Vec::with_capacity(config.epoch.epoch_count());
        let pivots_before = placer.milp_solver.accumulated_pivots();
        let mut exact_decisions = 0usize;
        let mut exact_fallbacks = 0usize;
        let mut memoized_decisions = 0usize;
        let mut moves_total = 0usize;
        let mut migration_total = 0.0f64;

        for epoch in config.epoch.epochs() {
            if let Some(engine) = engine.as_mut() {
                engine.load_epoch(epoch.start.index(), epoch.hours);
            }
            let mut ep = EpochOutcome {
                index: epoch.index,
                start: epoch.start,
                hours: epoch.hours,
                carbon_g: 0.0,
                decision_carbon_g: 0.0,
                energy_j: 0.0,
                mean_latency_ms: 0.0,
                placed_apps: 0,
                moves: 0,
                migration_carbon_g: 0.0,
            };
            let mut decisions = 0usize;
            let mut latency_weighted = 0.0f64;
            let mut latency_weight = 0usize;
            let mut offset = 0usize;
            while deployed && offset < epoch.hours {
                let window_start = epoch.start.plus(offset);
                let window_hours = epoch.hours - offset;
                // Decide against the forecast over the *remaining* window —
                // the freshest view the placer can have.  A whole epoch is
                // read from the prep; a window cut short by drift is
                // computed on demand.
                let cut_window;
                let window_means: &[(f64, f64)] = if offset == 0 {
                    &prep.area.epoch_site_means[epoch.index]
                } else {
                    cut_window = site_means_for_window(
                        self.sites(),
                        &self.traces,
                        config.forecaster,
                        window_start,
                        window_hours,
                    );
                    &cut_window
                };
                price_decided(&mut problem, window_means, window_hours);
                let decision = placer
                    .place(&problem)
                    .expect("CDN placement has feasible options");
                exact_decisions += usize::from(decision.exact);
                exact_fallbacks += usize::from(decision.exact_fallback);
                memoized_decisions += usize::from(decision.memoized);

                // Serve under this decision until the next trigger.
                let segment_hours = match engine.as_mut() {
                    Some(engine) => {
                        engine.set_assignment(&decision.assignment, &prep.server_site, |app, s| {
                            problem.latency_ms(app, s)
                        });
                        let cooldown = config.drift_cooldown_hours;
                        engine
                            .serve_hours(offset, epoch.hours, drift_threshold, cooldown)
                            .0
                    }
                    None => window_hours,
                };

                // Price the segment the decision actually served: decision
                // carbon at the forecast mean over the segment, realized
                // carbon at the actual mean.  Only the intensities differ, so
                // a zero-error forecast realizes exactly what it promised.
                // Migration carbon is a fixed per-move charge, identical
                // under both pricings.
                let cut_segment;
                let served_means = if segment_hours == window_hours {
                    window_means
                } else {
                    cut_segment = site_means_for_window(
                        self.sites(),
                        &self.traces,
                        config.forecaster,
                        window_start,
                        segment_hours,
                    );
                    price_decided(&mut problem, &cut_segment, segment_hours);
                    &cut_segment
                };
                let carbon_g = |p: &PlacementProblem| {
                    p.total_carbon_g(&decision.assignment)
                        .expect("committed assignment stays feasible")
                        + decision.migration_carbon_g
                };
                let decided_g = carbon_g(&problem);
                let energy_j = problem
                    .total_energy_j(&decision.assignment)
                    .expect("committed assignment stays feasible");
                for server in &mut problem.servers {
                    server.carbon_intensity = served_means[server.site].1;
                }
                let realized_g = carbon_g(&problem);

                let placed = decision.assignment.iter().flatten().count();
                if decisions == 0 {
                    ep.mean_latency_ms = decision.mean_latency_ms;
                    ep.placed_apps = placed;
                }
                decisions += 1;
                latency_weighted += decision.mean_latency_ms * placed as f64;
                latency_weight += placed;
                ep.carbon_g += realized_g;
                ep.decision_carbon_g += decided_g;
                ep.energy_j += energy_j;
                ep.moves += decision.moves;
                ep.migration_carbon_g += decision.migration_carbon_g;
                moves_total += decision.moves;
                migration_total += decision.migration_carbon_g;

                let month = window_start.month();
                for &server in decision.assignment.iter().flatten() {
                    placements_per_site[month][prep.server_site[server]] += 1;
                    assigned_intensity.push(problem.servers[server].carbon_intensity);
                }
                // Delta re-placement: the next decision is solved against
                // this committed assignment, so the placer weighs each move's
                // forecast savings against its migration cost (the deployment
                // is epoch-invariant, so incumbent server indices stay valid).
                problem.state = Some(PlacementState::new(decision.assignment, migration.clone()));
                offset += segment_hours;
            }
            // An epoch decided more than once reports the placed-weighted
            // mean latency of its decisions.
            if decisions > 1 && latency_weight > 0 {
                ep.mean_latency_ms = latency_weighted / latency_weight as f64;
            }
            outcome.accumulate(&PolicyOutcome {
                carbon_g: ep.carbon_g,
                energy_j: ep.energy_j,
                mean_latency_ms: ep.mean_latency_ms,
                placed_apps: ep.placed_apps,
            });
            decision_carbon_total += ep.decision_carbon_g;
            epochs.push(ep);
        }

        CdnResult {
            policy: placer.policy.name(),
            outcome,
            decision_carbon_g: decision_carbon_total,
            monthly: Self::monthly_from_epochs(&epochs),
            epochs,
            placements_per_site,
            assigned_intensity,
            site_names: self.sites().iter().map(|(n, _, _, _)| n.clone()).collect(),
            solver_pivots: placer.milp_solver.accumulated_pivots() - pivots_before,
            exact_decisions,
            exact_fallbacks,
            memoized_decisions,
            moves: moves_total,
            migration_carbon_g: migration_total,
            serving: engine.map(ServingEngine::finish),
        }
    }

    /// Builds the event-level serving engine for this deployment: one
    /// request stream per application (seeded from its (app, origin-site)
    /// pair and the trace seed, and modulated by
    /// [`ArrivalProcess::diurnal_bursty`]), per-site capacities matching the
    /// scenario's server counts, and the profiled service time of the
    /// configured (model, device) pair.
    fn build_serving_engine(&self) -> ServingEngine {
        let config = &self.config;
        let arrivals = ArrivalProcess::diurnal_bursty();
        let streams = self
            .prep
            .apps
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let site = app.origin_site;
                RequestStream::new(i, site, config.request_rate_rps, arrivals, config.seed)
            })
            .collect();
        let locations: Vec<_> = self.sites().iter().map(|(_, loc, _, _)| *loc).collect();
        let profile = WorkloadProfile::lookup(self.config.model, self.config.device)
            .expect("CDN simulations use profiled (model, device) pairs");
        ServingEngine::new(
            streams,
            &locations,
            &self.prep.servers_per_site,
            profile.max_throughput_rps(),
            profile.processing_time_ms,
            &self.latency_model,
        )
    }

    /// Post-processes the per-epoch outcomes into the 12 calendar-month
    /// aggregates (each epoch attributed to the month containing its first
    /// hour).  Within a month, epochs fold in schedule order with the exact
    /// f64 operation sequence of the old inline loop — the first epoch
    /// assigns the fields directly instead of flowing through the weighted
    /// update (`(lat * p) / p` is not bit-exact `lat`), so the monthly view
    /// reproduces the legacy per-month numbers bit for bit.
    fn monthly_from_epochs(epochs: &[EpochOutcome]) -> Vec<MonthlyOutcome> {
        let mut months = vec![MonthlyOutcome::default(); 12];
        for (month, out) in months.iter_mut().enumerate() {
            let mut placed_so_far = 0usize;
            let mut seen = false;
            for epoch in epochs.iter().filter(|e| e.start.month() == month) {
                if !seen {
                    seen = true;
                    *out = MonthlyOutcome {
                        carbon_g: epoch.carbon_g,
                        energy_j: epoch.energy_j,
                        mean_latency_ms: epoch.mean_latency_ms,
                    };
                    placed_so_far = epoch.placed_apps;
                } else {
                    let total_placed = placed_so_far + epoch.placed_apps;
                    if total_placed > 0 {
                        out.mean_latency_ms = (out.mean_latency_ms * placed_so_far as f64
                            + epoch.mean_latency_ms * epoch.placed_apps as f64)
                            / total_placed as f64;
                    }
                    out.carbon_g += epoch.carbon_g;
                    out.energy_j += epoch.energy_j;
                    placed_so_far = total_placed;
                }
            }
        }
        months
    }

    /// Runs CarbonEdge and the Latency-aware baseline and returns
    /// `(carbonedge, latency_aware, savings)`: Figure 13's monthly
    /// comparison.  Figures 11, 12 and 14 pair the same two policies
    /// through the sweep engine's savings rows instead.
    pub fn compare(&self) -> (CdnResult, CdnResult, Savings) {
        let baseline = self.run(PlacementPolicy::LatencyAware);
        let carbonedge = self.run(PlacementPolicy::CarbonAware);
        let savings = Savings::versus(&carbonedge.outcome, &baseline.outcome);
        (carbonedge, baseline, savings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(area: ZoneArea) -> CdnConfig {
        CdnConfig::new(area).with_site_limit(60)
    }

    #[test]
    fn carbonedge_saves_substantial_carbon_in_both_continents() {
        // Figure 11a: 49.5% (US) and 67.8% (Europe) with a 20 ms limit.
        let us = CdnSimulator::new(small_config(ZoneArea::UnitedStates))
            .compare()
            .2;
        let eu = CdnSimulator::new(small_config(ZoneArea::Europe))
            .compare()
            .2;
        assert!(us.carbon_percent > 20.0, "US savings {}", us.carbon_percent);
        assert!(eu.carbon_percent > 40.0, "EU savings {}", eu.carbon_percent);
        assert!(
            eu.carbon_percent > us.carbon_percent,
            "Europe should save more: US {} EU {}",
            us.carbon_percent,
            eu.carbon_percent
        );
    }

    #[test]
    fn latency_increase_stays_within_the_limit() {
        // Figure 11b: mean round-trip latency increases by ~11 ms under a
        // 20 ms limit — bounded by the limit itself.
        let (_, _, savings) = CdnSimulator::new(small_config(ZoneArea::Europe)).compare();
        assert!(savings.latency_increase_ms > 0.0);
        assert!(savings.latency_increase_ms <= 20.0 + 1e-6);
    }

    #[test]
    fn carbonedge_shifts_load_to_greener_zones() {
        // Figure 11c: the distribution of assigned-location carbon intensity
        // shifts left under CarbonEdge.
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let (ce, la, _) = sim.compare();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&ce.assigned_intensity) < mean(&la.assigned_intensity));
    }

    #[test]
    fn tighter_latency_limits_reduce_savings() {
        // Figure 12a: savings grow with the latency limit.
        let tight = CdnSimulator::new(small_config(ZoneArea::Europe).with_latency_limit(5.0))
            .compare()
            .2;
        let loose = CdnSimulator::new(small_config(ZoneArea::Europe).with_latency_limit(30.0))
            .compare()
            .2;
        assert!(
            loose.carbon_percent > tight.carbon_percent + 5.0,
            "tight {} loose {}",
            tight.carbon_percent,
            loose.carbon_percent
        );
    }

    #[test]
    fn monthly_results_cover_the_year() {
        let sim = CdnSimulator::new(small_config(ZoneArea::UnitedStates));
        let result = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(result.monthly.len(), 12);
        assert_eq!(result.placements_per_site.len(), 12);
        assert!(result.monthly.iter().all(|m| m.carbon_g > 0.0));
        // Savings vary by month but not wildly (Figure 13a shows <10% swings).
        let baseline = sim.run(PlacementPolicy::LatencyAware);
        let monthly_savings: Vec<f64> = result
            .monthly
            .iter()
            .zip(baseline.monthly.iter())
            .map(|(c, l)| (1.0 - c.carbon_g / l.carbon_g) * 100.0)
            .collect();
        let max = monthly_savings
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = monthly_savings
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max - min < 40.0, "monthly savings swing {max} - {min}");
    }

    #[test]
    fn population_skew_changes_savings_moderately() {
        // Figure 14: demand/capacity skew shifts savings by a few percent.
        let homo = CdnSimulator::new(small_config(ZoneArea::UnitedStates))
            .compare()
            .2;
        let demand = CdnSimulator::new(
            small_config(ZoneArea::UnitedStates).with_scenario(CdnScenario::PopulationDemand),
        )
        .compare()
        .2;
        let capacity = CdnSimulator::new(
            small_config(ZoneArea::UnitedStates).with_scenario(CdnScenario::PopulationCapacity),
        )
        .compare()
        .2;
        for s in [&demand, &capacity] {
            assert!(
                s.carbon_percent > 10.0,
                "skewed savings {}",
                s.carbon_percent
            );
            assert!((s.carbon_percent - homo.carbon_percent).abs() < 30.0);
        }
    }

    #[test]
    fn monthly_intensity_lookup_works() {
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let paris = sim.monthly_intensity_of("Paris, FR").unwrap();
        assert_eq!(paris.len(), 12);
        assert!(sim.monthly_intensity_of("Atlantis").is_none());
    }

    #[test]
    fn site_limit_truncates() {
        let sim = CdnSimulator::new(CdnConfig::new(ZoneArea::Europe).with_site_limit(10));
        assert_eq!(sim.site_count(), 10);
    }

    #[test]
    fn shared_environment_matches_standalone_simulator() {
        let shared = CdnShared::new();
        let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(25);
        let from_shared = shared
            .simulator(config.clone())
            .run(PlacementPolicy::CarbonAware);
        let standalone = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert_eq!(from_shared.outcome, standalone.outcome);
        assert_eq!(from_shared.monthly, standalone.monthly);
        assert_eq!(
            from_shared.placements_per_site,
            standalone.placements_per_site
        );
    }

    #[test]
    fn scenarios_of_one_area_share_its_inputs_and_a_cold_prep_does_not() {
        let shared = CdnShared::new();
        let base = CdnConfig::new(ZoneArea::Europe).with_site_limit(12);
        let tight = shared.simulator(base.clone().with_latency_limit(10.0));
        let skewed = shared.simulator(base.clone().with_scenario(CdnScenario::PopulationCapacity));
        assert_eq!(shared.cached_prep_count(), 2);
        assert!(!Arc::ptr_eq(&tight.prep, &skewed.prep));
        assert!(Arc::ptr_eq(&tight.prep.area, &skewed.prep.area));
        assert!(Arc::ptr_eq(
            &tight.prep.area.rtt_ms,
            &skewed.prep.area.rtt_ms
        ));
        assert_eq!(tight.prep.area.rtt_ms.len(), 12 * 12);

        let cold = shared.cold_simulator(base.clone());
        assert!(!Arc::ptr_eq(
            &cold.prep.area.rtt_ms,
            &tight.prep.area.rtt_ms
        ));
        assert_eq!(cold.prep.area.rtt_ms, tight.prep.area.rtt_ms);
        assert_eq!(shared.cached_prep_count(), 2);

        // Another seed, epoch schedule or forecaster is another area.
        for other in [
            base.clone().with_epoch(EpochSchedule::Weekly),
            base.clone().with_forecaster(ForecasterKind::Persistence),
            CdnConfig { seed: 7, ..base },
        ] {
            let sim = shared.simulator(other);
            assert!(!Arc::ptr_eq(&sim.prep.area, &tight.prep.area));
        }
    }

    #[test]
    fn shared_environment_caches_traces_per_seed() {
        let shared = CdnShared::new();
        assert_eq!(shared.cached_seed_count(), 0);
        let a = shared.traces(1);
        let b = shared.traces(1);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same seed must reuse the cached traces"
        );
        shared.traces(2);
        assert_eq!(shared.cached_seed_count(), 2);
    }

    #[test]
    fn a_simulator_generates_only_its_sites_zones() {
        let shared = CdnShared::new();
        let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(120);
        let seed = config.seed;
        assert_eq!(shared.traces(seed).generated_count(), 0);
        let sim = shared.simulator(config);
        let mut zones: Vec<ZoneId> = sim.sites().iter().map(|(_, _, zone, _)| *zone).collect();
        zones.sort_unstable();
        zones.dedup();
        assert_eq!(zones.len(), 26);
        assert_eq!(shared.traces(seed).generated_count(), zones.len());
        sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(
            shared.traces(seed).generated_count(),
            zones.len(),
            "a run reads no zone its prep did not"
        );
    }

    #[test]
    fn shared_caches_survive_a_poisoned_lock() {
        // A sweep worker panicking while holding a cache lock poisons it.
        // Both caches are monotone insert-only maps of lazily initialized
        // slots, so the data is still structurally sound — the accessors
        // must recover instead of cascading the panic into every other
        // worker and aborting the whole sweep.
        let shared = CdnShared::new();
        let _ = shared.traces(1);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(lock-poison): this test poisons the lock on purpose to exercise recovery
            let _guard = shared.traces_by_seed.lock().unwrap();
            panic!("worker dies while holding the trace-cache lock");
        }));
        assert!(poisoned.is_err());
        assert!(
            shared.traces_by_seed.lock().is_err(),
            "lock must be poisoned"
        );

        assert_eq!(shared.cached_seed_count(), 1);
        let again = shared.traces(1);
        assert!(!again.is_empty());
        let _ = shared.traces(2);
        assert_eq!(shared.cached_seed_count(), 2);

        // Same recovery discipline for the scenario-prep cache.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(lock-poison): this test poisons the lock on purpose to exercise recovery
            let _guard = shared.preps.lock().unwrap();
            panic!("worker dies while holding the prep-cache lock");
        }));
        assert!(poisoned.is_err());
        let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(3);
        let sim = shared.simulator(config.clone());
        assert!(Arc::ptr_eq(&sim.prep, &shared.simulator(config).prep));
        assert_eq!(shared.cached_prep_count(), 1);
    }

    #[test]
    fn run_with_reuses_a_shared_placer_template() {
        let sim = CdnSimulator::new(CdnConfig::new(ZoneArea::Europe).with_site_limit(20));
        let mut placer = IncrementalPlacer::new(PlacementPolicy::LatencyAware).heuristic_only();
        placer.policy = PlacementPolicy::CarbonAware;
        let via_template = sim.run_with(&placer);
        let direct = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(via_template.policy, "CarbonEdge");
        assert_eq!(via_template.outcome, direct.outcome);
    }

    #[test]
    fn placements_per_site_sum_matches_demand() {
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let result = sim.run(PlacementPolicy::CarbonAware);
        for month_counts in &result.placements_per_site {
            let placed: usize = month_counts.iter().sum();
            // Homogeneous demand: one app per site per month, all placeable.
            assert_eq!(placed, sim.site_count());
        }
    }

    #[test]
    fn oracle_decisions_realize_exactly_what_they_promised() {
        // Under the zero-error forecast the decision and accounting
        // intensities are identical, so the realized and decision carbon
        // agree bit for bit — per epoch and in aggregate.
        let result = CdnSimulator::new(small_config(ZoneArea::Europe).with_site_limit(15))
            .run(PlacementPolicy::CarbonAware);
        assert_eq!(result.epochs.len(), 12);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn persistence_forecasts_misprice_but_account_realized_carbon() {
        let config = small_config(ZoneArea::Europe)
            .with_site_limit(15)
            .with_forecaster(ForecasterKind::Persistence);
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        // A single-hour reading never equals a month's mean on the synthetic
        // traces, so decision and realized carbon must diverge.
        assert!(
            (result.outcome.carbon_g - result.decision_carbon_g).abs()
                > 1e-6 * result.outcome.carbon_g,
            "realized {} vs decision {}",
            result.outcome.carbon_g,
            result.decision_carbon_g
        );
        // Energy is intensity-independent: identical placements aside, the
        // yearly totals stay positive and finite.
        assert!(result.outcome.carbon_g > 0.0 && result.outcome.carbon_g.is_finite());
    }

    #[test]
    fn weekly_and_daily_schedules_partition_the_year() {
        for (schedule, expected) in [(EpochSchedule::Weekly, 52), (EpochSchedule::Daily, 365)] {
            let config = small_config(ZoneArea::Europe)
                .with_site_limit(8)
                .with_epoch(schedule);
            let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
            assert_eq!(result.epochs.len(), expected, "{}", schedule.name());
            let hours: usize = result.epochs.iter().map(|e| e.hours).sum();
            assert_eq!(hours, carbonedge_grid::HOURS_PER_YEAR);
            // The year aggregate is the sum of the per-epoch outcomes.
            let total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
            assert_eq!(total, result.outcome.carbon_g);
            // Every epoch is attributed to the month containing its start.
            let monthly_total: f64 = result.monthly.iter().map(|m| m.carbon_g).sum();
            assert!((monthly_total - total).abs() < 1e-6 * total.max(1.0));
            // Placements land in every epoch: one app per site per epoch.
            let placed: usize = result.epochs.iter().map(|e| e.placed_apps).sum();
            assert_eq!(placed, expected * 8);
        }
    }

    #[test]
    fn finer_epochs_with_oracle_forecasts_do_not_hurt_realized_carbon_much() {
        // Re-deciding more often against exact forecasts tracks the carbon
        // landscape at least as closely as monthly decisions at these sizes;
        // allow a small tolerance because the heuristic is not exact.
        let base = small_config(ZoneArea::Europe).with_site_limit(12);
        let monthly = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let weekly = CdnSimulator::new(base.with_epoch(EpochSchedule::Weekly))
            .run(PlacementPolicy::CarbonAware);
        // Energy scales with hours, which both schedules cover identically.
        assert!(
            (weekly.outcome.energy_j - monthly.outcome.energy_j).abs()
                < 1e-6 * monthly.outcome.energy_j
        );
        assert!(
            weekly.outcome.carbon_g < monthly.outcome.carbon_g * 1.05,
            "weekly {} vs monthly {}",
            weekly.outcome.carbon_g,
            monthly.outcome.carbon_g
        );
    }

    /// A deployment whose weekly re-placement genuinely churns: the wider
    /// 30 ms reach puts near-tied zones in every feasible set, so weekly
    /// intensity rankings flip and free re-placement chases them.
    fn churning_config(epoch: EpochSchedule) -> CdnConfig {
        CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(60)
            .with_latency_limit(30.0)
            .with_epoch(epoch)
    }

    #[test]
    fn free_migration_reports_churn_without_charging_carbon() {
        let result = CdnSimulator::new(churning_config(EpochSchedule::Weekly))
            .run(PlacementPolicy::CarbonAware);
        assert_eq!(result.migration_carbon_g, 0.0);
        assert!(
            result.moves > 0,
            "free weekly re-placement should chase the carbon landscape"
        );
        assert_eq!(result.epochs[0].moves, 0, "no incumbent in epoch 1");
        let epoch_moves: usize = result.epochs.iter().map(|e| e.moves).sum();
        assert_eq!(epoch_moves, result.moves);
    }

    #[test]
    fn migration_cost_reduces_churn() {
        let base = churning_config(EpochSchedule::Weekly);
        let free = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let paper = CdnSimulator::new(base.with_migration(MigrationCostLevel::Paper))
            .run(PlacementPolicy::CarbonAware);
        assert!(
            paper.moves < free.moves,
            "paper migration cost must suppress churn: {} vs free {}",
            paper.moves,
            free.moves
        );
        // At the paper's lightly-loaded request rate, per-move savings sit
        // in the milligram range while a paper-calibrated move costs ~10 g,
        // so hysteresis holds everything in place: realized carbon cannot
        // beat the free re-placement run.
        assert!(paper.outcome.carbon_g >= free.outcome.carbon_g);
        // Charged migration carbon is consistent per epoch and in aggregate.
        let epoch_migration: f64 = paper.epochs.iter().map(|e| e.migration_carbon_g).sum();
        assert!((epoch_migration - paper.migration_carbon_g).abs() < 1e-9);
        let epoch_carbon: f64 = paper.epochs.iter().map(|e| e.carbon_g).sum();
        assert_eq!(epoch_carbon, paper.outcome.carbon_g);
    }

    #[test]
    fn surviving_moves_are_charged_into_realized_carbon() {
        // A heavier per-application workload (60 rps) makes some weekly
        // moves worth more than the paper-calibrated migration cost, so a
        // few survive hysteresis and their carbon is actually charged.
        let mut config = CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(80)
            .with_latency_limit(30.0)
            .with_epoch(EpochSchedule::Weekly)
            .with_migration(MigrationCostLevel::Paper);
        config.request_rate_rps = 60.0;
        config.servers_per_site = 2;
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert!(
            result.moves > 0,
            "60 rps weekly moves should out-earn the paper migration cost"
        );
        let per_move = MigrationCostLevel::Paper.cost_for(ModelKind::ResNet50, DeviceKind::A2);
        assert!(
            (result.migration_carbon_g - result.moves as f64 * per_move.total_g()).abs() < 1e-6,
            "every surviving move is charged exactly once"
        );
        // Oracle pricing: decision and realized totals agree, migration
        // included on both sides.
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn free_migration_level_reproduces_stateless_decisions_bit_for_bit() {
        // `Free` threads the committed assignment (for churn accounting) but
        // must not alter a single decision or realized number.
        for epoch in [EpochSchedule::Monthly, EpochSchedule::Weekly] {
            let config = small_config(ZoneArea::Europe)
                .with_site_limit(12)
                .with_epoch(epoch);
            assert_eq!(config.migration, MigrationCostLevel::Free);
            let result = CdnSimulator::new(config.clone()).run(PlacementPolicy::CarbonAware);
            let again = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
            assert_eq!(result.outcome, again.outcome);
            assert_eq!(result.monthly, again.monthly);
            assert_eq!(result.migration_carbon_g, 0.0);
            // Realized totals contain no migration term at all.
            let epoch_total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
            assert_eq!(epoch_total, result.outcome.carbon_g);
        }
    }

    #[test]
    fn oracle_decisions_stay_exact_under_paid_migration() {
        // Migration carbon enters decision and realized totals identically,
        // so the oracle's decision carbon still equals realized carbon —
        // per epoch, on a deployment where moves actually survive the
        // hysteresis and get charged.
        let mut config = churning_config(EpochSchedule::Weekly)
            .with_site_limit(80)
            .with_migration(MigrationCostLevel::Paper);
        config.request_rate_rps = 60.0;
        config.servers_per_site = 2;
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert!(result.moves > 0);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn event_level_serving_leaves_the_aggregate_numbers_untouched() {
        // EventLevel layers serving metrics on top of the identical
        // placement sequence: every carbon/energy/latency figure must match
        // the Aggregate run bit for bit, and only the serving field differs.
        let base = small_config(ZoneArea::Europe).with_site_limit(15);
        let aggregate = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let events = CdnSimulator::new(base.with_serving(ServingMode::EventLevel))
            .run(PlacementPolicy::CarbonAware);
        assert!(aggregate.serving.is_none());
        assert_eq!(aggregate.outcome, events.outcome);
        assert_eq!(aggregate.monthly, events.monthly);
        assert_eq!(aggregate.epochs, events.epochs);
        assert_eq!(aggregate.assigned_intensity, events.assigned_intensity);
        let serving = events.serving.expect("EventLevel reports metrics");
        assert_eq!(serving.hours, carbonedge_grid::HOURS_PER_YEAR);
        assert!(serving.requests_total > 0);
        // 15 rps × 3600 is an exact integer per hour, so the stream total
        // equals the aggregate demand model's yearly request count exactly.
        let expected = 15u64 * 3600 * carbonedge_grid::HOURS_PER_YEAR as u64 * 15;
        assert_eq!(serving.requests_total, expected);
    }

    #[test]
    fn online_replace_fires_and_keeps_accounting_consistent() {
        // A hair trigger fires on the diurnal swing alone; the online engine
        // must re-place mid-epoch while keeping per-epoch sums equal to the
        // yearly aggregate and (under the oracle) decision == realized.
        let config = small_config(ZoneArea::Europe)
            .with_site_limit(10)
            .with_serving(ServingMode::OnlineReplace)
            .with_drift(0.05, 24);
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        let serving = result.serving.expect("OnlineReplace reports metrics");
        assert!(
            serving.online_replacements > 0,
            "a 5% threshold must fire against a 35% diurnal swing"
        );
        assert_eq!(serving.hours, carbonedge_grid::HOURS_PER_YEAR);
        let epoch_total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
        assert_eq!(epoch_total, result.outcome.carbon_g);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "oracle segment pricing, epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn online_replace_with_infinite_threshold_matches_epoch_boundaries() {
        // A trigger that never fires degenerates to one segment per epoch —
        // the same run as EventLevel, field for field.
        let base = small_config(ZoneArea::Europe).with_site_limit(12);
        let epochal = CdnSimulator::new(base.clone().with_serving(ServingMode::EventLevel))
            .run(PlacementPolicy::CarbonAware);
        let online = CdnSimulator::new(
            base.with_serving(ServingMode::OnlineReplace)
                .with_drift(f64::INFINITY, 24),
        )
        .run(PlacementPolicy::CarbonAware);
        assert_eq!(online.serving.expect("metrics").online_replacements, 0);
        assert_same_result(&epochal, &online);
    }

    /// Asserts two runs agree on every `CdnResult` field, bit for bit, but
    /// `memoized_decisions`, which counts the placer's history.
    fn assert_same_result(a: &CdnResult, b: &CdnResult) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.decision_carbon_g, b.decision_carbon_g);
        assert_eq!(a.monthly, b.monthly);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.placements_per_site, b.placements_per_site);
        assert_eq!(a.assigned_intensity, b.assigned_intensity);
        assert_eq!(a.site_names, b.site_names);
        assert_eq!(a.solver_pivots, b.solver_pivots);
        assert_eq!(a.exact_decisions, b.exact_decisions);
        assert_eq!(a.exact_fallbacks, b.exact_fallbacks);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.migration_carbon_g, b.migration_carbon_g);
        assert_eq!(a.serving, b.serving);
    }

    #[test]
    fn cached_and_fresh_preps_agree_when_drift_cuts_windows() {
        // A hair trigger on weekly epochs with a non-oracle forecaster: one
        // run decides over whole epochs read from the prep and over windows
        // the drift cut short, computed on demand.  The cached prep was built
        // for a different consumer-axis variant of the scenario, so a prep
        // key that missed an input would make it differ from a fresh one.
        let config = small_config(ZoneArea::Europe)
            .with_site_limit(10)
            .with_epoch(EpochSchedule::Weekly)
            .with_forecaster(ForecasterKind::MovingAverage { window_hours: 24 })
            .with_serving(ServingMode::OnlineReplace)
            .with_drift(0.05, 24);
        let shared = CdnShared::new();
        let _ = shared.simulator(config.clone().with_serving(ServingMode::Aggregate));
        let cached = shared
            .simulator(config.clone())
            .run(PlacementPolicy::CarbonAware);
        let fresh = shared
            .cold_simulator(config)
            .run(PlacementPolicy::CarbonAware);
        assert_eq!(shared.cached_prep_count(), 1);
        let serving = cached.serving.expect("OnlineReplace reports metrics");
        assert!(serving.online_replacements > 0, "the trigger must fire");
        assert_same_result(&cached, &fresh);
    }

    #[test]
    fn exact_path_runs_surface_warm_start_pivots() {
        // A tiny deployment keeps apps x servers under the exact-size limit,
        // so every epoch goes through the warm-started MILP path.
        let mut config = CdnConfig::new(ZoneArea::Europe).with_site_limit(3);
        config.servers_per_site = 2;
        let sim = CdnSimulator::new(config);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let first = sim.run_with(&placer);
        assert_eq!(first.exact_decisions, 12);
        assert!(first.solver_pivots > 0, "exact runs must report pivots");
        // A second run on the warm placer re-solves cost-only changes and
        // must not spend more pivots than the cold run.
        let second = sim.run_with(&placer);
        assert_eq!(second.exact_decisions, 12);
        assert!(
            second.solver_pivots <= first.solver_pivots,
            "warm {} vs cold {}",
            second.solver_pivots,
            first.solver_pivots
        );
        assert_eq!(first.outcome, second.outcome, "warm restarts stay exact");
        // Heuristic runs spend no exact-path pivots.
        let heuristic = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(heuristic.solver_pivots, 0);
        assert_eq!(heuristic.exact_decisions, 0);
    }

    #[test]
    fn exact_fallbacks_are_counted() {
        // A node limit of zero ends every exact solve without an incumbent,
        // so each epoch's exact path hands its batch to the heuristic.
        let mut config = CdnConfig::new(ZoneArea::Europe).with_site_limit(3);
        config.servers_per_site = 2;
        let sim = CdnSimulator::new(config);
        let mut placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        placer.milp_solver.max_nodes = 0;
        let result = sim.run_with(&placer);
        assert_eq!(result.exact_decisions, 0);
        assert_eq!(result.exact_fallbacks, result.epochs.len());
        assert_eq!(result.exact_fallbacks, 12);
        // A heuristic-only run never tries the exact path.
        assert_eq!(sim.run(PlacementPolicy::CarbonAware).exact_fallbacks, 0);
    }
}
