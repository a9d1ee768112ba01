//! Declarative description of a scenario sweep: the axes, their values, and
//! the enumeration of the resulting (policy × scenario × region × …) grid.

use carbonedge_core::{MigrationCostLevel, PlacementPolicy};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_sim::cdn::{CdnConfig, CdnScenario};
use carbonedge_sim::ServingMode;
use carbonedge_workload::{splitmix64, DeviceKind, ModelKind};

/// One workload point on the workload axis: the served model, the device the
/// CDN installs, and the per-application request rate.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Short display name used in reports (e.g. `resnet50@a2`).
    pub name: String,
    /// Model served by the arriving applications.
    pub model: ModelKind,
    /// Device installed in the CDN servers.
    pub device: DeviceKind,
    /// Per-application request rate (requests/second).
    pub request_rate_rps: f64,
}

/// The lossless identity of a workload point: every field that changes the
/// simulation, with the request rate as raw bits so it is hashable.  Used
/// for scenario pairing and marginal grouping instead of the display name,
/// which rounds the rate and could collide for distinct workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    /// Served model.
    pub model: ModelKind,
    /// Installed device.
    pub device: DeviceKind,
    /// Request rate as raw bits (exact float identity).
    pub rate_bits: u64,
}

impl WorkloadSpec {
    /// A named workload point.
    pub fn new(model: ModelKind, device: DeviceKind, request_rate_rps: f64) -> Self {
        Self {
            name: format!(
                "{}@{}r{:.0}",
                model.name().to_lowercase().replace(' ', ""),
                device.name().to_lowercase().replace(' ', ""),
                request_rate_rps
            ),
            model,
            device,
            request_rate_rps,
        }
    }

    /// The paper's default CDN workload: ResNet50 on NVIDIA A2 at 15 rps.
    pub fn resnet50_on_a2() -> Self {
        Self::new(ModelKind::ResNet50, DeviceKind::A2, 15.0)
    }

    /// A light workload: EfficientNetB0 on Jetson Orin Nano.
    pub fn efficientnet_on_orin() -> Self {
        Self::new(ModelKind::EfficientNetB0, DeviceKind::OrinNano, 15.0)
    }

    /// A heavy workload: YOLOv4 on GTX 1080.
    pub fn yolo_on_gtx1080() -> Self {
        Self::new(ModelKind::YoloV4, DeviceKind::Gtx1080, 10.0)
    }

    /// The workload's lossless identity.
    pub fn key(&self) -> WorkloadKey {
        WorkloadKey {
            model: self.model,
            device: self.device,
            rate_bits: self.request_rate_rps.to_bits(),
        }
    }
}

/// The axes of a sweep (used for marginal aggregation in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepAxis {
    /// Placement policy.
    Policy,
    /// Continent / `ZoneArea`.
    Area,
    /// Demand/capacity scenario.
    Scenario,
    /// Round-trip latency limit.
    LatencyLimit,
    /// Edge-site count cap.
    SiteLimit,
    /// Workload point.
    Workload,
    /// Trace seed (replication axis).
    Seed,
    /// Forecaster serving the decision intensity.
    Forecaster,
    /// Re-placement epoch schedule.
    Epoch,
    /// Per-move migration-cost calibration.
    Migration,
    /// Serving engine mode (aggregate vs event-level vs online re-place).
    Serving,
}

impl SweepAxis {
    /// All axes in the canonical enumeration order.
    pub const ALL: [SweepAxis; 11] = [
        SweepAxis::Area,
        SweepAxis::Scenario,
        SweepAxis::LatencyLimit,
        SweepAxis::SiteLimit,
        SweepAxis::Workload,
        SweepAxis::Seed,
        SweepAxis::Forecaster,
        SweepAxis::Epoch,
        SweepAxis::Migration,
        SweepAxis::Serving,
        SweepAxis::Policy,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::Policy => "policy",
            SweepAxis::Area => "area",
            SweepAxis::Scenario => "scenario",
            SweepAxis::LatencyLimit => "latency limit",
            SweepAxis::SiteLimit => "site limit",
            SweepAxis::Workload => "workload",
            SweepAxis::Seed => "seed",
            SweepAxis::Forecaster => "forecaster",
            SweepAxis::Epoch => "epoch",
            SweepAxis::Migration => "migration cost",
            SweepAxis::Serving => "serving mode",
        }
    }
}

/// One cell of the sweep grid: a fully resolved scenario coordinate.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the spec's canonical enumeration order.
    pub index: usize,
    /// Placement policy evaluated in this cell.
    pub policy: PlacementPolicy,
    /// Continent simulated.
    pub area: ZoneArea,
    /// Demand/capacity scenario.
    pub scenario: CdnScenario,
    /// Round-trip latency limit in ms.
    pub latency_limit_ms: f64,
    /// Cap on the number of edge sites (`None` = full catalog).
    pub site_limit: Option<usize>,
    /// Workload point.
    pub workload: WorkloadSpec,
    /// Trace seed (shared by every cell on the same seed-axis value, so the
    /// executor can cache generated traces).
    pub seed: u64,
    /// Forecaster serving the decision intensity at each epoch boundary.
    pub forecaster: ForecasterKind,
    /// Re-placement epoch schedule.
    pub epoch: EpochSchedule,
    /// Per-move migration-cost calibration.
    pub migration: MigrationCostLevel,
    /// Serving engine mode.
    pub serving: ServingMode,
    /// Applications per site per epoch (spec-wide deployment shape, not an
    /// axis — constant across cells, so it is excluded from `ScenarioKey`).
    pub apps_per_site: usize,
    /// Servers per site (spec-wide deployment shape, like `apps_per_site`).
    pub servers_per_site: usize,
    /// A unique per-cell seed derived deterministically from the spec's base
    /// seed and the cell coordinate — available for any per-cell randomness
    /// a backend needs without correlating cells.
    pub cell_seed: u64,
}

/// The scenario coordinate of a cell with the policy axis removed.  Cells
/// sharing a `ScenarioKey` differ only in policy, which is how reports pair
/// each policy's outcome with the Latency-aware baseline of the same
/// scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioKey {
    /// Continent.
    pub area: ZoneArea,
    /// Demand/capacity scenario.
    pub scenario: CdnScenario,
    /// Latency limit as raw bits (exact float identity, hashable).
    pub latency_bits: u64,
    /// Site cap.
    pub site_limit: Option<usize>,
    /// Workload identity.
    pub workload: WorkloadKey,
    /// Trace seed.
    pub seed: u64,
    /// Forecaster serving the decision intensity.
    pub forecaster: ForecasterKind,
    /// Re-placement epoch schedule.
    pub epoch: EpochSchedule,
    /// Per-move migration-cost calibration.
    pub migration: MigrationCostLevel,
    /// Serving engine mode.
    pub serving: ServingMode,
}

impl SweepCell {
    /// The CDN configuration this cell simulates.
    pub fn config(&self) -> CdnConfig {
        let mut config = CdnConfig::new(self.area)
            .with_latency_limit(self.latency_limit_ms)
            .with_scenario(self.scenario);
        if let Some(limit) = self.site_limit {
            config = config.with_site_limit(limit);
        }
        config.model = self.workload.model;
        config.device = self.workload.device;
        config.request_rate_rps = self.workload.request_rate_rps;
        config.seed = self.seed;
        config.forecaster = self.forecaster;
        config.epoch = self.epoch;
        config.migration = self.migration;
        config.serving = self.serving;
        config.apps_per_site = self.apps_per_site;
        config.servers_per_site = self.servers_per_site;
        config
    }

    /// The cell's scenario coordinate without the policy axis.
    pub fn scenario_key(&self) -> ScenarioKey {
        ScenarioKey {
            area: self.area,
            scenario: self.scenario,
            latency_bits: self.latency_limit_ms.to_bits(),
            site_limit: self.site_limit,
            workload: self.workload.key(),
            seed: self.seed,
            forecaster: self.forecaster,
            epoch: self.epoch,
            migration: self.migration,
            serving: self.serving,
        }
    }

    /// A compact human-readable label, used in report rows.  The latency
    /// limit uses `f64`'s shortest-roundtrip display, so distinct limits
    /// (e.g. 10.0 and 10.4) never collapse to the same label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}ms/{}/{}/s{}/{}/{}/{}/{}",
            area_name(self.area),
            self.scenario.name(),
            self.latency_limit_ms,
            match self.site_limit {
                Some(n) => format!("{n}sites"),
                None => "all-sites".to_string(),
            },
            self.workload.name,
            self.seed,
            self.forecaster.label(),
            self.epoch.name(),
            self.migration.label(),
            self.serving.label(),
        )
    }
}

/// Short display name for a `ZoneArea`.
pub fn area_name(area: ZoneArea) -> &'static str {
    match area {
        ZoneArea::UnitedStates => "US",
        ZoneArea::Europe => "EU",
        ZoneArea::RestOfWorld => "RoW",
    }
}

/// A declarative scenario matrix: the cartesian product of the configured
/// axis values, evaluated cell-by-cell by
/// [`SweepExecutor`](crate::SweepExecutor).
///
/// # Examples
///
/// Build a 3-axis grid (area × latency limit × policy) and enumerate it:
///
/// ```
/// use carbonedge_core::PlacementPolicy;
/// use carbonedge_datasets::zones::ZoneArea;
/// use carbonedge_sweep::SweepSpec;
///
/// let spec = SweepSpec::new("latency-tolerance")
///     .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
///     .with_latency_limits(vec![10.0, 20.0, 30.0])
///     .with_policies(vec![
///         PlacementPolicy::LatencyAware,
///         PlacementPolicy::CarbonAware,
///     ])
///     .with_site_limit(Some(40));
/// assert_eq!(spec.cell_count(), 2 * 3 * 2);
///
/// // Cells come out in a deterministic order with stable per-cell seeds.
/// let cells = spec.cells();
/// assert_eq!(cells.len(), 12);
/// assert_eq!(cells[0].index, 0);
/// assert_eq!(spec.cells()[5].cell_seed, cells[5].cell_seed);
/// ```
///
/// Adding a new axis value is purely declarative — no per-experiment loop to
/// rewrite:
///
/// ```
/// use carbonedge_sim::cdn::CdnScenario;
/// use carbonedge_sweep::SweepSpec;
///
/// let spec = SweepSpec::quick_default().with_scenarios(vec![
///     CdnScenario::Homogeneous,
///     CdnScenario::PopulationDemand,
///     CdnScenario::PopulationCapacity,
/// ]);
/// assert_eq!(spec.cell_count() % 3, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (reported in headers).
    pub name: String,
    /// Base seed mixed into every cell's `cell_seed`.
    pub base_seed: u64,
    /// Policy axis.
    pub policies: Vec<PlacementPolicy>,
    /// Continent axis.
    pub areas: Vec<ZoneArea>,
    /// Demand/capacity scenario axis.
    pub scenarios: Vec<CdnScenario>,
    /// Latency-limit axis (ms, round-trip).
    pub latency_limits_ms: Vec<f64>,
    /// Site-count axis (`None` = full catalog).
    pub site_limits: Vec<Option<usize>>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Trace-seed axis (replications).
    pub seeds: Vec<u64>,
    /// Forecaster axis (decision-intensity source).
    pub forecasters: Vec<ForecasterKind>,
    /// Epoch-schedule axis (re-placement granularity).
    pub epochs: Vec<EpochSchedule>,
    /// Migration-cost axis (per-move churn penalty calibration).
    pub migrations: Vec<MigrationCostLevel>,
    /// Serving-mode axis (aggregate pricing vs event-level serving vs the
    /// online drift-triggered re-placement engine).
    pub servings: Vec<ServingMode>,
    /// Applications arriving per site per epoch — a scalar deployment shape
    /// shared by every cell, not an axis.  Together with
    /// `servers_per_site` it sets the utilization pressure of the grid;
    /// saturated deployments are where forecast error actually flips
    /// placements.
    pub apps_per_site: usize,
    /// Servers per edge site (scalar deployment shape, like
    /// `apps_per_site`).
    pub servers_per_site: usize,
}

impl SweepSpec {
    /// A single-cell spec with the paper's default CDN setup, ready to be
    /// widened axis by axis.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            base_seed: 42,
            policies: vec![PlacementPolicy::LatencyAware, PlacementPolicy::CarbonAware],
            areas: vec![ZoneArea::UnitedStates],
            scenarios: vec![CdnScenario::Homogeneous],
            latency_limits_ms: vec![20.0],
            site_limits: vec![None],
            workloads: vec![WorkloadSpec::resnet50_on_a2()],
            seeds: vec![42],
            forecasters: vec![ForecasterKind::Oracle],
            epochs: vec![EpochSchedule::Monthly],
            migrations: vec![MigrationCostLevel::Free],
            servings: vec![ServingMode::Aggregate],
            apps_per_site: 1,
            servers_per_site: 4,
        }
    }

    /// The default quick grid used by `experiments --sweep --quick` and the
    /// smoke tests: both continents, three latency limits, all three
    /// demand/capacity scenarios, a 40-site cap.
    pub fn quick_default() -> Self {
        Self::new("quick-grid")
            .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
            .with_latency_limits(vec![10.0, 20.0, 30.0])
            .with_scenarios(vec![
                CdnScenario::Homogeneous,
                CdnScenario::PopulationDemand,
                CdnScenario::PopulationCapacity,
            ])
            .with_site_limit(Some(40))
    }

    /// Sets the policy axis.
    pub fn with_policies(mut self, policies: Vec<PlacementPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the continent axis.
    pub fn with_areas(mut self, areas: Vec<ZoneArea>) -> Self {
        self.areas = areas;
        self
    }

    /// Sets the demand/capacity scenario axis.
    pub fn with_scenarios(mut self, scenarios: Vec<CdnScenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Sets the latency-limit axis.
    pub fn with_latency_limits(mut self, limits_ms: Vec<f64>) -> Self {
        self.latency_limits_ms = limits_ms;
        self
    }

    /// Sets the site-count axis.
    pub fn with_site_limits(mut self, limits: Vec<Option<usize>>) -> Self {
        self.site_limits = limits;
        self
    }

    /// Convenience: a single site cap on every cell.
    pub fn with_site_limit(self, limit: Option<usize>) -> Self {
        self.with_site_limits(vec![limit])
    }

    /// Sets the workload axis.
    pub fn with_workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sets the trace-seed (replication) axis.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the forecaster axis.
    pub fn with_forecasters(mut self, forecasters: Vec<ForecasterKind>) -> Self {
        self.forecasters = forecasters;
        self
    }

    /// Sets the epoch-schedule axis.
    pub fn with_epochs(mut self, epochs: Vec<EpochSchedule>) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the migration-cost axis.
    pub fn with_migrations(mut self, migrations: Vec<MigrationCostLevel>) -> Self {
        self.migrations = migrations;
        self
    }

    /// Sets the serving-mode axis.
    pub fn with_servings(mut self, servings: Vec<ServingMode>) -> Self {
        self.servings = servings;
        self
    }

    /// Sets the deployment shape shared by every cell: applications
    /// arriving per site per epoch and servers per site.  The defaults
    /// (1 app, 4 servers) are the paper's lightly-loaded CDN; `(4, 1)`
    /// runs the fleet near 80% utilization, where forecast error has real
    /// consequences.
    pub fn with_demand(mut self, apps_per_site: usize, servers_per_site: usize) -> Self {
        self.apps_per_site = apps_per_site;
        self.servers_per_site = servers_per_site;
        self
    }

    /// Sets the base seed mixed into per-cell seeds.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.policies.len()
            * self.areas.len()
            * self.scenarios.len()
            * self.latency_limits_ms.len()
            * self.site_limits.len()
            * self.workloads.len()
            * self.seeds.len()
            * self.forecasters.len()
            * self.epochs.len()
            * self.migrations.len()
            * self.servings.len()
    }

    /// Number of axes with more than one value (the grid's dimensionality).
    pub fn axis_count(&self) -> usize {
        [
            self.policies.len(),
            self.areas.len(),
            self.scenarios.len(),
            self.latency_limits_ms.len(),
            self.site_limits.len(),
            self.workloads.len(),
            self.seeds.len(),
            self.forecasters.len(),
            self.epochs.len(),
            self.migrations.len(),
            self.servings.len(),
        ]
        .iter()
        .filter(|n| **n > 1)
        .count()
    }

    /// Checks that every axis has at least one value and that values are
    /// usable (finite positive latency limits, non-empty workload names).
    pub fn validate(&self) -> Result<(), String> {
        let axes: [(&str, usize); 11] = [
            ("policies", self.policies.len()),
            ("areas", self.areas.len()),
            ("scenarios", self.scenarios.len()),
            ("latency_limits_ms", self.latency_limits_ms.len()),
            ("site_limits", self.site_limits.len()),
            ("workloads", self.workloads.len()),
            ("seeds", self.seeds.len()),
            ("forecasters", self.forecasters.len()),
            ("epochs", self.epochs.len()),
            ("migrations", self.migrations.len()),
            ("servings", self.servings.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(format!("sweep axis `{name}` is empty"));
            }
        }
        for limit in &self.latency_limits_ms {
            if !limit.is_finite() || *limit <= 0.0 {
                return Err(format!(
                    "latency limit {limit} is not a positive finite value"
                ));
            }
        }
        if let Some(0) = self.site_limits.iter().flatten().min() {
            return Err("site limit 0 would simulate no sites".into());
        }
        if self.apps_per_site == 0 {
            return Err("apps_per_site 0 would simulate no demand".into());
        }
        if self.servers_per_site == 0 {
            return Err("servers_per_site 0 would simulate no capacity".into());
        }
        if self.workloads.iter().any(|w| w.name.is_empty()) {
            return Err("workload with empty name".into());
        }
        let mut names = std::collections::HashSet::new();
        for workload in &self.workloads {
            if !names.insert(workload.name.as_str()) {
                return Err(format!(
                    "two workloads share the display name `{}`; rename one",
                    workload.name
                ));
            }
        }
        // Reports pair and group policies by display name, so distinct
        // policies whose names collide (e.g. tradeoff alphas 0.301 and
        // 0.304 both print `CarbonEdge(α=0.30)`) would silently merge.
        let mut policy_names = std::collections::HashSet::new();
        for policy in &self.policies {
            if !policy_names.insert(policy.name()) {
                return Err(format!(
                    "two policies share the display name `{}`; \
                     pick values that render distinctly",
                    policy.name()
                ));
            }
        }
        // Duplicate values on any axis would produce cells sharing a
        // `ScenarioKey`, corrupting baseline pairing and marginal counts.
        Self::reject_duplicates("areas", self.areas.iter().map(|a| format!("{a:?}")))?;
        Self::reject_duplicates("scenarios", self.scenarios.iter().map(|s| format!("{s:?}")))?;
        Self::reject_duplicates(
            "latency_limits_ms",
            self.latency_limits_ms.iter().map(|l| l.to_bits()),
        )?;
        Self::reject_duplicates("site_limits", self.site_limits.iter())?;
        Self::reject_duplicates("workloads", self.workloads.iter().map(|w| w.key()))?;
        Self::reject_duplicates("seeds", self.seeds.iter())?;
        Self::reject_duplicates("forecasters", self.forecasters.iter())?;
        Self::reject_duplicates("epochs", self.epochs.iter())?;
        Self::reject_duplicates("migrations", self.migrations.iter())?;
        Self::reject_duplicates("servings", self.servings.iter())?;
        Ok(())
    }

    fn reject_duplicates<T: std::hash::Hash + Eq>(
        axis: &str,
        values: impl Iterator<Item = T>,
    ) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for value in values {
            if !seen.insert(value) {
                return Err(format!("sweep axis `{axis}` contains a duplicate value"));
            }
        }
        Ok(())
    }

    /// Enumerates the full grid in canonical order (area, scenario, latency
    /// limit, site limit, workload, seed, forecaster, epoch, migration,
    /// serving, policy — policy innermost so that a scenario's policy
    /// variants are adjacent).  Ordering and per-cell seeds depend only on
    /// the spec, never on execution.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for area in &self.areas {
            for scenario in &self.scenarios {
                for latency in &self.latency_limits_ms {
                    for site_limit in &self.site_limits {
                        for workload in &self.workloads {
                            for seed in &self.seeds {
                                for forecaster in &self.forecasters {
                                    for epoch in &self.epochs {
                                        for migration in &self.migrations {
                                            for serving in &self.servings {
                                                for policy in &self.policies {
                                                    let index = cells.len();
                                                    // Chained (not XOR-combined)
                                                    // mixing: an XOR of two
                                                    // splitmix outputs cancels
                                                    // whenever index == seed,
                                                    // which would correlate
                                                    // those cells' seeds.
                                                    let cell_seed = splitmix64(
                                                        splitmix64(self.base_seed ^ index as u64)
                                                            ^ *seed,
                                                    );
                                                    cells.push(SweepCell {
                                                        index,
                                                        policy: *policy,
                                                        area: *area,
                                                        scenario: *scenario,
                                                        latency_limit_ms: *latency,
                                                        site_limit: *site_limit,
                                                        workload: workload.clone(),
                                                        seed: *seed,
                                                        forecaster: *forecaster,
                                                        epoch: *epoch,
                                                        migration: *migration,
                                                        serving: *serving,
                                                        apps_per_site: self.apps_per_site,
                                                        servers_per_site: self.servers_per_site,
                                                        cell_seed,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_count_is_the_axis_product() {
        let spec = SweepSpec::new("t")
            .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
            .with_latency_limits(vec![10.0, 20.0, 30.0])
            .with_seeds(vec![1, 2]);
        assert_eq!(spec.cell_count(), 2 * 2 * 3 * 2);
        assert_eq!(spec.cells().len(), spec.cell_count());
    }

    #[test]
    fn enumeration_is_deterministic_and_policy_innermost() {
        let spec = SweepSpec::quick_default();
        let a = spec.cells();
        let b = spec.cells();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.cell_seed, y.cell_seed);
            assert_eq!(x.label(), y.label());
        }
        // Policy variants of one scenario are adjacent.
        assert_eq!(a[0].scenario_key(), a[1].scenario_key());
        assert_ne!(a[0].policy.name(), a[1].policy.name());
    }

    #[test]
    fn cell_seeds_are_unique_across_cells() {
        let spec = SweepSpec::quick_default();
        let cells = spec.cells();
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.cell_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }

    #[test]
    fn cell_seeds_stay_unique_when_index_equals_axis_seed() {
        // Regression: XOR-combining splitmix64(index) with splitmix64(seed)
        // cancelled whenever index == seed, giving those cells identical
        // cell_seeds (seeds [1, 2] put seed 1 at index 1 and seed 2 at
        // index 2 with the default two-policy axis).
        let spec = SweepSpec::new("t").with_seeds(vec![1, 2]);
        let cells = spec.cells();
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[2].seed, 2);
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.cell_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds collided");
    }

    #[test]
    fn base_seed_changes_cell_seeds_but_not_structure() {
        let a = SweepSpec::quick_default().cells();
        let b = SweepSpec::quick_default().with_base_seed(7).cells();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[3].label(), b[3].label());
        assert_ne!(a[3].cell_seed, b[3].cell_seed);
    }

    #[test]
    fn config_reflects_cell_coordinates() {
        let spec = SweepSpec::new("t")
            .with_latency_limits(vec![12.5])
            .with_site_limit(Some(17))
            .with_workloads(vec![WorkloadSpec::yolo_on_gtx1080()])
            .with_seeds(vec![99]);
        let cell = &spec.cells()[0];
        let config = cell.config();
        assert_eq!(config.latency_limit_ms, 12.5);
        assert_eq!(config.site_limit, Some(17));
        assert_eq!(config.model, ModelKind::YoloV4);
        assert_eq!(config.device, DeviceKind::Gtx1080);
        assert_eq!(config.seed, 99);
        // Defaults reproduce the legacy simulation configuration.
        assert_eq!(config.forecaster, ForecasterKind::Oracle);
        assert_eq!(config.epoch, EpochSchedule::Monthly);
    }

    #[test]
    fn forecaster_and_epoch_axes_widen_the_grid_and_reach_the_config() {
        let spec = SweepSpec::new("t")
            .with_forecasters(vec![
                ForecasterKind::Oracle,
                ForecasterKind::Persistence,
                ForecasterKind::moving_average_24h(),
            ])
            .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Weekly]);
        assert_eq!(spec.cell_count(), 2 * 3 * 2);
        assert_eq!(spec.axis_count(), 3);
        assert!(spec.validate().is_ok());
        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        // Policy stays innermost: adjacent cells share a scenario key.
        assert_eq!(cells[0].scenario_key(), cells[1].scenario_key());
        // The coordinate reaches the simulator configuration and the label.
        let weekly_persistence = cells
            .iter()
            .find(|c| {
                c.forecaster == ForecasterKind::Persistence && c.epoch == EpochSchedule::Weekly
            })
            .unwrap();
        let config = weekly_persistence.config();
        assert_eq!(config.forecaster, ForecasterKind::Persistence);
        assert_eq!(config.epoch, EpochSchedule::Weekly);
        assert!(weekly_persistence.label().contains("/persistence/weekly"));
        // Distinct coordinates keep distinct scenario keys and labels.
        let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.scenario_key()).collect();
        assert_eq!(keys.len(), 6, "one key per non-policy coordinate");
    }

    #[test]
    fn migration_axis_widens_the_grid_and_reaches_the_config() {
        let spec = SweepSpec::new("t")
            .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Daily])
            .with_migrations(MigrationCostLevel::ALL.to_vec());
        assert_eq!(spec.cell_count(), 2 * 2 * 3);
        assert_eq!(spec.axis_count(), 3);
        assert!(spec.validate().is_ok());
        let cells = spec.cells();
        // Policy stays innermost: adjacent cells share a scenario key.
        assert_eq!(cells[0].scenario_key(), cells[1].scenario_key());
        let heavy_daily = cells
            .iter()
            .find(|c| c.migration == MigrationCostLevel::Heavy && c.epoch == EpochSchedule::Daily)
            .unwrap();
        let config = heavy_daily.config();
        assert_eq!(config.migration, MigrationCostLevel::Heavy);
        assert!(heavy_daily.label().ends_with("/daily/mig-heavy/agg"));
        // Distinct levels keep distinct scenario keys.
        let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.scenario_key()).collect();
        assert_eq!(keys.len(), 6, "one key per non-policy coordinate");
        // The default reproduces the stateless legacy configuration.
        assert_eq!(
            SweepSpec::new("t").cells()[0].config().migration,
            MigrationCostLevel::Free
        );
        // Duplicates and empties are rejected like every other axis.
        assert!(SweepSpec::new("t")
            .with_migrations(vec![MigrationCostLevel::Paper, MigrationCostLevel::Paper])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_migrations(vec![])
            .validate()
            .is_err());
    }

    #[test]
    fn serving_axis_widens_the_grid_and_reaches_the_config() {
        let spec = SweepSpec::new("t").with_servings(ServingMode::ALL.to_vec());
        assert_eq!(spec.cell_count(), 2 * 3);
        assert_eq!(spec.axis_count(), 2);
        assert!(spec.validate().is_ok());
        let cells = spec.cells();
        // Policy stays innermost: adjacent cells share a scenario key.
        assert_eq!(cells[0].scenario_key(), cells[1].scenario_key());
        let online = cells
            .iter()
            .find(|c| c.serving == ServingMode::OnlineReplace)
            .unwrap();
        let config = online.config();
        assert_eq!(config.serving, ServingMode::OnlineReplace);
        assert!(online.label().ends_with("/mig-free/events-online"));
        // Distinct modes keep distinct scenario keys.
        let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.scenario_key()).collect();
        assert_eq!(keys.len(), 3, "one key per non-policy coordinate");
        // The default reproduces the aggregate legacy configuration.
        assert_eq!(
            SweepSpec::new("t").cells()[0].config().serving,
            ServingMode::Aggregate
        );
        // Duplicates and empties are rejected like every other axis.
        assert!(SweepSpec::new("t")
            .with_servings(vec![ServingMode::EventLevel, ServingMode::EventLevel])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_servings(vec![])
            .validate()
            .is_err());
    }

    #[test]
    fn demand_shape_reaches_the_config_and_is_validated() {
        let spec = SweepSpec::new("t").with_demand(4, 1);
        assert!(spec.validate().is_ok());
        let config = spec.cells()[0].config();
        assert_eq!(config.apps_per_site, 4);
        assert_eq!(config.servers_per_site, 1);
        // Defaults reproduce the paper's lightly-loaded CDN.
        let default_config = SweepSpec::new("t").cells()[0].config();
        assert_eq!(default_config.apps_per_site, 1);
        assert_eq!(default_config.servers_per_site, 4);
        assert!(SweepSpec::new("t").with_demand(0, 4).validate().is_err());
        assert!(SweepSpec::new("t").with_demand(1, 0).validate().is_err());
    }

    #[test]
    fn duplicate_forecasters_and_epochs_are_rejected() {
        assert!(SweepSpec::new("t")
            .with_forecasters(vec![ForecasterKind::Oracle, ForecasterKind::Oracle])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_epochs(vec![EpochSchedule::Daily, EpochSchedule::Daily])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_forecasters(vec![])
            .validate()
            .is_err());
        // Distinct moving-average windows are distinct axis values.
        assert!(SweepSpec::new("t")
            .with_forecasters(vec![
                ForecasterKind::MovingAverage { window_hours: 24 },
                ForecasterKind::MovingAverage { window_hours: 168 },
            ])
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(SweepSpec::quick_default().validate().is_ok());
        assert!(SweepSpec::new("t")
            .with_policies(vec![])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_latency_limits(vec![-5.0])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_latency_limits(vec![f64::NAN])
            .validate()
            .is_err());
        // Policies whose display names collide would merge in reports.
        assert!(SweepSpec::new("t")
            .with_policies(vec![
                PlacementPolicy::LatencyAware,
                PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.301 },
                PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.304 },
            ])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_policies(vec![
                PlacementPolicy::LatencyAware,
                PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.3 },
                PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.7 },
            ])
            .validate()
            .is_ok());
        // Duplicate axis values corrupt baseline pairing — rejected on every
        // axis, including floats compared by bits and workloads by identity.
        assert!(SweepSpec::new("t")
            .with_seeds(vec![42, 42])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_latency_limits(vec![10.0, 10.0])
            .validate()
            .is_err());
        assert!(SweepSpec::new("t")
            .with_workloads(vec![
                WorkloadSpec::resnet50_on_a2(),
                WorkloadSpec::resnet50_on_a2(),
            ])
            .validate()
            .is_err());
        let mut near_duplicate_names = SweepSpec::new("t").with_workloads(vec![
            WorkloadSpec::new(ModelKind::ResNet50, DeviceKind::A2, 15.0),
            WorkloadSpec::new(ModelKind::ResNet50, DeviceKind::A2, 15.3),
        ]);
        // Distinct workloads whose display names collide must be renamed.
        assert!(near_duplicate_names.validate().is_err());
        near_duplicate_names.workloads[1].name = "resnet50@a2r15.3".into();
        assert!(near_duplicate_names.validate().is_ok());
        assert!(SweepSpec::new("t")
            .with_site_limit(Some(0))
            .validate()
            .is_err());
    }

    #[test]
    fn axis_count_counts_widened_axes() {
        assert_eq!(SweepSpec::new("t").axis_count(), 1); // policies only
        assert_eq!(SweepSpec::quick_default().axis_count(), 4);
    }

    #[test]
    fn workload_presets_have_distinct_names() {
        let names: std::collections::HashSet<String> = [
            WorkloadSpec::resnet50_on_a2(),
            WorkloadSpec::efficientnet_on_orin(),
            WorkloadSpec::yolo_on_gtx1080(),
        ]
        .iter()
        .map(|w| w.name.clone())
        .collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn splitmix_mixes() {
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_eq!(splitmix64(42), splitmix64(42));
    }
}
