//! The carbon-aware placement problem (Table 2, Eqs. 1–6), plus the
//! stateful extension: an incumbent assignment with per-application
//! migration costs, so re-placement decisions weigh forecast carbon savings
//! against the churn of actually moving a service between edge sites.

use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;
use carbonedge_net::LatencyModel;
use carbonedge_solver::CandidatePairs;
use carbonedge_workload::{Application, DeviceKind, ModelKind, ResourceDemand, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A snapshot of one edge server at placement time: everything the placement
/// service needs to know about it (Table 2 inputs `C_j^k`, `Ī_j`, `B_j`,
/// `y_j^curr`), decoupled from the live cluster state so the optimizer can
/// run against the simulator, the prototype, or a synthetic scenario alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSnapshot {
    /// Global server id.
    pub id: usize,
    /// Edge site (data center) index the server belongs to.
    pub site: usize,
    /// Carbon zone powering the server.
    pub zone: ZoneId,
    /// Device type installed.
    pub device: DeviceKind,
    /// Server location (its site's location).
    pub location: Coordinates,
    /// Remaining resource capacity `C_j^k`.
    pub available: ResourceDemand,
    /// Base power when on, in watts (`B_j`).
    pub base_power_w: f64,
    /// Whether the server is currently powered on (`y_j^curr`).
    pub powered_on: bool,
    /// Average forecast carbon intensity `Ī_j` in g·CO2eq/kWh.
    pub carbon_intensity: f64,
}

impl ServerSnapshot {
    /// Creates a powered-on snapshot with full device capacity and the
    /// device's base power; carbon intensity defaults to 400 g·CO2eq/kWh
    /// until overridden.
    pub fn new(
        id: usize,
        site: usize,
        zone: ZoneId,
        device: DeviceKind,
        location: Coordinates,
    ) -> Self {
        Self {
            id,
            site,
            zone,
            device,
            location,
            available: ResourceDemand::new(device.compute_slots(), device.memory_mb(), 1000.0),
            base_power_w: device.base_power_w(),
            powered_on: true,
            carbon_intensity: 400.0,
        }
    }

    /// Sets the forecast carbon intensity `Ī_j`.
    pub fn with_carbon_intensity(mut self, intensity: f64) -> Self {
        self.carbon_intensity = intensity.max(0.0);
        self
    }

    /// Sets the available capacity.
    pub fn with_available(mut self, available: ResourceDemand) -> Self {
        self.available = available;
        self
    }

    /// Sets the current power state.
    pub fn with_powered_on(mut self, on: bool) -> Self {
        self.powered_on = on;
        self
    }
}

/// The carbon cost of moving one application off its incumbent server:
/// transferring its state (dominated by the model image) across the WAN,
/// plus a downtime penalty for the restart window.  Both are in grams
/// CO2-equivalent so they are directly commensurate with the operational
/// carbon objective (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationCost {
    /// Carbon of transferring the application's data between sites, grams.
    pub data_transfer_g: f64,
    /// Carbon-equivalent penalty of the migration downtime window, grams.
    pub downtime_g: f64,
}

impl MigrationCost {
    /// A zero-cost migration (the stateless legacy behavior).
    pub fn free() -> Self {
        Self::default()
    }

    /// Creates a migration cost from its components, clamped non-negative.
    pub fn new(data_transfer_g: f64, downtime_g: f64) -> Self {
        Self {
            data_transfer_g: data_transfer_g.max(0.0),
            downtime_g: downtime_g.max(0.0),
        }
    }

    /// Total carbon charged per move, grams.
    pub fn total_g(&self) -> f64 {
        self.data_transfer_g + self.downtime_g
    }

    /// Whether moving is free (total cost exactly zero).
    pub fn is_free(&self) -> bool {
        self.total_g() == 0.0
    }
}

/// WAN transfer energy per gigabyte moved between edge sites, kWh/GB (a
/// commonly cited wired-network figure; see the "Calibrating a migration
/// cost" recipe in the README).
pub const TRANSFER_KWH_PER_GB: f64 = 0.06;
/// Grid intensity used to price migration energy, g CO2eq/kWh (a world
/// average — migration traffic crosses zones, so no single zone's intensity
/// applies).
pub const MIGRATION_GRID_G_PER_KWH: f64 = 475.0;
/// Downtime window of one migration, seconds (drain + image load + warmup).
pub const MIGRATION_DOWNTIME_S: f64 = 30.0;

/// Calibration presets for per-application migration costs, used by the
/// simulator and as a sweep axis.  `Free` reproduces the stateless legacy
/// behavior bit for bit; `Paper` derives the cost from the workload's model
/// size and device (the profiling data of Figure 7); `Heavy` scales the
/// paper calibration 25×, the regime where churn dominates mesoscale
/// savings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationCostLevel {
    /// Moves cost nothing (the stateless legacy behavior).
    Free,
    /// Paper-calibrated: model-image transfer + a 30 s downtime window.
    Paper,
    /// 25× the paper calibration: churn-dominated placement.
    Heavy,
}

impl MigrationCostLevel {
    /// All levels in increasing cost order.
    pub const ALL: [MigrationCostLevel; 3] = [
        MigrationCostLevel::Free,
        MigrationCostLevel::Paper,
        MigrationCostLevel::Heavy,
    ];

    /// Display label used in reports and cell labels.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationCostLevel::Free => "mig-free",
            MigrationCostLevel::Paper => "mig-paper",
            MigrationCostLevel::Heavy => "mig-heavy",
        }
    }

    /// The multiplier applied to the paper calibration.
    pub fn factor(&self) -> f64 {
        match self {
            MigrationCostLevel::Free => 0.0,
            MigrationCostLevel::Paper => 1.0,
            MigrationCostLevel::Heavy => 25.0,
        }
    }

    /// The migration cost of one application serving `model` on `device` at
    /// this level.  The data-transfer term prices moving the model image
    /// (the profiled memory footprint) across the WAN; the downtime term
    /// prices the device's base power over the restart window.  Unprofiled
    /// combinations fall back to a nominal 512 MB image.
    pub fn cost_for(&self, model: ModelKind, device: DeviceKind) -> MigrationCost {
        if *self == MigrationCostLevel::Free {
            return MigrationCost::free();
        }
        let image_mb = WorkloadProfile::lookup(model, device)
            .map(|p| p.memory_mb)
            .unwrap_or(512.0);
        let transfer_g =
            image_mb / 1024.0 * TRANSFER_KWH_PER_GB * MIGRATION_GRID_G_PER_KWH * self.factor();
        let downtime_g = device.base_power_w() * MIGRATION_DOWNTIME_S / 3.6e6
            * MIGRATION_GRID_G_PER_KWH
            * self.factor();
        MigrationCost::new(transfer_g, downtime_g)
    }
}

/// The incumbent state a stateful placement carries from the previous epoch:
/// where each application currently runs and what moving it would cost.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlacementState {
    /// `previous[i]`: server index currently hosting application `i`
    /// (`None` for a new arrival).
    pub previous: Vec<Option<usize>>,
    /// `migration[i]`: the cost of moving application `i` off its incumbent
    /// server.  Must be the same length as `previous`.
    pub migration: Vec<MigrationCost>,
}

impl PlacementState {
    /// Creates a state; panics if the vectors disagree in length.
    pub fn new(previous: Vec<Option<usize>>, migration: Vec<MigrationCost>) -> Self {
        assert_eq!(
            previous.len(),
            migration.len(),
            "placement state vectors must align per application"
        );
        Self {
            previous,
            migration,
        }
    }

    /// A state where every incumbent moves for free (useful to track churn
    /// without influencing decisions).
    pub fn free(previous: Vec<Option<usize>>) -> Self {
        let migration = vec![MigrationCost::free(); previous.len()];
        Self {
            previous,
            migration,
        }
    }

    /// Whether every migration cost is exactly zero, in which case the
    /// stateful problem optimizes to the same decisions as the stateless one.
    pub fn is_free(&self) -> bool {
        self.migration.iter().all(|m| m.is_free())
    }

    /// Total migration carbon of an assignment against this state: the sum
    /// of `migration[i].total_g()` over applications placed on a different
    /// server than their incumbent, or torn down (evicted) entirely.
    pub fn migration_carbon_g(&self, assignment: &[Option<usize>]) -> f64 {
        let mut total = 0.0;
        for (i, prev) in self.previous.iter().enumerate() {
            let Some(prev) = prev else { continue };
            match assignment.get(i).copied().flatten() {
                Some(next) if next == *prev => {}
                _ => total += self.migration[i].total_g(),
            }
        }
        total
    }

    /// Number of applications placed both before and in `assignment`, on
    /// different servers.  An entry missing on either side counts as
    /// unplaced, so assignments of different lengths compare without
    /// panicking.
    pub fn moves(&self, assignment: &[Option<usize>]) -> usize {
        self.previous
            .iter()
            .zip(assignment)
            .filter(|(before, after)| matches!((before, after), (Some(a), Some(b)) if a != b))
            .count()
    }
}

/// Precomputed pair round-trip latencies for problems whose applications
/// and servers originate from a small set of distinct locations (e.g. edge
/// sites hosting several servers each): `rtt_ms[app_class × server_class]`
/// holds the matrix, and the class vectors map each application/server to
/// its location class.
///
/// The cached values must be produced by the *same*
/// [`LatencyModel::round_trip_ms`] call the uncached
/// [`PlacementProblem::latency_ms`] would make, so every downstream
/// comparison (latency feasibility, policy costs, mean latency) is
/// bit-identical with and without the cache — the property the sweep's
/// cached-versus-cold differential test pins.
///
/// The matrix is shared, not owned: caches over different deployments on
/// the same locations (say, every demand scenario of one set of edge
/// sites) hold one matrix.
#[derive(Debug, Clone)]
pub struct PairLatencyCache {
    app_class: Vec<u32>,
    server_class: Vec<u32>,
    rtt_ms: Arc<[f64]>,
    server_classes: usize,
}

impl PairLatencyCache {
    /// Creates a cache; panics if the matrix shape is inconsistent with the
    /// class vectors.
    pub fn new(
        app_class: Vec<u32>,
        server_class: Vec<u32>,
        rtt_ms: Arc<[f64]>,
        server_classes: usize,
    ) -> Self {
        let app_classes = app_class.iter().map(|c| *c as usize + 1).max().unwrap_or(0);
        assert!(
            server_class.iter().all(|c| (*c as usize) < server_classes),
            "server class out of range"
        );
        assert!(
            rtt_ms.len() >= app_classes * server_classes,
            "latency matrix too small for the class vectors"
        );
        Self {
            app_class,
            server_class,
            rtt_ms,
            server_classes,
        }
    }

    /// The cached round-trip latency of an `(app, server)` pair, ms.
    #[inline]
    pub fn rtt_ms(&self, app: usize, server: usize) -> f64 {
        self.rtt_ms[self.app_class[app] as usize * self.server_classes
            + self.server_class[server] as usize]
    }

    /// Whether the cache covers the given problem shape.
    pub fn covers(&self, apps: usize, servers: usize) -> bool {
        self.app_class.len() == apps && self.server_class.len() == servers
    }
}

/// The part of a [`PlacementProblem`] that stays fixed while a deployment is
/// decided again and again: each application's latency- and
/// hardware-feasible servers, ascending, with each pair's resource demand
/// and the per-server `(app, slot)` index ([`CandidatePairs`]), plus what
/// pricing reads per pair: the application's energy per hour on the
/// server's device and the pair's round-trip latency.
///
/// It reads the applications, the servers' devices and locations, and the
/// latency model or cache, and nothing else: server intensities, capacities
/// and power states, `epoch_hours` and the incumbent `state` may change
/// between decisions on one skeleton, and each decision prices its pairs
/// afresh.  [`crate::IncrementalPlacer`] keeps the skeleton of the
/// deployment it decided last and reuses it for the next problem whose
/// inputs that the skeleton reads are bit-identical, so a caller that
/// decides one deployment again and again builds it once.
#[derive(Debug, Clone)]
pub struct PlacementSkeleton {
    pairs: CandidatePairs,
    /// Per pair: the application's energy per hour on the server's device,
    /// joules.
    energy_per_hour_j: Vec<f64>,
    /// Per pair: the round-trip latency, ms.
    latency_ms: Vec<f64>,
    /// Applications with a negative or non-finite energy or resource demand
    /// on some compatible device, ascending.
    invalid_apps: Vec<usize>,
}

impl PlacementSkeleton {
    /// Builds the skeleton of `problem` in one pass.  Per application, the
    /// energy and demand are read once per run of consecutive servers with
    /// the same device (an incompatible device skips the run), and each
    /// server of the run is kept when its latency meets the SLO, the tests
    /// of [`PlacementProblem::is_feasible_pair`].
    ///
    /// Without a latency cache every latency is a geodesic computation that
    /// depends on the application only through its origin, so consecutive
    /// applications with a bit-identical origin (several applications per
    /// edge site) compute each server's latency once.
    pub fn new(problem: &PlacementProblem) -> Self {
        let servers = &problem.servers;
        let mut runs = Vec::new();
        let mut run_start = 0;
        for j in 1..=servers.len() {
            if j == servers.len() || servers[j].device != servers[run_start].device {
                runs.push(run_start..j);
                run_start = j;
            }
        }

        let mut row_start = Vec::with_capacity(problem.apps.len() + 1);
        row_start.push(0);
        let mut server = Vec::new();
        let mut demand = Vec::new();
        let mut energy_per_hour_j = Vec::new();
        let mut latency_ms = Vec::new();
        let mut invalid_apps = Vec::new();
        // Latencies from `row_origin` (NaN: not computed yet).
        let mut row = vec![f64::NAN; servers.len()];
        let mut row_origin = None;
        for (i, app) in problem.apps.iter().enumerate() {
            let origin = (app.origin.lat.to_bits(), app.origin.lon.to_bits());
            if problem.latency_cache.is_some() || row_origin != Some(origin) {
                row.fill(f64::NAN);
                row_origin = Some(origin);
            }
            let mut valid = true;
            for run in &runs {
                let device = servers[run.start].device;
                let (Some(per_hour), Some(need)) = (app.energy_on(device), app.demand_on(device))
                else {
                    continue;
                };
                let need = need.to_array();
                valid &= std::iter::once(per_hour)
                    .chain(need)
                    .all(|v| v.is_finite() && v >= 0.0);
                for j in run.clone() {
                    if row[j].is_nan() {
                        row[j] = problem.latency_ms(i, j);
                    }
                    let latency = row[j];
                    // NaN latencies and SLOs fail this test, as in
                    // `PlacementProblem::is_feasible_pair`.
                    let within_slo = latency <= app.latency_slo_ms + 1e-9;
                    if !within_slo {
                        continue;
                    }
                    server.push(j);
                    demand.push(need);
                    energy_per_hour_j.push(per_hour);
                    latency_ms.push(latency);
                }
            }
            if !valid {
                invalid_apps.push(i);
            }
            row_start.push(server.len());
        }
        let pairs = CandidatePairs::new(servers.len(), row_start, server, demand)
            .expect("rows ascend within the server range by construction");
        Self {
            pairs,
            energy_per_hour_j,
            latency_ms,
            invalid_apps,
        }
    }

    /// The feasible pairs.
    pub fn pairs(&self) -> &CandidatePairs {
        &self.pairs
    }

    /// Per pair: the application's energy per hour on the server's device,
    /// joules.
    pub(crate) fn energy_per_hour_j(&self) -> &[f64] {
        &self.energy_per_hour_j
    }

    /// Per pair: the round-trip latency, ms.
    pub(crate) fn latency_ms(&self) -> &[f64] {
        &self.latency_ms
    }

    /// Applications with a negative or non-finite energy or resource demand
    /// on some compatible device, ascending.
    pub(crate) fn invalid_apps(&self) -> &[usize] {
        &self.invalid_apps
    }

    /// Heap bytes the skeleton holds.
    pub fn bytes(&self) -> usize {
        self.pairs.bytes()
            + (self.energy_per_hour_j.len() + self.latency_ms.len()) * std::mem::size_of::<f64>()
            + self.invalid_apps.len() * std::mem::size_of::<usize>()
    }
}

/// One instance of the incremental placement problem: a batch of arriving
/// applications, the current server states, and the epoch length over which
/// operational energy is accounted.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// Server snapshots `S`.
    pub servers: Vec<ServerSnapshot>,
    /// Arriving applications `A`.
    pub apps: Vec<Application>,
    /// Placement epoch length in hours (energy `E_ij` is accounted over one
    /// epoch; the prototype batches deployments every few minutes, the
    /// simulator uses one hour).
    pub epoch_hours: f64,
    /// Latency model used to compute `L_ij` between an application's origin
    /// and a candidate server.
    pub latency_model: LatencyModel,
    /// Incumbent assignment and migration costs from the previous epoch;
    /// `None` for a stateless (first-decision) problem.
    pub state: Option<PlacementState>,
    /// Optional precomputed pair latencies (see [`PairLatencyCache`]);
    /// `None` computes every lookup from the latency model.
    pub latency_cache: Option<Arc<PairLatencyCache>>,
}

impl PlacementProblem {
    /// Creates a problem with the default latency model.
    pub fn new(servers: Vec<ServerSnapshot>, apps: Vec<Application>, epoch_hours: f64) -> Self {
        Self {
            servers,
            apps,
            epoch_hours: epoch_hours.max(1e-6),
            latency_model: LatencyModel::default(),
            state: None,
            latency_cache: None,
        }
    }

    /// Overrides the latency model.
    pub fn with_latency_model(mut self, model: LatencyModel) -> Self {
        self.latency_model = model;
        self
    }

    /// Attaches a precomputed pair-latency cache. The cache must have been
    /// built from this problem's latency model and app/server locations; a
    /// cache whose shape does not cover the problem is ignored.
    pub fn with_latency_cache(mut self, cache: Arc<PairLatencyCache>) -> Self {
        if cache.covers(self.apps.len(), self.servers.len()) {
            self.latency_cache = Some(cache);
        }
        self
    }

    /// Attaches the incumbent state from the previous epoch, making this a
    /// stateful (delta) placement problem.
    pub fn with_state(mut self, state: PlacementState) -> Self {
        self.state = Some(state);
        self
    }

    /// Migration carbon of an assignment against the attached state, grams
    /// (zero for stateless problems).
    pub fn migration_carbon_g(&self, assignment: &[Option<usize>]) -> f64 {
        self.state
            .as_ref()
            .map_or(0.0, |s| s.migration_carbon_g(assignment))
    }

    /// Round-trip latency `L_ij` between application `i` and server `j`, ms.
    pub fn latency_ms(&self, app: usize, server: usize) -> f64 {
        if let Some(cache) = &self.latency_cache {
            return cache.rtt_ms(app, server);
        }
        self.latency_model
            .round_trip_ms(self.apps[app].origin, self.servers[server].location)
    }

    /// Whether the `(app, server)` pair satisfies the latency constraint
    /// (Eq. 2) and hardware compatibility.
    pub fn is_feasible_pair(&self, app: usize, server: usize) -> bool {
        let a = &self.apps[app];
        let s = &self.servers[server];
        a.can_run_on(s.device) && self.latency_ms(app, server) <= a.latency_slo_ms + 1e-9
    }

    /// Resource demand `R_ij` of application `i` on server `j`, when the
    /// pair is hardware-compatible.
    pub fn demand(&self, app: usize, server: usize) -> Option<ResourceDemand> {
        self.apps[app].demand_on(self.servers[server].device)
    }

    /// Operational energy `E_ij` of application `i` on server `j` over one
    /// placement epoch, in joules.
    pub fn energy_j(&self, app: usize, server: usize) -> Option<f64> {
        self.apps[app]
            .energy_on(self.servers[server].device)
            .map(|per_hour| per_hour * self.epoch_hours)
    }

    /// Operational carbon of application `i` on server `j` over one epoch,
    /// in grams CO2-equivalent (the first term of Eq. 6 for one pair).
    pub fn operational_carbon_g(&self, app: usize, server: usize) -> Option<f64> {
        let energy = self.energy_j(app, server)?;
        Some(energy / 3.6e6 * self.servers[server].carbon_intensity)
    }

    /// Activation energy of server `j` over one epoch (its base power for
    /// the epoch), in joules.
    pub fn activation_energy_j(&self, server: usize) -> f64 {
        self.servers[server].base_power_w * self.epoch_hours * 3600.0
    }

    /// Activation carbon of server `j` (the second term of Eq. 6 for one
    /// newly-activated server), in grams.
    pub fn activation_carbon_g(&self, server: usize) -> f64 {
        self.activation_energy_j(server) / 3.6e6 * self.servers[server].carbon_intensity
    }

    /// Total carbon (Eq. 6) of a full assignment: operational carbon of every
    /// placed application plus activation carbon of every newly powered-on
    /// server.  Returns `None` if any assignment refers to an infeasible
    /// pair, places an application outside the batch or names a server
    /// outside the problem.
    pub fn total_carbon_g(&self, assignment: &[Option<usize>]) -> Option<f64> {
        self.assignment_total(
            assignment,
            |i, j| self.operational_carbon_g(i, j),
            |j| self.activation_carbon_g(j),
        )
    }

    /// Total energy of a full assignment in joules (operational energy of
    /// placed applications plus base energy of newly activated servers).
    /// Returns `None` in the cases [`Self::total_carbon_g`] does.
    pub fn total_energy_j(&self, assignment: &[Option<usize>]) -> Option<f64> {
        self.assignment_total(
            assignment,
            |i, j| self.energy_j(i, j),
            |j| self.activation_energy_j(j),
        )
    }

    /// `pair(i, j)` summed over the placed entries of `assignment`, in
    /// order, then `activation(j)` over the servers it newly powers on.
    fn assignment_total(
        &self,
        assignment: &[Option<usize>],
        pair: impl Fn(usize, usize) -> Option<f64>,
        activation: impl Fn(usize) -> f64,
    ) -> Option<f64> {
        let mut total = 0.0;
        let mut newly_on = vec![false; self.servers.len()];
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = *a else { continue };
            if i >= self.apps.len() || j >= self.servers.len() {
                return None;
            }
            total += pair(i, j)?;
            if !self.servers[j].powered_on {
                newly_on[j] = true;
            }
        }
        for (j, on) in newly_on.iter().enumerate() {
            if *on {
                total += activation(j);
            }
        }
        Some(total)
    }

    /// Mean round-trip latency of the placed applications, in ms (`0.0`
    /// when none is placed).  Returns `None` when a placed entry's
    /// application is outside the batch or its server outside the problem.
    pub fn mean_latency_ms(&self, assignment: &[Option<usize>]) -> Option<f64> {
        let placed: Vec<f64> = assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|j| (i, j)))
            .map(|(i, j)| {
                (i < self.apps.len() && j < self.servers.len()).then(|| self.latency_ms(i, j))
            })
            .collect::<Option<_>>()?;
        Some(if placed.is_empty() {
            0.0
        } else {
            placed.iter().sum::<f64>() / placed.len() as f64
        })
    }

    /// Number of applications and servers.
    pub fn size(&self) -> (usize, usize) {
        (self.apps.len(), self.servers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbonedge_workload::{AppId, ModelKind};

    fn servers() -> Vec<ServerSnapshot> {
        vec![
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::A2,
                Coordinates::new(48.14, 11.58),
            )
            .with_carbon_intensity(500.0),
            ServerSnapshot::new(
                1,
                1,
                ZoneId(1),
                DeviceKind::A2,
                Coordinates::new(46.95, 7.45),
            )
            .with_carbon_intensity(50.0)
            .with_powered_on(false),
        ]
    }

    fn app(slo_ms: f64) -> Application {
        Application::new(
            AppId(0),
            ModelKind::ResNet50,
            20.0,
            slo_ms,
            Coordinates::new(48.14, 11.58),
            0,
        )
    }

    #[test]
    fn latency_feasibility_follows_slo() {
        // Munich -> Bern is ~335 km, ~8-12 ms RTT in the deterministic model.
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0)
            .with_latency_model(LatencyModel::deterministic());
        assert!(p.is_feasible_pair(0, 0));
        assert!(p.is_feasible_pair(0, 1));
        let tight = PlacementProblem::new(servers(), vec![app(3.0)], 1.0)
            .with_latency_model(LatencyModel::deterministic());
        assert!(tight.is_feasible_pair(0, 0));
        assert!(!tight.is_feasible_pair(0, 1));
    }

    #[test]
    fn incompatible_hardware_is_infeasible() {
        let cpu_app = Application::new(
            AppId(0),
            ModelKind::SciCpu,
            1.0,
            100.0,
            Coordinates::new(48.0, 11.0),
            0,
        );
        let p = PlacementProblem::new(servers(), vec![cpu_app], 1.0);
        assert!(!p.is_feasible_pair(0, 0));
        assert!(p.demand(0, 0).is_none());
        assert!(p.energy_j(0, 0).is_none());
    }

    #[test]
    fn operational_carbon_scales_with_intensity() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        let dirty = p.operational_carbon_g(0, 0).unwrap();
        let green = p.operational_carbon_g(0, 1).unwrap();
        assert!(
            (dirty / green - 10.0).abs() < 1e-6,
            "ratio {}",
            dirty / green
        );
    }

    #[test]
    fn operational_carbon_scales_with_epoch() {
        let p1 = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        let p2 = PlacementProblem::new(servers(), vec![app(30.0)], 2.0);
        assert!(
            (p2.operational_carbon_g(0, 0).unwrap() / p1.operational_carbon_g(0, 0).unwrap() - 2.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn total_carbon_includes_activation_only_for_newly_on_servers() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        // Placing on server 0 (already on): no activation term.
        let on_dirty = p.total_carbon_g(&[Some(0)]).unwrap();
        assert!((on_dirty - p.operational_carbon_g(0, 0).unwrap()).abs() < 1e-9);
        // Placing on server 1 (currently off): activation term added.
        let on_green = p.total_carbon_g(&[Some(1)]).unwrap();
        let expected = p.operational_carbon_g(0, 1).unwrap() + p.activation_carbon_g(1);
        assert!((on_green - expected).abs() < 1e-9);
    }

    #[test]
    fn totals_of_an_assignment_outside_the_problem_are_none() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        for outside in [&[Some(99)][..], &[Some(0), Some(0)], &[None, Some(1)]] {
            assert_eq!(p.total_carbon_g(outside), None, "{outside:?}");
            assert_eq!(p.total_energy_j(outside), None, "{outside:?}");
            assert_eq!(p.mean_latency_ms(outside), None, "{outside:?}");
        }
        // An unplaced entry past the batch places nothing.
        assert_eq!(
            p.total_carbon_g(&[Some(0), None]),
            p.total_carbon_g(&[Some(0)])
        );
    }

    #[test]
    fn unplaced_apps_contribute_nothing() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        assert_eq!(p.total_carbon_g(&[None]).unwrap(), 0.0);
        assert_eq!(p.total_energy_j(&[None]).unwrap(), 0.0);
        assert_eq!(p.mean_latency_ms(&[None]), Some(0.0));
    }

    #[test]
    fn total_energy_accounts_activation() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        let e = p.total_energy_j(&[Some(1)]).unwrap();
        let expected = p.energy_j(0, 1).unwrap() + p.activation_energy_j(1);
        assert!((e - expected).abs() < 1e-6);
    }

    #[test]
    fn mean_latency_of_local_placement_is_small() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0)
            .with_latency_model(LatencyModel::deterministic());
        assert!(p.mean_latency_ms(&[Some(0)]).is_some_and(|ms| ms < 1.0));
        assert!(p.mean_latency_ms(&[Some(1)]).is_some_and(|ms| ms > 3.0));
    }

    #[test]
    fn skeleton_rows_match_the_pair_tests_when_apps_share_an_origin() {
        // Default-model latencies; apps 0-2 share Munich (SciCpu runs on the
        // Xeon only, so app 1 reads a row app 0 left partly empty), app 3
        // starts in Bern and app 4 returns to Munich.
        let mut servers = servers();
        servers.push(ServerSnapshot::new(
            2,
            2,
            ZoneId(2),
            DeviceKind::XeonCpu,
            Coordinates::new(47.37, 8.54),
        ));
        let munich = Coordinates::new(48.14, 11.58);
        let bern = Coordinates::new(46.95, 7.45);
        let apps: Vec<Application> = [
            (ModelKind::ResNet50, munich, 30.0),
            (ModelKind::SciCpu, munich, 30.0),
            (ModelKind::YoloV4, munich, 9.0),
            (ModelKind::ResNet50, bern, 30.0),
            (ModelKind::EfficientNetB0, munich, 30.0),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (model, origin, slo))| Application::new(AppId(i), model, 20.0, slo, origin, 0))
        .collect();
        let p = PlacementProblem::new(servers, apps, 1.0);
        let skeleton = PlacementSkeleton::new(&p);
        let pairs = skeleton.pairs();
        for i in 0..p.apps.len() {
            let feasible: Vec<usize> = (0..3).filter(|&j| p.is_feasible_pair(i, j)).collect();
            let row = pairs.row(i);
            assert_eq!(
                &pairs.servers()[row.clone()],
                feasible.as_slice(),
                "app {i}"
            );
            for (&j, latency) in feasible.iter().zip(&skeleton.latency_ms()[row]) {
                assert_eq!(
                    latency.to_bits(),
                    p.latency_ms(i, j).to_bits(),
                    "app {i}, server {j}"
                );
            }
        }
        assert_eq!(pairs.row(1).len(), 1);
        assert!(pairs.row(2).len() < pairs.row(0).len());
    }

    #[test]
    fn size_reports_dimensions() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        assert_eq!(p.size(), (1, 2));
    }

    #[test]
    fn migration_cost_levels_scale_and_order() {
        let free = MigrationCostLevel::Free.cost_for(ModelKind::ResNet50, DeviceKind::A2);
        assert!(free.is_free());
        assert_eq!(free.total_g(), 0.0);
        let paper = MigrationCostLevel::Paper.cost_for(ModelKind::ResNet50, DeviceKind::A2);
        assert!(paper.data_transfer_g > 0.0 && paper.downtime_g > 0.0);
        // ResNet50 on A2 is a 350 MB image: ~9.7 g of transfer carbon.
        assert!(
            paper.data_transfer_g > 5.0 && paper.data_transfer_g < 15.0,
            "transfer {}",
            paper.data_transfer_g
        );
        let heavy = MigrationCostLevel::Heavy.cost_for(ModelKind::ResNet50, DeviceKind::A2);
        assert!((heavy.total_g() / paper.total_g() - 25.0).abs() < 1e-9);
        // Bigger model images cost more to move.
        let yolo = MigrationCostLevel::Paper.cost_for(ModelKind::YoloV4, DeviceKind::A2);
        assert!(yolo.data_transfer_g > paper.data_transfer_g);
        // Unprofiled combinations fall back to the nominal image size.
        let fallback = MigrationCostLevel::Paper.cost_for(ModelKind::SciCpu, DeviceKind::A2);
        assert!(fallback.data_transfer_g > 0.0);
        assert_eq!(MigrationCostLevel::Free.label(), "mig-free");
        assert_eq!(MigrationCostLevel::ALL.len(), 3);
    }

    #[test]
    fn migration_cost_clamps_negative_components() {
        let cost = MigrationCost::new(-1.0, 2.0);
        assert_eq!(cost.data_transfer_g, 0.0);
        assert_eq!(cost.total_g(), 2.0);
    }

    #[test]
    fn placement_state_charges_moves_and_evictions_only() {
        let per_app = MigrationCost::new(3.0, 1.0);
        let state = PlacementState::new(vec![Some(0), Some(1), None], vec![per_app; 3]);
        assert!(!state.is_free());
        // App 0 stays, app 1 moves, app 2 arrives: one move charged.
        assert_eq!(
            state.migration_carbon_g(&[Some(0), Some(2), Some(1)]),
            per_app.total_g()
        );
        // An eviction tears the incumbent down: also charged.
        assert_eq!(
            state.migration_carbon_g(&[Some(0), None, None]),
            per_app.total_g()
        );
        // Everything in place: free.
        assert_eq!(state.migration_carbon_g(&[Some(0), Some(1), None]), 0.0);
        // Free states charge nothing no matter what moves.
        let free = PlacementState::free(vec![Some(0), Some(1), None]);
        assert!(free.is_free());
        assert_eq!(free.migration_carbon_g(&[Some(2), Some(2), Some(2)]), 0.0);
    }

    #[test]
    fn moves_count_apps_placed_on_both_sides_only() {
        // App 0 stays, app 1 moves, app 2 is evicted, app 3 arrives.
        let state = PlacementState::free(vec![Some(0), Some(1), Some(2), None, None]);
        assert_eq!(state.moves(&[Some(0), Some(3), None, Some(4), None]), 1);
    }

    #[test]
    fn identical_assignments_have_no_moves() {
        let a = vec![Some(2), None, Some(5)];
        assert_eq!(PlacementState::free(a.clone()).moves(&a), 0);
    }

    #[test]
    fn moves_treat_missing_entries_as_unplaced() {
        // New arrivals extend the batch; a shrunk batch drops the tail.
        assert_eq!(
            PlacementState::free(vec![Some(1)]).moves(&[Some(1), Some(2)]),
            0
        );
        assert_eq!(
            PlacementState::free(vec![Some(1), Some(2)]).moves(&[Some(1)]),
            0
        );
    }

    #[test]
    fn empty_assignments_have_no_moves() {
        assert_eq!(PlacementState::default().moves(&[]), 0);
    }

    #[test]
    #[should_panic]
    fn placement_state_rejects_misaligned_vectors() {
        PlacementState::new(vec![Some(0)], vec![]);
    }

    #[test]
    fn problem_migration_carbon_defaults_to_zero_without_state() {
        let p = PlacementProblem::new(servers(), vec![app(30.0)], 1.0);
        assert_eq!(p.migration_carbon_g(&[Some(1)]), 0.0);
        let stateful = p.with_state(PlacementState::new(
            vec![Some(0)],
            vec![MigrationCost::new(5.0, 0.0)],
        ));
        assert_eq!(stateful.migration_carbon_g(&[Some(1)]), 5.0);
        assert_eq!(stateful.migration_carbon_g(&[Some(0)]), 0.0);
    }

    #[test]
    fn snapshot_builders_clamp_and_set() {
        let s = ServerSnapshot::new(
            0,
            0,
            ZoneId(0),
            DeviceKind::OrinNano,
            Coordinates::new(0.0, 0.0),
        )
        .with_carbon_intensity(-5.0)
        .with_powered_on(false)
        .with_available(ResourceDemand::new(0.5, 100.0, 10.0));
        assert_eq!(s.carbon_intensity, 0.0);
        assert!(!s.powered_on);
        assert_eq!(s.available.compute, 0.5);
        assert_eq!(s.base_power_w, DeviceKind::OrinNano.base_power_w());
    }
}
