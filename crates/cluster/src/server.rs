//! Edge servers: specifications and mutable runtime state.

use crate::power::{PowerModel, PowerState};
use carbonedge_grid::ZoneId;
use carbonedge_workload::{AppId, Application, DeviceKind, ResourceDemand};

/// Identifier of a server within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

impl ServerId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Static description of an edge server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Server identifier.
    pub id: ServerId,
    /// The edge site (data center) this server belongs to.
    pub site: usize,
    /// The carbon zone whose grid powers this server.
    pub zone: ZoneId,
    /// The accelerator/CPU type installed.
    pub device: DeviceKind,
    /// Total resource capacity of the server.
    pub capacity: ResourceDemand,
    /// The server's power model.
    pub power: PowerModel,
}

impl ServerSpec {
    /// Creates a server spec with capacity and power derived from the device
    /// type: one full device of compute, the device's memory, 1 Gbps of
    /// bandwidth, and the device's base/max power (matching the testbed
    /// hardware of Section 6.1.2).
    pub fn from_device(id: ServerId, site: usize, zone: ZoneId, device: DeviceKind) -> Self {
        Self {
            id,
            site,
            zone,
            device,
            capacity: ResourceDemand::new(device.compute_slots(), device.memory_mb(), 1000.0),
            power: PowerModel::new(device.base_power_w(), device.max_power_w()),
        }
    }

    /// Overrides the capacity vector.
    pub fn with_capacity(mut self, capacity: ResourceDemand) -> Self {
        self.capacity = capacity;
        self
    }
}

/// A server with its mutable runtime state: power state, residual capacity,
/// and the applications currently hosted.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Static specification.
    pub spec: ServerSpec,
    /// Current power state.
    pub power_state: PowerState,
    /// Capacity still available for new applications.
    pub available: ResourceDemand,
    /// Applications currently placed on this server, with their demands.
    pub hosted: Vec<(AppId, ResourceDemand)>,
}

impl Server {
    /// Creates a powered-off server with full capacity available.
    pub fn new(spec: ServerSpec) -> Self {
        let available = spec.capacity;
        Self {
            spec,
            power_state: PowerState::Off,
            available,
            hosted: Vec::new(),
        }
    }

    /// Creates a powered-on server with full capacity available.
    pub fn new_powered_on(spec: ServerSpec) -> Self {
        let mut s = Self::new(spec);
        s.power_state = PowerState::On;
        s
    }

    /// Whether the application could be placed here right now: the device
    /// must be able to run the model and the demand must fit the residual
    /// capacity.
    pub fn can_host(&self, app: &Application) -> bool {
        match app.demand_on(self.spec.device) {
            Some(demand) => demand.fits_within(&self.available),
            None => false,
        }
    }

    /// Places an application on this server, powering it on if necessary.
    ///
    /// Returns the resource demand that was reserved, or `None` if the
    /// application cannot be hosted (incompatible device or insufficient
    /// capacity); in that case the server is left unchanged.
    pub fn place(&mut self, app: &Application) -> Option<ResourceDemand> {
        let demand = app.demand_on(self.spec.device)?;
        if !demand.fits_within(&self.available) {
            return None;
        }
        self.power_state = PowerState::On;
        self.available = self.available.minus_clamped(&demand);
        self.hosted.push((app.id, demand));
        Some(demand)
    }

    /// Removes an application, releasing its resources.  Returns true if the
    /// application was hosted here.
    pub fn remove(&mut self, app: AppId) -> bool {
        if let Some(pos) = self.hosted.iter().position(|(id, _)| *id == app) {
            let (_, demand) = self.hosted.remove(pos);
            self.available = self.available.plus(&demand);
            true
        } else {
            false
        }
    }

    /// Utilization of the server's compute dimension in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let cap = self.spec.capacity.compute;
        if cap <= 0.0 {
            return 0.0;
        }
        ((cap - self.available.compute) / cap).clamp(0.0, 1.0)
    }

    /// Number of hosted applications.
    pub fn hosted_count(&self) -> usize {
        self.hosted.len()
    }

    /// Instantaneous power draw in watts.
    pub fn power_w(&self) -> f64 {
        self.spec
            .power
            .power_w(self.power_state, self.utilization())
    }

    /// Powers the server off.  Fails (returns false) if applications are
    /// still hosted, matching the paper's power-state-consistency constraint
    /// that active servers cannot be turned off during placement.
    pub fn power_off(&mut self) -> bool {
        if !self.hosted.is_empty() {
            return false;
        }
        self.power_state = PowerState::Off;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbonedge_geo::Coordinates;
    use carbonedge_workload::ModelKind;

    fn spec() -> ServerSpec {
        ServerSpec::from_device(ServerId(0), 0, ZoneId(0), DeviceKind::A2)
    }

    fn app(id: usize, rate: f64) -> Application {
        Application::new(
            AppId(id),
            ModelKind::ResNet50,
            rate,
            20.0,
            Coordinates::new(25.0, -80.0),
            0,
        )
    }

    #[test]
    fn new_server_is_off_with_full_capacity() {
        let s = Server::new(spec());
        assert_eq!(s.power_state, PowerState::Off);
        assert_eq!(s.available, s.spec.capacity);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.power_w(), 0.0);
    }

    #[test]
    fn placing_powers_on_and_reserves_capacity() {
        let mut s = Server::new(spec());
        let a = app(1, 10.0);
        let demand = s.place(&a).unwrap();
        assert!(s.power_state.is_on());
        assert!(s.available.compute < s.spec.capacity.compute);
        assert_eq!(s.hosted_count(), 1);
        assert!(demand.compute > 0.0);
        assert!(s.power_w() >= s.spec.power.base_power_w);
    }

    #[test]
    fn incompatible_model_cannot_be_hosted() {
        let s = Server::new(spec());
        let cpu_app = Application::new(
            AppId(9),
            ModelKind::SciCpu,
            1.0,
            20.0,
            Coordinates::new(0.0, 0.0),
            0,
        );
        assert!(!s.can_host(&cpu_app));
    }

    #[test]
    fn capacity_exhaustion_rejects_placement() {
        let mut s = Server::new(spec());
        // Saturate compute: ResNet50 on A2 takes 13 ms per request, so
        // ~77 rps saturates a device.  Place apps until one fails.
        let mut placed = 0;
        for i in 0..100 {
            if s.place(&app(i, 20.0)).is_some() {
                placed += 1;
            } else {
                break;
            }
        }
        assert!((1..100).contains(&placed), "placed {placed}");
        assert!(!s.can_host(&app(999, 20.0)));
    }

    #[test]
    fn remove_releases_capacity() {
        let mut s = Server::new(spec());
        let a = app(1, 10.0);
        s.place(&a).unwrap();
        let before = s.available;
        assert!(s.remove(AppId(1)));
        assert!(s.available.compute > before.compute);
        assert!((s.available.compute - s.spec.capacity.compute).abs() < 1e-9);
        assert!(!s.remove(AppId(1)));
    }

    #[test]
    fn power_off_requires_empty_server() {
        let mut s = Server::new_powered_on(spec());
        let a = app(1, 10.0);
        s.place(&a).unwrap();
        assert!(!s.power_off());
        s.remove(AppId(1));
        assert!(s.power_off());
        assert_eq!(s.power_state, PowerState::Off);
    }

    #[test]
    fn utilization_tracks_load() {
        let mut s = Server::new(spec());
        assert_eq!(s.utilization(), 0.0);
        s.place(&app(1, 30.0)).unwrap();
        let u1 = s.utilization();
        s.place(&app(2, 30.0)).unwrap();
        let u2 = s.utilization();
        assert!(u2 > u1 && u2 <= 1.0);
    }

    #[test]
    fn spec_from_device_uses_device_characteristics() {
        let s = ServerSpec::from_device(ServerId(3), 1, ZoneId(2), DeviceKind::Gtx1080);
        assert_eq!(s.capacity.memory_mb, DeviceKind::Gtx1080.memory_mb());
        assert_eq!(s.power.base_power_w, DeviceKind::Gtx1080.base_power_w());
        assert_eq!(s.power.max_power_w, DeviceKind::Gtx1080.max_power_w());
        assert_eq!(s.site, 1);
        assert_eq!(s.zone, ZoneId(2));
    }

    #[test]
    fn with_capacity_overrides() {
        let s = spec().with_capacity(ResourceDemand::new(4.0, 1.0, 1.0));
        assert_eq!(s.capacity.compute, 4.0);
    }
}
