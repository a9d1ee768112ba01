//! Edge applications and their resource demands.

use crate::profiles::{DeviceKind, ModelKind, WorkloadProfile};
use carbonedge_geo::Coordinates;

/// Identifier of an application within a placement batch or simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub usize);

impl AppId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A demand (or capacity) vector over the three resources of the
/// multi-dimensional capacity constraint (Eq. 1): compute, device memory,
/// and network bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceDemand {
    /// Compute demand as a fraction of one device (1.0 = a whole device).
    pub compute: f64,
    /// Memory demand in MB.
    pub memory_mb: f64,
    /// Bandwidth demand in Mbps.
    pub bandwidth_mbps: f64,
}

impl ResourceDemand {
    /// Creates a demand vector.
    pub fn new(compute: f64, memory_mb: f64, bandwidth_mbps: f64) -> Self {
        Self {
            compute,
            memory_mb,
            bandwidth_mbps,
        }
    }

    /// The components as `[compute, memory, bandwidth]`, the one order
    /// every resource vector of the placement solvers uses.
    pub fn to_array(&self) -> [f64; 3] {
        [self.compute, self.memory_mb, self.bandwidth_mbps]
    }
}

/// An edge application to be placed: its workload model, request rate,
/// latency SLO, and origin location (the user/IoT gateway it serves).
///
/// The per-server resource demand `R_ij` and energy `E_ij` of the paper's
/// formulation (Table 2) are *derived* from the application's model and rate
/// combined with the hosting server's device profile, via
/// [`Application::demand_on`] and [`Application::energy_on`].
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Application identifier.
    pub id: AppId,
    /// The workload model this application runs.
    pub model: ModelKind,
    /// Sustained request rate in requests per second.
    pub request_rate_rps: f64,
    /// Round-trip latency SLO in milliseconds (ℓ_i in the paper).
    pub latency_slo_ms: f64,
    /// Origin location of the application's users.
    pub origin: Coordinates,
    /// Index of the origin edge site (the CDN simulator's scenario prep
    /// sets it to the edge data center the application arrives at).
    pub origin_site: usize,
}

impl Application {
    /// Creates an application.
    pub fn new(
        id: AppId,
        model: ModelKind,
        request_rate_rps: f64,
        latency_slo_ms: f64,
        origin: Coordinates,
        origin_site: usize,
    ) -> Self {
        Self {
            id,
            model,
            request_rate_rps,
            latency_slo_ms,
            origin,
            origin_site,
        }
    }

    /// The profile of this application's model on a given device, if the
    /// model can run there.
    pub fn profile_on(&self, device: DeviceKind) -> Option<WorkloadProfile> {
        WorkloadProfile::lookup(self.model, device)
    }

    /// Resource demand of this application when hosted on `device`
    /// (R_ij in the paper), or `None` if the model cannot run on the device.
    pub fn demand_on(&self, device: DeviceKind) -> Option<ResourceDemand> {
        let profile = self.profile_on(device)?;
        let compute = profile.utilization(self.request_rate_rps);
        // Each request is assumed to carry ~0.5 Mbit of input data.
        let bandwidth = 0.5 * self.request_rate_rps;
        Some(ResourceDemand::new(compute, profile.memory_mb, bandwidth))
    }

    /// Energy consumed by this application per hour of operation on
    /// `device`, in joules (E_ij in the paper, for a 1-hour placement epoch).
    pub fn energy_on(&self, device: DeviceKind) -> Option<f64> {
        let profile = self.profile_on(device)?;
        Some(profile.energy_per_request_j * self.request_rate_rps * 3600.0)
    }

    /// Whether this application can run at all on the given device.
    pub fn can_run_on(&self, device: DeviceKind) -> bool {
        self.profile_on(device).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(model: ModelKind) -> Application {
        Application::new(
            AppId(0),
            model,
            20.0,
            20.0,
            Coordinates::new(25.76, -80.19),
            0,
        )
    }

    #[test]
    fn demand_reflects_profile() {
        let a = app(ModelKind::ResNet50);
        let d = a.demand_on(DeviceKind::A2).unwrap();
        let p = WorkloadProfile::lookup(ModelKind::ResNet50, DeviceKind::A2).unwrap();
        assert!((d.compute - p.utilization(20.0)).abs() < 1e-12);
        assert_eq!(d.memory_mb, p.memory_mb);
        assert!(d.bandwidth_mbps > 0.0);
    }

    #[test]
    fn demand_is_none_for_incompatible_device() {
        let a = app(ModelKind::SciCpu);
        assert!(a.demand_on(DeviceKind::A2).is_none());
        assert!(!a.can_run_on(DeviceKind::Gtx1080));
        assert!(a.can_run_on(DeviceKind::XeonCpu));
    }

    #[test]
    fn energy_scales_with_rate() {
        let mut a = app(ModelKind::YoloV4);
        let e20 = a.energy_on(DeviceKind::Gtx1080).unwrap();
        a.request_rate_rps = 40.0;
        let e40 = a.energy_on(DeviceKind::Gtx1080).unwrap();
        assert!((e40 / e20 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_device_has_lower_compute_demand() {
        let a = app(ModelKind::ResNet50);
        let on_nano = a.demand_on(DeviceKind::OrinNano).unwrap();
        let on_1080 = a.demand_on(DeviceKind::Gtx1080).unwrap();
        assert!(on_1080.compute < on_nano.compute);
    }

    #[test]
    fn to_array_orders_compute_memory_bandwidth() {
        let d = ResourceDemand::new(0.3, 64.0, 7.0);
        assert_eq!(d.to_array(), [0.3, 64.0, 7.0]);
    }
}
