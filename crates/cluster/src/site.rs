//! Edge sites: a group of servers at one location in one carbon zone.

use crate::server::{Server, ServerSpec};
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;
use carbonedge_workload::DeviceKind;

/// Identifier of an edge site (data center location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

impl SiteId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// An edge data center: a named location inside one carbon zone hosting a
/// set of servers.  In the CDN-scale experiments each Akamai location maps
/// to one `EdgeSite` (multiple data centers in the same city are merged,
/// mirroring the paper's trace-integration step).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSite {
    /// Site identifier.
    pub id: SiteId,
    /// Human-readable name (usually the city).
    pub name: String,
    /// Geographic location.
    pub location: Coordinates,
    /// The carbon zone whose grid powers the site.
    pub zone: ZoneId,
    /// Servers installed at this site.
    pub servers: Vec<Server>,
    /// Relative population weight of the site's metro area (used by the
    /// demand/capacity skew experiments of Figure 14).
    pub population_weight: f64,
}

impl EdgeSite {
    /// Creates an empty site.
    pub fn new(id: SiteId, name: impl Into<String>, location: Coordinates, zone: ZoneId) -> Self {
        Self {
            id,
            name: name.into(),
            location,
            zone,
            servers: Vec::new(),
            population_weight: 1.0,
        }
    }

    /// Sets the population weight.
    pub fn with_population_weight(mut self, weight: f64) -> Self {
        self.population_weight = weight.max(0.0);
        self
    }

    /// Adds `count` servers of the given device type, numbered after the
    /// existing servers, using the supplied global id offset.  Returns the
    /// ids of the new servers.
    pub fn add_servers(
        &mut self,
        device: DeviceKind,
        count: usize,
        next_global_id: usize,
    ) -> Vec<usize> {
        let mut ids = Vec::with_capacity(count);
        for k in 0..count {
            let gid = next_global_id + k;
            let spec = ServerSpec::from_device(
                crate::server::ServerId(gid),
                self.id.index(),
                self.zone,
                device,
            );
            self.servers.push(Server::new_powered_on(spec));
            ids.push(gid);
        }
        ids
    }

    /// Total compute capacity across the site's servers.
    pub fn total_compute(&self) -> f64 {
        self.servers.iter().map(|s| s.spec.capacity.compute).sum()
    }

    /// Total residual compute capacity.
    pub fn available_compute(&self) -> f64 {
        self.servers.iter().map(|s| s.available.compute).sum()
    }

    /// Number of hosted applications across all servers.
    pub fn hosted_count(&self) -> usize {
        self.servers.iter().map(|s| s.hosted_count()).sum()
    }

    /// Instantaneous site power draw in watts.
    pub fn power_w(&self) -> f64 {
        self.servers.iter().map(|s| s.power_w()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbonedge_workload::{AppId, Application, ModelKind};

    fn site() -> EdgeSite {
        let mut s = EdgeSite::new(
            SiteId(0),
            "Miami",
            Coordinates::new(25.76, -80.19),
            ZoneId(3),
        );
        s.add_servers(DeviceKind::A2, 2, 0);
        s
    }

    #[test]
    fn add_servers_assigns_sequential_ids() {
        let mut s = EdgeSite::new(
            SiteId(1),
            "Tampa",
            Coordinates::new(27.95, -82.45),
            ZoneId(1),
        );
        let ids = s.add_servers(DeviceKind::Gtx1080, 3, 10);
        assert_eq!(ids, vec![10, 11, 12]);
        assert_eq!(s.servers.len(), 3);
        assert!(s.servers.iter().all(|srv| srv.spec.site == 1));
        assert!(s.servers.iter().all(|srv| srv.spec.zone == ZoneId(1)));
    }

    #[test]
    fn capacity_aggregates_over_servers() {
        let s = site();
        assert!((s.total_compute() - 2.0).abs() < 1e-12);
        assert!((s.available_compute() - 2.0).abs() < 1e-12);
        assert_eq!(s.hosted_count(), 0);
    }

    #[test]
    fn hosting_reduces_available_compute() {
        let mut s = site();
        let app = Application::new(
            AppId(0),
            ModelKind::ResNet50,
            10.0,
            20.0,
            Coordinates::new(25.0, -80.0),
            0,
        );
        assert!(s.servers[0].place(&app).is_some());
        assert!(s.available_compute() < s.total_compute());
        assert_eq!(s.hosted_count(), 1);
    }

    #[test]
    fn site_power_is_sum_of_server_power() {
        let s = site();
        let expected: f64 = s.servers.iter().map(|srv| srv.power_w()).sum();
        assert!((s.power_w() - expected).abs() < 1e-12);
        // Powered-on idle A2 servers draw their base power.
        assert!(s.power_w() >= 2.0 * DeviceKind::A2.base_power_w() - 1e-9);
    }

    #[test]
    fn population_weight_clamped_nonnegative() {
        let s = EdgeSite::new(SiteId(0), "X", Coordinates::new(0.0, 0.0), ZoneId(0))
            .with_population_weight(-5.0);
        assert_eq!(s.population_weight, 0.0);
    }
}
