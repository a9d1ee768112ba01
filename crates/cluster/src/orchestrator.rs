//! The edge orchestrator: commits placement decisions onto the cluster.
//!
//! In the prototype, placement decisions are executed through Sinfonia's
//! deployment sequence (Kubernetes deployment files and helm charts) and
//! the client is informed of the destination address (Section 5.1).  The
//! simulator keeps the same decision process: the orchestrator owns the
//! cluster state (sites and servers), applies placement decisions, powers
//! servers on, and reports a deployment outcome including the modeled
//! deployment delay.

use crate::server::{Server, ServerId};
use crate::site::EdgeSite;
use carbonedge_workload::{AppId, Application};
use std::collections::HashMap;

/// The result of deploying one application.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentOutcome {
    /// The application that was deployed.
    pub app: AppId,
    /// The server it landed on.
    pub server: ServerId,
    /// The site of that server.
    pub site: usize,
    /// Whether the server had to be newly powered on for this deployment.
    pub activated_server: bool,
    /// Modeled deployment initiation latency in seconds (the paper reports
    /// ~1.01 s for Sinfonia's RECIPE deployment sequence, Section 6.5).
    pub deploy_latency_s: f64,
}

/// Owns the edge cluster state and applies placement decisions.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    sites: Vec<EdgeSite>,
    /// Map from global server id to (site index, index within site).
    server_index: HashMap<ServerId, (usize, usize)>,
    /// Where each deployed application currently runs.
    placements: HashMap<AppId, ServerId>,
    /// Modeled deployment latency per application (seconds).
    pub deploy_latency_s: f64,
}

impl Orchestrator {
    /// Creates an orchestrator over a set of edge sites.
    pub fn new(sites: Vec<EdgeSite>) -> Self {
        let mut server_index = HashMap::new();
        for (si, site) in sites.iter().enumerate() {
            for (ki, server) in site.servers.iter().enumerate() {
                server_index.insert(server.spec.id, (si, ki));
            }
        }
        Self {
            sites,
            server_index,
            placements: HashMap::new(),
            deploy_latency_s: 1.01,
        }
    }

    /// The managed sites.
    pub fn sites(&self) -> &[EdgeSite] {
        &self.sites
    }

    /// Total number of servers across all sites.
    pub fn server_count(&self) -> usize {
        self.server_index.len()
    }

    /// Immutable view of a server by id.
    pub fn server(&self, id: ServerId) -> Option<&Server> {
        let (si, ki) = *self.server_index.get(&id)?;
        Some(&self.sites[si].servers[ki])
    }

    /// Iterates over all servers in id-registration order grouped by site.
    pub fn servers(&self) -> impl Iterator<Item = &Server> {
        self.sites.iter().flat_map(|s| s.servers.iter())
    }

    /// Where an application currently runs, if deployed.
    pub fn placement_of(&self, app: AppId) -> Option<ServerId> {
        self.placements.get(&app).copied()
    }

    /// Number of deployed applications.
    pub fn deployed_count(&self) -> usize {
        self.placements.len()
    }

    /// Deploys an application onto a specific server (the decision made by
    /// the placement service).  Fails if the server does not exist, cannot
    /// host the application, or the application is already deployed.
    pub fn deploy(
        &mut self,
        app: &Application,
        server: ServerId,
    ) -> Result<DeploymentOutcome, String> {
        if self.placements.contains_key(&app.id) {
            return Err(format!("application {:?} is already deployed", app.id));
        }
        let (si, ki) = *self
            .server_index
            .get(&server)
            .ok_or_else(|| format!("unknown server {server:?}"))?;
        let srv = &mut self.sites[si].servers[ki];
        let was_on = srv.power_state.is_on();
        match srv.place(app) {
            Some(_) => {
                self.placements.insert(app.id, server);
                Ok(DeploymentOutcome {
                    app: app.id,
                    server,
                    site: si,
                    activated_server: !was_on,
                    deploy_latency_s: self.deploy_latency_s,
                })
            }
            None => Err(format!(
                "server {:?} cannot host application {:?}",
                server, app.id
            )),
        }
    }

    /// Undeploys an application, releasing its resources.
    pub fn undeploy(&mut self, app: AppId) -> bool {
        let Some(server) = self.placements.remove(&app) else {
            return false;
        };
        let (si, ki) = self.server_index[&server];
        self.sites[si].servers[ki].remove(app)
    }

    /// Powers off every server that hosts no applications.  Returns the
    /// number of servers turned off.  (The paper's formulation never powers
    /// off active servers; idle consolidation between batches is allowed.)
    pub fn power_off_idle(&mut self) -> usize {
        let mut count = 0;
        for site in &mut self.sites {
            for server in &mut site.servers {
                if server.power_state.is_on() && server.hosted.is_empty() && server.power_off() {
                    count += 1;
                }
            }
        }
        count
    }

    /// Total instantaneous power draw of the cluster in watts.
    pub fn total_power_w(&self) -> f64 {
        self.sites.iter().map(|s| s.power_w()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteId;
    use carbonedge_geo::Coordinates;
    use carbonedge_grid::ZoneId;
    use carbonedge_workload::{DeviceKind, ModelKind};

    fn two_site_cluster() -> Orchestrator {
        let mut s0 = EdgeSite::new(
            SiteId(0),
            "Miami",
            Coordinates::new(25.76, -80.19),
            ZoneId(0),
        );
        s0.add_servers(DeviceKind::A2, 1, 0);
        let mut s1 = EdgeSite::new(
            SiteId(1),
            "Tampa",
            Coordinates::new(27.95, -82.45),
            ZoneId(1),
        );
        s1.add_servers(DeviceKind::Gtx1080, 1, 1);
        Orchestrator::new(vec![s0, s1])
    }

    fn app(id: usize) -> Application {
        Application::new(
            AppId(id),
            ModelKind::ResNet50,
            10.0,
            20.0,
            Coordinates::new(25.0, -80.0),
            0,
        )
    }

    #[test]
    fn deploy_places_and_tracks() {
        let mut orch = two_site_cluster();
        let a = app(0);
        let outcome = orch.deploy(&a, ServerId(1)).unwrap();
        assert_eq!(outcome.site, 1);
        assert_eq!(orch.placement_of(AppId(0)), Some(ServerId(1)));
        assert_eq!(orch.deployed_count(), 1);
        assert_eq!(orch.server(ServerId(1)).unwrap().hosted_count(), 1);
    }

    #[test]
    fn double_deploy_is_rejected() {
        let mut orch = two_site_cluster();
        let a = app(0);
        orch.deploy(&a, ServerId(0)).unwrap();
        assert!(orch.deploy(&a, ServerId(1)).is_err());
    }

    #[test]
    fn unknown_server_is_rejected() {
        let mut orch = two_site_cluster();
        assert!(orch.deploy(&app(0), ServerId(99)).is_err());
    }

    #[test]
    fn incompatible_app_is_rejected_and_state_untouched() {
        let mut orch = two_site_cluster();
        let cpu_app = Application::new(
            AppId(7),
            ModelKind::SciCpu,
            1.0,
            20.0,
            Coordinates::new(0.0, 0.0),
            0,
        );
        assert!(orch.deploy(&cpu_app, ServerId(0)).is_err());
        assert_eq!(orch.deployed_count(), 0);
        assert_eq!(orch.server(ServerId(0)).unwrap().hosted_count(), 0);
    }

    #[test]
    fn undeploy_releases() {
        let mut orch = two_site_cluster();
        orch.deploy(&app(0), ServerId(0)).unwrap();
        assert!(orch.undeploy(AppId(0)));
        assert_eq!(orch.deployed_count(), 0);
        assert_eq!(orch.server(ServerId(0)).unwrap().hosted_count(), 0);
        assert!(!orch.undeploy(AppId(0)));
    }

    #[test]
    fn power_off_idle_only_affects_empty_servers() {
        let mut orch = two_site_cluster();
        orch.deploy(&app(0), ServerId(0)).unwrap();
        let turned_off = orch.power_off_idle();
        assert_eq!(turned_off, 1);
        assert!(orch.server(ServerId(0)).unwrap().power_state.is_on());
        assert!(!orch.server(ServerId(1)).unwrap().power_state.is_on());
    }

    #[test]
    fn activation_flag_reflects_prior_power_state() {
        let mut orch = two_site_cluster();
        orch.power_off_idle();
        let outcome = orch.deploy(&app(0), ServerId(0)).unwrap();
        assert!(outcome.activated_server);
        let outcome2 = orch.deploy(&app(1), ServerId(0)).unwrap();
        assert!(!outcome2.activated_server);
    }

    #[test]
    fn total_power_reflects_active_servers() {
        let mut orch = two_site_cluster();
        let before = orch.total_power_w();
        assert!(before > 0.0);
        orch.power_off_idle();
        assert_eq!(orch.total_power_w(), 0.0);
    }

    #[test]
    fn server_count_and_iteration() {
        let orch = two_site_cluster();
        assert_eq!(orch.server_count(), 2);
        assert_eq!(orch.servers().count(), 2);
    }
}
