//! Telemetry: energy and carbon accounting.
//!
//! The prototype's telemetry service measures server power (RAPL/DCGM),
//! tracks carbon intensity, and derives carbon emissions from energy usage
//! and the intensity of the selected edge sites, accounting for base power
//! and per-application energy (Section 5.1).  This module is the simulation
//! equivalent: it accumulates per-server and per-application energy and
//! carbon over time.

use crate::server::{Server, ServerId};
use carbonedge_workload::AppId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Accumulated energy and carbon for one accounting entity.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CarbonAccount {
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total carbon emissions in grams of CO2-equivalent.
    pub carbon_g: f64,
}

impl CarbonAccount {
    /// Adds an energy amount at a given carbon intensity (g·CO2eq/kWh).
    pub fn add(&mut self, energy_j: f64, carbon_intensity: f64) {
        let energy_kwh = energy_j / 3.6e6;
        self.energy_j += energy_j;
        self.carbon_g += energy_kwh * carbon_intensity;
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &CarbonAccount) {
        self.energy_j += other.energy_j;
        self.carbon_g += other.carbon_g;
    }

    /// Energy in kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_j / 3.6e6
    }
}

/// Accumulates energy and carbon per server and per application.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    per_server: HashMap<ServerId, CarbonAccount>,
    per_app: HashMap<AppId, CarbonAccount>,
    total: CarbonAccount,
}

impl Telemetry {
    /// Creates an empty telemetry store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one epoch (of `hours` length) of operation for a server: its
    /// base energy is attributed to the server, and each hosted
    /// application's share of the dynamic energy is attributed to the
    /// application.  Carbon is computed at `intensity`, the carbon intensity
    /// of the server's zone (g·CO2eq/kWh), like
    /// [`record_app_energy`](Self::record_app_energy).
    pub fn record_epoch(
        &mut self,
        server: &Server,
        app_energy_j: &[(AppId, f64)],
        intensity: f64,
        hours: f64,
    ) {
        if server.power_state.is_on() {
            let base = server.spec.power.base_energy_j(hours);
            self.per_server
                .entry(server.spec.id)
                .or_default()
                .add(base, intensity);
            self.total.add(base, intensity);
        }
        for (app, energy) in app_energy_j {
            self.per_app
                .entry(*app)
                .or_default()
                .add(*energy, intensity);
            self.total.add(*energy, intensity);
        }
    }

    /// Records an arbitrary energy amount against an application at a given
    /// carbon intensity (used by the simulator's fast path).
    pub fn record_app_energy(&mut self, app: AppId, energy_j: f64, intensity: f64) {
        self.per_app
            .entry(app)
            .or_default()
            .add(energy_j, intensity);
        self.total.add(energy_j, intensity);
    }

    /// Account for one server.
    pub fn server(&self, id: ServerId) -> CarbonAccount {
        self.per_server.get(&id).copied().unwrap_or_default()
    }

    /// Account for one application.
    pub fn app(&self, id: AppId) -> CarbonAccount {
        self.per_app.get(&id).copied().unwrap_or_default()
    }

    /// Aggregate account over everything recorded.
    pub fn total(&self) -> CarbonAccount {
        self.total
    }

    /// Number of applications with recorded activity.
    pub fn tracked_apps(&self) -> usize {
        self.per_app.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerState;
    use crate::server::ServerSpec;
    use carbonedge_grid::ZoneId;
    use carbonedge_workload::DeviceKind;

    /// Zone intensities (g·CO2eq/kWh), indexed by zone.
    const INTENSITY: [f64; 2] = [360.0, 36.0];

    fn server(zone: usize) -> Server {
        Server::new_powered_on(ServerSpec::from_device(
            ServerId(zone),
            0,
            ZoneId(zone),
            DeviceKind::A2,
        ))
    }

    #[test]
    fn account_add_converts_joules_to_kwh() {
        let mut acc = CarbonAccount::default();
        // 3.6 MJ = 1 kWh at 500 g/kWh -> 500 g.
        acc.add(3.6e6, 500.0);
        assert!((acc.carbon_g - 500.0).abs() < 1e-9);
        assert!((acc.energy_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_epoch_accounts_base_and_app_energy() {
        let mut t = Telemetry::new();
        let s = server(0);
        t.record_epoch(&s, &[(AppId(1), 1.8e6)], INTENSITY[0], 1.0);
        // Base: 18 W * 3600 s = 64.8 kJ at 360 g/kWh = 6.48 g.
        let server_acc = t.server(ServerId(0));
        assert!((server_acc.energy_j - 64_800.0).abs() < 1.0);
        assert!((server_acc.carbon_g - 6.48).abs() < 0.01);
        // App: 1.8 MJ = 0.5 kWh at 360 -> 180 g.
        let app_acc = t.app(AppId(1));
        assert!((app_acc.carbon_g - 180.0).abs() < 0.01);
        // Total is the sum.
        let total = t.total();
        assert!((total.carbon_g - (server_acc.carbon_g + app_acc.carbon_g)).abs() < 1e-9);
    }

    #[test]
    fn off_server_contributes_no_base_energy() {
        let mut t = Telemetry::new();
        let mut s = server(0);
        s.power_state = PowerState::Off;
        t.record_epoch(&s, &[], INTENSITY[0], 1.0);
        assert_eq!(t.total().energy_j, 0.0);
    }

    #[test]
    fn greener_zone_emits_less_for_same_energy() {
        let mut t = Telemetry::new();
        t.record_epoch(&server(0), &[(AppId(0), 1.0e6)], INTENSITY[0], 0.0);
        t.record_epoch(&server(1), &[(AppId(1), 1.0e6)], INTENSITY[1], 0.0);
        assert!(t.app(AppId(1)).carbon_g < t.app(AppId(0)).carbon_g);
        assert!((t.app(AppId(0)).carbon_g / t.app(AppId(1)).carbon_g - 10.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_entities_have_empty_accounts() {
        let t = Telemetry::new();
        assert_eq!(t.server(ServerId(99)).energy_j, 0.0);
        assert_eq!(t.app(AppId(99)).carbon_g, 0.0);
        assert_eq!(t.tracked_apps(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CarbonAccount::default();
        a.add(1000.0, 100.0);
        let mut b = CarbonAccount::default();
        b.add(2000.0, 100.0);
        a.merge(&b);
        assert!((a.energy_j - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn record_app_energy_direct() {
        let mut t = Telemetry::new();
        t.record_app_energy(AppId(5), 3.6e6, 100.0);
        assert!((t.app(AppId(5)).carbon_g - 100.0).abs() < 1e-9);
        assert_eq!(t.tracked_apps(), 1);
    }
}
