//! Server power states and power models.

/// Power state of an edge server (the `y_j` decision of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Server is powered on and can host applications.
    On,
    /// Server is powered off; it consumes no power and hosts nothing.
    Off,
}

impl PowerState {
    /// Whether the server is on.
    pub fn is_on(&self) -> bool {
        matches!(self, PowerState::On)
    }

    /// As a 0/1 indicator (matching the MILP variable `y_j`).
    pub fn as_indicator(&self) -> f64 {
        if self.is_on() {
            1.0
        } else {
            0.0
        }
    }
}

/// A linear power model: `P(u) = base + (max - base) * u` for utilization
/// `u ∈ [0, 1]` while powered on, and 0 while powered off.
///
/// The paper's formulation separates the *base power* `B_j` (paid whenever a
/// server is activated) from the per-application energy `E_ij`; this model
/// provides both pieces, and the dynamic part is also used by the telemetry
/// service when measuring application energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle power draw when on, in watts (B_j when expressed per hour).
    pub base_power_w: f64,
    /// Power draw at 100% utilization, in watts.
    pub max_power_w: f64,
}

impl PowerModel {
    /// Creates a power model; `max_power_w` is clamped to at least
    /// `base_power_w`.
    pub fn new(base_power_w: f64, max_power_w: f64) -> Self {
        Self {
            base_power_w: base_power_w.max(0.0),
            max_power_w: max_power_w.max(base_power_w.max(0.0)),
        }
    }

    /// Instantaneous power draw at a given utilization (clamped to [0, 1]),
    /// for a given power state.
    pub fn power_w(&self, state: PowerState, utilization: f64) -> f64 {
        if !state.is_on() {
            return 0.0;
        }
        let u = utilization.clamp(0.0, 1.0);
        self.base_power_w + (self.max_power_w - self.base_power_w) * u
    }

    /// Energy in joules consumed over `hours` at constant utilization.
    pub fn energy_j(&self, state: PowerState, utilization: f64, hours: f64) -> f64 {
        self.power_w(state, utilization) * hours.max(0.0) * 3600.0
    }

    /// Base (idle) energy in joules over `hours` while powered on.
    pub fn base_energy_j(&self, hours: f64) -> f64 {
        self.base_power_w * hours.max(0.0) * 3600.0
    }

    /// The power-proportionality ratio `base/max`; 0 is perfectly
    /// proportional, 1 means power is constant regardless of load.
    pub fn proportionality(&self) -> f64 {
        if self.max_power_w <= 0.0 {
            return 1.0;
        }
        self.base_power_w / self.max_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn off_server_draws_nothing() {
        let m = PowerModel::new(50.0, 200.0);
        assert_eq!(m.power_w(PowerState::Off, 0.8), 0.0);
        assert_eq!(m.energy_j(PowerState::Off, 0.8, 5.0), 0.0);
    }

    #[test]
    fn idle_power_is_base() {
        let m = PowerModel::new(50.0, 200.0);
        assert_eq!(m.power_w(PowerState::On, 0.0), 50.0);
    }

    #[test]
    fn full_power_is_max() {
        let m = PowerModel::new(50.0, 200.0);
        assert_eq!(m.power_w(PowerState::On, 1.0), 200.0);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = PowerModel::new(50.0, 200.0);
        assert_eq!(m.power_w(PowerState::On, 2.0), 200.0);
        assert_eq!(m.power_w(PowerState::On, -1.0), 50.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel::new(100.0, 100.0);
        // 100 W for 1 hour = 360 kJ.
        assert!((m.energy_j(PowerState::On, 0.5, 1.0) - 360_000.0).abs() < 1e-6);
        assert_eq!(m.energy_j(PowerState::On, 0.5, -1.0), 0.0);
    }

    #[test]
    fn max_clamped_to_base() {
        let m = PowerModel::new(100.0, 50.0);
        assert_eq!(m.max_power_w, 100.0);
    }

    #[test]
    fn proportionality_ratio() {
        assert!((PowerModel::new(50.0, 200.0).proportionality() - 0.25).abs() < 1e-12);
        assert_eq!(PowerModel::new(0.0, 0.0).proportionality(), 1.0);
    }

    #[test]
    fn power_state_indicator() {
        assert_eq!(PowerState::On.as_indicator(), 1.0);
        assert_eq!(PowerState::Off.as_indicator(), 0.0);
        assert!(PowerState::On.is_on());
        assert!(!PowerState::Off.is_on());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn power_is_monotone_in_utilization(base in 0.0f64..200.0, span in 0.0f64..300.0,
                                            u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
            let m = PowerModel::new(base, base + span);
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(m.power_w(PowerState::On, lo) <= m.power_w(PowerState::On, hi) + 1e-9);
        }

        #[test]
        fn power_bounded_by_base_and_max(base in 0.0f64..200.0, span in 0.0f64..300.0, u in -1.0f64..2.0) {
            let m = PowerModel::new(base, base + span);
            let p = m.power_w(PowerState::On, u);
            prop_assert!(p >= m.base_power_w - 1e-9);
            prop_assert!(p <= m.max_power_w + 1e-9);
        }
    }
}
