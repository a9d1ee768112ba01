//! Shared result types for the simulation experiments.

/// Aggregate outcome of running one policy over one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyOutcome {
    /// Total carbon emissions in grams CO2-equivalent.
    pub carbon_g: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Mean round-trip network latency of placed applications, ms.
    pub mean_latency_ms: f64,
    /// Number of applications placed.
    pub placed_apps: usize,
}

impl PolicyOutcome {
    /// Accumulates another outcome (latency averaged by placed apps).
    pub fn accumulate(&mut self, other: &PolicyOutcome) {
        let total_apps = self.placed_apps + other.placed_apps;
        if total_apps > 0 {
            self.mean_latency_ms = (self.mean_latency_ms * self.placed_apps as f64
                + other.mean_latency_ms * other.placed_apps as f64)
                / total_apps as f64;
        }
        self.carbon_g += other.carbon_g;
        self.energy_j += other.energy_j;
        self.placed_apps = total_apps;
    }
}

/// Savings of a policy relative to the Latency-aware baseline — the metric
/// the paper reports throughout Section 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Savings {
    /// Relative carbon savings in percent (positive = fewer emissions).
    pub carbon_percent: f64,
    /// Increase in mean round-trip latency in ms (positive = slower).
    pub latency_increase_ms: f64,
    /// Ratio of energy consumption (policy / baseline).
    pub energy_ratio: f64,
}

impl Savings {
    /// Computes savings of `policy` versus `baseline`.
    pub fn versus(policy: &PolicyOutcome, baseline: &PolicyOutcome) -> Savings {
        let carbon_percent = if baseline.carbon_g > 0.0 {
            (1.0 - policy.carbon_g / baseline.carbon_g) * 100.0
        } else {
            0.0
        };
        let energy_ratio = if baseline.energy_j > 0.0 {
            policy.energy_j / baseline.energy_j
        } else {
            1.0
        };
        Savings {
            carbon_percent,
            latency_increase_ms: policy.mean_latency_ms - baseline.mean_latency_ms,
            energy_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_merges_and_averages_latency() {
        let mut a = PolicyOutcome {
            carbon_g: 10.0,
            energy_j: 100.0,
            mean_latency_ms: 4.0,
            placed_apps: 2,
        };
        let b = PolicyOutcome {
            carbon_g: 20.0,
            energy_j: 300.0,
            mean_latency_ms: 10.0,
            placed_apps: 4,
        };
        a.accumulate(&b);
        assert_eq!(a.carbon_g, 30.0);
        assert_eq!(a.energy_j, 400.0);
        assert_eq!(a.placed_apps, 6);
        assert!((a.mean_latency_ms - 8.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_with_empty_outcome_is_identity() {
        let mut a = PolicyOutcome {
            carbon_g: 5.0,
            energy_j: 50.0,
            mean_latency_ms: 3.0,
            placed_apps: 1,
        };
        a.accumulate(&PolicyOutcome::default());
        assert_eq!(a.placed_apps, 1);
        assert_eq!(a.mean_latency_ms, 3.0);
    }

    #[test]
    fn savings_versus_baseline() {
        let policy = PolicyOutcome {
            carbon_g: 30.0,
            energy_j: 200.0,
            mean_latency_ms: 12.0,
            placed_apps: 5,
        };
        let baseline = PolicyOutcome {
            carbon_g: 100.0,
            energy_j: 100.0,
            mean_latency_ms: 5.0,
            placed_apps: 5,
        };
        let s = Savings::versus(&policy, &baseline);
        assert!((s.carbon_percent - 70.0).abs() < 1e-9);
        assert!((s.latency_increase_ms - 7.0).abs() < 1e-9);
        assert!((s.energy_ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn savings_with_zero_baseline_are_neutral() {
        let s = Savings::versus(&PolicyOutcome::default(), &PolicyOutcome::default());
        assert_eq!(s.carbon_percent, 0.0);
        assert_eq!(s.energy_ratio, 1.0);
    }
}
