//! Carbon-intensity forecasting.
//!
//! The placement objective of the paper uses the *average of the forecast
//! carbon intensity values* Ī_j over the placement horizon (Section 4.2).
//! A [`ForecasterKind`] value names the forecaster a scenario decides with
//! and computes the forecast itself; the oracle doubles as an ablation
//! baseline.
//!
//! # Information model
//!
//! A forecast is issued at `now`, the **first hour of an epoch**, and
//! predicts the mean carbon intensity over the window `[now, now +
//! horizon)`, truncated at the end of the simulated year (windows
//! never wrap into January).  At decision time a forecaster may observe the
//! historical trace strictly *before* `now`, plus the real-time reading at
//! `now` itself — real-time carbon APIs expose the current intensity — and
//! nothing later.  Only the oracle is exempt: it reads the future exactly,
//! which makes it the zero-forecast-error ablation the paper replays
//! historical Electricity Maps forecasts against.

use crate::time::{HourOfYear, HOURS_PER_YEAR};
use crate::trace::CarbonTrace;

/// A forecaster configuration: `Copy`, `Eq` and `Hash`, so it can ride
/// scenario axes and configuration structs, and computes its own forecast
/// with [`ForecasterKind::forecast_mean`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForecasterKind {
    /// The exact future mean, read from the trace (zero forecast error).
    ///
    /// Used for ablations that isolate forecast error from placement
    /// quality, analogous to the paper replaying historical Electricity Maps
    /// forecasts.  The horizon is truncated at the year end rather than
    /// wrapped, so a December forecast never averages January data in.
    Oracle,
    /// The future equals the current reading.
    ///
    /// This is the standard naive baseline for short-horizon carbon
    /// forecasting and is what real-time-only carbon APIs effectively
    /// provide.
    Persistence,
    /// The future equals the mean of the last `window_hours` *observed*
    /// values, i.e. the hours in `[now - window_hours, now)` clamped to the
    /// start of the year.  Early in the year the window shrinks to the
    /// observed prefix instead of wrapping into December (which would leak
    /// future data); at hour 0, with nothing observed yet, it falls back to
    /// persistence.
    MovingAverage {
        /// Number of past hours averaged.
        window_hours: usize,
    },
}

impl ForecasterKind {
    /// The default moving-average configuration (24-hour look-back).
    pub fn moving_average_24h() -> Self {
        ForecasterKind::MovingAverage { window_hours: 24 }
    }

    /// Compact display label (used by reports and sweep-axis values):
    /// `oracle`, `persistence`, `avg24h`.
    pub fn label(&self) -> String {
        match self {
            ForecasterKind::Oracle => "oracle".to_string(),
            ForecasterKind::Persistence => "persistence".to_string(),
            ForecasterKind::MovingAverage { window_hours } => format!("avg{window_hours}h"),
        }
    }

    /// Forecasts the mean carbon intensity over `[now, now + horizon)`
    /// hours, truncated at the end of the year.  Every kind but the oracle
    /// reads only hours `<= now` of the trace (see the module docs for the
    /// information model).
    pub fn forecast_mean(&self, trace: &CarbonTrace, now: HourOfYear, horizon: usize) -> f64 {
        match *self {
            ForecasterKind::Oracle => {
                // A truncated window never wraps, so this is the plain
                // window mean over the hours left in the year.
                let remaining = HOURS_PER_YEAR.saturating_sub(now.index()).max(1);
                trace.window_mean(now, horizon.max(1).min(remaining))
            }
            ForecasterKind::Persistence => trace.at(now),
            ForecasterKind::MovingAverage { window_hours } => {
                if now.index() == 0 {
                    // Nothing observed yet: persistence on the real-time reading.
                    return trace.at(now);
                }
                let start = now.index().saturating_sub(window_hours.max(1));
                let mut sum = 0.0;
                for idx in start..now.index() {
                    sum += trace.at(HourOfYear(idx));
                }
                sum / (now.index() - start) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{EpochSchedule, HOURS_PER_YEAR};

    fn ramp_trace() -> CarbonTrace {
        // A simple ramp 0,1,2,... so forecasts are easy to verify.
        let values: Vec<f64> = (0..HOURS_PER_YEAR).map(|i| i as f64).collect();
        CarbonTrace::from_values(values)
    }

    /// A trace whose partial sums round differently in any other summation
    /// order, unlike the ramp (whose integer sums are exact).
    fn wavy_trace() -> CarbonTrace {
        let values: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|i| 300.0 + 200.0 * (i as f64 * 0.37).sin() + (i % 7) as f64 / 3.0)
            .collect();
        CarbonTrace::from_values(values)
    }

    #[test]
    fn persistence_returns_current_value() {
        let t = ramp_trace();
        let f = ForecasterKind::Persistence;
        assert_eq!(f.forecast_mean(&t, HourOfYear(100), 6), 100.0);
    }

    #[test]
    fn moving_average_over_observed_window() {
        let t = ramp_trace();
        let f = ForecasterKind::MovingAverage { window_hours: 3 };
        // Strictly-past hours 97, 98, 99 -> mean 98.
        assert!((f.forecast_mean(&t, HourOfYear(100), 6) - 98.0).abs() < 1e-9);
    }

    #[test]
    fn moving_average_handles_zero_window() {
        let t = ramp_trace();
        let f = ForecasterKind::MovingAverage { window_hours: 0 };
        // A zero window clamps to one observed hour: hour 4.
        assert_eq!(f.forecast_mean(&t, HourOfYear(5), 1), 4.0);
    }

    #[test]
    fn moving_average_clamps_to_observed_prefix_at_year_start() {
        // Regression: the look-back window used to wrap past hour 0 into
        // end-of-year hours, leaking future data for early-year decisions.
        let mut values: Vec<f64> = vec![10.0; HOURS_PER_YEAR];
        values[HOURS_PER_YEAR - 1] = 100_000.0; // would dominate if wrapped in
        values[0] = 2.0;
        values[1] = 4.0;
        let t = CarbonTrace::from_values(values);
        let f = ForecasterKind::moving_average_24h();
        // At hour 2 only hours 0 and 1 are observed: mean 3, no December leak.
        assert!((f.forecast_mean(&t, HourOfYear(2), 6) - 3.0).abs() < 1e-9);
        // At hour 0 nothing is observed: fall back to persistence.
        assert_eq!(f.forecast_mean(&t, HourOfYear(0), 6), 2.0);
    }

    #[test]
    fn oracle_returns_future_mean() {
        let t = ramp_trace();
        let f = ForecasterKind::Oracle;
        // Window [100, 103): hours 100, 101, 102 -> mean 101.
        assert!((f.forecast_mean(&t, HourOfYear(100), 3) - 101.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_with_zero_horizon_reads_the_current_hour() {
        let t = wavy_trace();
        for hour in [0, 100, HOURS_PER_YEAR - 1] {
            let now = HourOfYear(hour);
            assert_eq!(
                ForecasterKind::Oracle.forecast_mean(&t, now, 0).to_bits(),
                t.at(now).to_bits(),
                "hour {hour}"
            );
        }
    }

    #[test]
    fn oracle_truncates_at_year_end() {
        // Regression: the horizon used to wrap via `HourOfYear::plus`,
        // averaging January data into a December horizon.
        let mut values: Vec<f64> = vec![50.0; HOURS_PER_YEAR];
        values[0] = 100_000.0; // would dominate if wrapped in
        let last = HOURS_PER_YEAR - 2;
        values[last] = 10.0;
        values[last + 1] = 20.0;
        let t = CarbonTrace::from_values(values);
        let f = ForecasterKind::Oracle;
        // Only two hours remain: mean 15, regardless of the longer horizon.
        assert!((f.forecast_mean(&t, HourOfYear(last), 24) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_matches_monthly_mean_over_month_windows() {
        // The epoch engine's bit-for-bit legacy guarantee rests on this:
        // an oracle forecast over a calendar month is the month's mean.
        let t = ramp_trace();
        for epoch in EpochSchedule::Monthly.epochs() {
            let forecast = ForecasterKind::Oracle.forecast_mean(&t, epoch.start, epoch.hours);
            assert_eq!(
                forecast,
                t.monthly_mean(epoch.index),
                "month {}",
                epoch.index
            );
        }
    }

    #[test]
    fn oracle_equals_the_window_mean_on_every_epoch() {
        // The simulator prices a zero-error forecast at exactly the mean it
        // accounts with, so the two must agree bit for bit on every epoch
        // of every schedule.
        let t = wavy_trace();
        for schedule in [
            EpochSchedule::Monthly,
            EpochSchedule::Weekly,
            EpochSchedule::Daily,
        ] {
            for epoch in schedule.epochs() {
                let forecast = ForecasterKind::Oracle.forecast_mean(&t, epoch.start, epoch.hours);
                assert_eq!(
                    forecast.to_bits(),
                    t.window_mean(epoch.start, epoch.hours).to_bits(),
                    "{} epoch {}",
                    schedule.name(),
                    epoch.index
                );
            }
        }
    }

    #[test]
    fn only_the_oracle_reads_hours_after_now() {
        let t = wavy_trace();
        let causal = [
            ForecasterKind::Persistence,
            ForecasterKind::moving_average_24h(),
            ForecasterKind::MovingAverage { window_hours: 1 },
        ];
        for hour in [0, 1, 23, 500, HOURS_PER_YEAR - 1] {
            let now = HourOfYear(hour);
            let mut future_rewritten = t.values().to_vec();
            for value in &mut future_rewritten[hour + 1..] {
                *value = 10_000.0 - *value;
            }
            let rewritten = CarbonTrace::from_values(future_rewritten);
            for kind in causal {
                assert_eq!(
                    kind.forecast_mean(&t, now, 24).to_bits(),
                    kind.forecast_mean(&rewritten, now, 24).to_bits(),
                    "{} at hour {hour}",
                    kind.label()
                );
            }
            // The rewrite is visible to a forecaster that does look ahead.
            if hour + 1 < HOURS_PER_YEAR {
                assert_ne!(
                    ForecasterKind::Oracle.forecast_mean(&t, now, 24),
                    ForecasterKind::Oracle.forecast_mean(&rewritten, now, 24),
                    "oracle at hour {hour}"
                );
            }
        }
    }

    #[test]
    fn oracle_on_constant_trace_equals_constant() {
        let t = CarbonTrace::from_values(vec![250.0; HOURS_PER_YEAR]);
        for f in [ForecasterKind::Oracle, ForecasterKind::Persistence] {
            assert!((f.forecast_mean(&t, HourOfYear(0), 12) - 250.0).abs() < 1e-9);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            ForecasterKind::Oracle,
            ForecasterKind::Persistence,
            ForecasterKind::moving_average_24h(),
            ForecasterKind::MovingAverage { window_hours: 168 },
        ];
        let labels: std::collections::HashSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
