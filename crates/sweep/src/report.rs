//! Aggregated results of a sweep: per-cell metrics, per-scenario savings
//! against the Latency-aware baseline, and marginal savings tables per axis.

use crate::spec::{area_name, ScenarioKey, SweepAxis, SweepCell, SweepSpec};
use carbonedge_grid::ForecasterKind;
use carbonedge_sim::metrics::{PolicyOutcome, Savings};
use carbonedge_sim::ServingMetrics;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// The display name of the baseline policy savings are computed against.
pub const BASELINE_POLICY: &str = "Latency-aware";

/// The outcome of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell coordinate.
    pub cell: SweepCell,
    /// Year-aggregated *realized* policy outcome.
    pub outcome: PolicyOutcome,
    /// Carbon the placer expected under its forecasts; the gap to
    /// `outcome.carbon_g` is the cell's aggregate forecast pricing error.
    pub decision_carbon_g: f64,
    /// Per-month carbon (12 entries), for seasonality views.
    pub monthly_carbon_g: Vec<f64>,
    /// Mean carbon intensity of the zones applications were assigned to.
    pub mean_assigned_intensity: f64,
    /// Number of edge sites simulated in this cell.
    pub site_count: usize,
    /// Applications moved between servers across epoch boundaries (the
    /// run's churn).
    pub moves: usize,
    /// Migration carbon charged for those moves, grams (included in
    /// `outcome.carbon_g`).
    pub migration_carbon_g: f64,
    /// Event-level serving metrics (tail latency, drops, utilization);
    /// `None` for aggregate-mode cells, which never materialize requests.
    pub serving: Option<ServingMetrics>,
}

/// One row of the per-scenario savings table: a non-baseline policy compared
/// with the Latency-aware run of the same scenario coordinate.
#[derive(Debug, Clone)]
pub struct SavingsRow {
    /// Index of the policy cell in the report's cell list.
    pub cell_index: usize,
    /// Scenario label (all coordinates except the policy).
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// The policy's year carbon, grams.
    pub carbon_g: f64,
    /// The baseline's year carbon, grams.
    pub baseline_carbon_g: f64,
    /// Savings versus the baseline.
    pub savings: Savings,
}

/// One row of the forecast-regret table: a (policy, forecaster, epoch)
/// triple compared with the **oracle** forecaster runs of the otherwise
/// identical scenario coordinates — the realized cost of forecast error.
#[derive(Debug, Clone)]
pub struct RegretRow {
    /// Policy display name.
    pub policy: String,
    /// Forecaster display label.
    pub forecaster: String,
    /// Epoch-schedule display name.
    pub epoch: String,
    /// Number of (cell, oracle-partner) comparisons averaged.
    pub comparisons: usize,
    /// Mean realized carbon of the triple's cells, grams.
    pub mean_carbon_g: f64,
    /// Mean realized carbon of the oracle partners, grams.
    pub mean_oracle_carbon_g: f64,
    /// Mean regret versus the oracle partner, percent (0 for oracle rows;
    /// positive means forecast error cost real carbon).
    pub mean_regret_percent: f64,
    /// Mean forecast pricing error, percent: how far the carbon the placer
    /// *expected* under its forecasts sat from the realized carbon.  Large
    /// pricing error with small regret means the placement was robust to
    /// the mis-forecast (the rankings survived); with capacity pressure the
    /// error starts flipping placements and becomes regret.
    pub mean_decision_error_percent: f64,
}

/// One row of the churn-vs-savings table: a (policy, epoch, migration
/// level) triple, averaged over every scenario coordinate that pairs with a
/// Latency-aware baseline — what re-placement cadence actually buys once
/// moving a service has a price.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Policy display name.
    pub policy: String,
    /// Epoch-schedule display name.
    pub epoch: String,
    /// Migration-cost level display label.
    pub migration: String,
    /// Number of (cell, baseline) comparisons averaged.
    pub comparisons: usize,
    /// Mean applications moved over the year (churn).
    pub mean_moves: f64,
    /// Mean migration carbon charged, grams.
    pub mean_migration_carbon_g: f64,
    /// Mean realized carbon (migration included), grams.
    pub mean_carbon_g: f64,
    /// Mean carbon savings versus the Latency-aware baseline, percent.
    pub mean_saving_percent: f64,
}

/// One row of the serving table: a (policy, serving mode) pair averaged
/// over every event-level cell — what carbon-aware placement costs in tail
/// latency and drops once requests are actually materialized and queued.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Policy display name.
    pub policy: String,
    /// Serving-mode display label.
    pub serving: String,
    /// Number of event-level cells averaged.
    pub cells: usize,
    /// Mean median request latency, ms.
    pub mean_p50_ms: f64,
    /// Mean 95th-percentile request latency, ms.
    pub mean_p95_ms: f64,
    /// Mean 99th-percentile request latency, ms.
    pub mean_p99_ms: f64,
    /// Mean dropped-request share, percent of arrivals.
    pub mean_drop_percent: f64,
    /// Mean fleet utilization (0..1).
    pub mean_utilization: f64,
    /// Mean drift-triggered online re-placements over the year.
    pub mean_replacements: f64,
    /// Mean realized carbon, grams.
    pub mean_carbon_g: f64,
    /// Mean carbon savings versus the Latency-aware baseline of the same
    /// scenario coordinate, percent (0 for baseline rows and for cells
    /// without a baseline partner).
    pub mean_saving_percent: f64,
}

/// One row of a marginal savings table: the mean effect of one axis value,
/// averaged over every other coordinate.
#[derive(Debug, Clone)]
pub struct MarginalRow {
    /// The axis value's display form.
    pub value: String,
    /// Policy display name.
    pub policy: String,
    /// Number of (scenario, policy) comparisons averaged.
    pub comparisons: usize,
    /// Mean carbon savings, percent.
    pub mean_saving_percent: f64,
    /// Mean latency increase, ms.
    pub mean_latency_increase_ms: f64,
}

/// The aggregated result of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The spec that produced this report.
    pub spec: SweepSpec,
    /// Per-cell results in the spec's canonical cell order.
    pub cells: Vec<CellResult>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds of the run.  The executor never reads the clock —
    /// decision logic stays timing-independent — so this is `0.0` until a
    /// measuring caller (`bench::summary`) stamps it after the run.  It is
    /// not part of the deterministic rendering; only [`Self::footer`] shows
    /// it.
    pub wall_seconds: f64,
}

impl SweepReport {
    /// Assembles a report (used by the executor).  `wall_seconds` starts at
    /// zero; callers that time the run stamp it afterwards.
    pub fn new(spec: SweepSpec, cells: Vec<CellResult>, jobs: usize) -> Self {
        Self {
            spec,
            cells,
            jobs,
            wall_seconds: 0.0,
        }
    }

    /// Looks up the result of the first cell matching a scenario key and
    /// policy name.
    pub fn find(&self, key: &ScenarioKey, policy: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.cell.policy.name() == policy && &c.cell.scenario_key() == key)
    }

    /// Per-scenario savings of every non-baseline policy versus the
    /// Latency-aware cell of the same scenario coordinate, in cell order.
    /// Scenarios without a Latency-aware cell produce no rows.
    pub fn savings_rows(&self) -> Vec<SavingsRow> {
        let baseline_by_key = self.baselines();
        let mut rows = Vec::new();
        for (index, cell) in self.cells.iter().enumerate() {
            if cell.cell.policy.name() == BASELINE_POLICY {
                continue;
            }
            let Some(baseline) = baseline_by_key.get(&cell.cell.scenario_key()) else {
                continue;
            };
            rows.push(SavingsRow {
                cell_index: index,
                scenario: cell.cell.label(),
                policy: cell.cell.policy.name(),
                carbon_g: cell.outcome.carbon_g,
                baseline_carbon_g: baseline.outcome.carbon_g,
                savings: Savings::versus(&cell.outcome, &baseline.outcome),
            });
        }
        rows
    }

    /// The first Latency-aware cell of each scenario coordinate: the baseline
    /// every other policy of that coordinate is compared with.
    fn baselines(&self) -> HashMap<ScenarioKey, &CellResult> {
        let mut by_key = HashMap::new();
        for cell in &self.cells {
            if cell.cell.policy.name() == BASELINE_POLICY {
                by_key.entry(cell.cell.scenario_key()).or_insert(cell);
            }
        }
        by_key
    }

    /// The display value of `axis` for a cell.  Grouping uses the lossless
    /// [`Self::axis_key`] instead, so a future display form that rounds can
    /// never merge distinct axis values.
    pub fn axis_value(cell: &SweepCell, axis: SweepAxis) -> String {
        match axis {
            SweepAxis::Policy => cell.policy.name(),
            SweepAxis::Area => area_name(cell.area).to_string(),
            SweepAxis::Scenario => cell.scenario.name().to_string(),
            SweepAxis::LatencyLimit => format!("{} ms", cell.latency_limit_ms),
            SweepAxis::SiteLimit => match cell.site_limit {
                Some(n) => format!("{n} sites"),
                None => "all sites".to_string(),
            },
            SweepAxis::Workload => cell.workload.name.clone(),
            SweepAxis::Seed => format!("seed {}", cell.seed),
            SweepAxis::Forecaster => cell.forecaster.label(),
            SweepAxis::Epoch => cell.epoch.name().to_string(),
            SweepAxis::Migration => cell.migration.label().to_string(),
            SweepAxis::Serving => cell.serving.label().to_string(),
        }
    }

    /// A lossless grouping key for `axis` on a cell: distinct axis values
    /// always map to distinct keys regardless of how their display forms are
    /// formatted (latency limits key on raw bits, workloads on their full
    /// identity rather than the display name).
    pub fn axis_key(cell: &SweepCell, axis: SweepAxis) -> String {
        match axis {
            SweepAxis::LatencyLimit => format!("{:016x}", cell.latency_limit_ms.to_bits()),
            SweepAxis::Workload => format!("{:?}", cell.workload.key()),
            _ => Self::axis_value(cell, axis),
        }
    }

    /// Whether an axis has more than one value in this sweep.
    pub fn axis_is_widened(&self, axis: SweepAxis) -> bool {
        self.spec.axis_len(axis) > 1
    }

    /// Marginal savings per value of one axis: for each (axis value, policy)
    /// pair, the mean savings over every comparison sharing that value.
    /// Rows appear in first-occurrence (spec enumeration) order.
    pub fn marginal_rows(&self, axis: SweepAxis) -> Vec<MarginalRow> {
        self.marginal_rows_from(&self.savings_rows(), axis)
    }

    /// Marginal aggregation over precomputed savings rows, so callers that
    /// need several axes (like [`Self::render`]) pair baselines only once.
    fn marginal_rows_from(&self, rows: &[SavingsRow], axis: SweepAxis) -> Vec<MarginalRow> {
        group_sums(rows.iter().map(|row| {
            let cell = &self.cells[row.cell_index];
            let key = (Self::axis_key(&cell.cell, axis), row.policy.clone());
            let values = [row.savings.carbon_percent, row.savings.latency_increase_ms];
            (key, cell, values)
        }))
        .into_iter()
        .map(|group| MarginalRow {
            value: Self::axis_value(&group.first.cell, axis),
            policy: group.first.cell.policy.name(),
            comparisons: group.count,
            mean_saving_percent: group.mean(0),
            mean_latency_increase_ms: group.mean(1),
        })
        .collect()
    }

    /// Forecast-regret aggregation: every cell paired with the **oracle**
    /// cell of the same policy and scenario coordinate, grouped by (policy,
    /// forecaster, epoch) in first-occurrence order.  Cells whose oracle
    /// partner is absent from the sweep produce no rows; a sweep without an
    /// oracle forecaster therefore yields an empty table.
    pub fn forecast_regret_rows(&self) -> Vec<RegretRow> {
        let mut oracle_by_key: HashMap<(ScenarioKey, String), f64> = HashMap::new();
        for cell in &self.cells {
            if cell.cell.forecaster == ForecasterKind::Oracle {
                oracle_by_key
                    .entry((cell.cell.scenario_key(), cell.cell.policy.name()))
                    .or_insert(cell.outcome.carbon_g);
            }
        }
        group_sums(self.cells.iter().filter_map(|cell| {
            let mut oracle_key = cell.cell.scenario_key();
            oracle_key.forecaster = ForecasterKind::Oracle;
            let oracle_carbon = *oracle_by_key.get(&(oracle_key, cell.cell.policy.name()))?;
            let key = (
                cell.cell.policy.name(),
                cell.cell.forecaster.label(),
                cell.cell.epoch.name(),
            );
            let regret = if oracle_carbon > 0.0 {
                (cell.outcome.carbon_g / oracle_carbon - 1.0) * 100.0
            } else {
                0.0
            };
            let decision_error = if cell.outcome.carbon_g > 0.0 {
                (cell.decision_carbon_g / cell.outcome.carbon_g - 1.0) * 100.0
            } else {
                0.0
            };
            let values = [cell.outcome.carbon_g, oracle_carbon, regret, decision_error];
            Some((key, cell, values))
        }))
        .into_iter()
        .map(|group| RegretRow {
            policy: group.first.cell.policy.name(),
            forecaster: group.first.cell.forecaster.label(),
            epoch: group.first.cell.epoch.name().to_string(),
            comparisons: group.count,
            mean_carbon_g: group.mean(0),
            mean_oracle_carbon_g: group.mean(1),
            mean_regret_percent: group.mean(2),
            mean_decision_error_percent: group.mean(3),
        })
        .collect()
    }

    /// Churn-vs-savings aggregation: every non-baseline cell paired with
    /// the Latency-aware cell of the same scenario coordinate (exactly like
    /// [`Self::savings_rows`]), grouped by (policy, epoch, migration level)
    /// in first-occurrence order.  Reading down a fixed (policy, epoch)
    /// block shows savings shrinking as the migration cost rises; reading
    /// down a fixed migration level shows what finer re-placement cadence
    /// buys net of churn.
    pub fn migration_churn_rows(&self) -> Vec<ChurnRow> {
        let rows = self.savings_rows();
        group_sums(rows.iter().map(|row| {
            let cell = &self.cells[row.cell_index];
            let key = (
                row.policy.clone(),
                cell.cell.epoch.name(),
                cell.cell.migration.label(),
            );
            let values = [
                cell.moves as f64,
                cell.migration_carbon_g,
                cell.outcome.carbon_g,
                row.savings.carbon_percent,
            ];
            (key, cell, values)
        }))
        .into_iter()
        .map(|group| ChurnRow {
            policy: group.first.cell.policy.name(),
            epoch: group.first.cell.epoch.name().to_string(),
            migration: group.first.cell.migration.label().to_string(),
            comparisons: group.count,
            mean_moves: group.mean(0),
            mean_migration_carbon_g: group.mean(1),
            mean_carbon_g: group.mean(2),
            mean_saving_percent: group.mean(3),
        })
        .collect()
    }

    /// Renders the churn-vs-savings table (moves, migration carbon and
    /// realized savings per policy × epoch × migration level).  Savings are
    /// printed with three decimals — re-placement gains are fractions of a
    /// percent on top of the mesoscale headline, and the point of the table
    /// is how the migration cost eats them.  Deterministic like
    /// [`Self::render`], so it is golden-testable.
    pub fn render_migration(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "migration churn `{}`: re-placement savings vs migration cost",
            self.spec.name,
        );
        let rows = self.migration_churn_rows();
        if rows.is_empty() {
            let _ = writeln!(
                out,
                "\n(no churn rows: the policy axis needs `{BASELINE_POLICY}` plus at \
                 least one other policy to pair against it)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "\n{:<18} {:<10} {:<11} {:>8} {:>10} {:>14} {:>12} {:>10}",
            "policy",
            "epoch",
            "migration",
            "cells",
            "moves",
            "migration kg",
            "realized kg",
            "saving %"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<18} {:<10} {:<11} {:>8} {:>10.1} {:>14.3} {:>12.2} {:>10.3}",
                row.policy,
                row.epoch,
                row.migration,
                row.comparisons,
                row.mean_moves,
                row.mean_migration_carbon_g / 1000.0,
                row.mean_carbon_g / 1000.0,
                row.mean_saving_percent,
            );
        }
        out
    }

    /// Serving aggregation: every cell that materialized requests (serving
    /// mode `events` or `events-online`), grouped by (policy, serving mode)
    /// in first-occurrence order.  Reading across a policy's rows shows what
    /// the online drift trigger buys over fixed epoch boundaries; reading
    /// down a serving mode shows the tail-latency and drop price of
    /// carbon-aware placement next to its carbon savings.
    pub fn serving_rows(&self) -> Vec<ServingRow> {
        let baseline_by_key = self.baselines();
        group_sums(self.cells.iter().filter_map(|cell| {
            let metrics = cell.serving.as_ref()?;
            let key = (cell.cell.policy.name(), cell.cell.serving.label());
            let baseline_carbon = baseline_by_key
                .get(&cell.cell.scenario_key())
                .map(|baseline| baseline.outcome.carbon_g)
                .filter(|&carbon| carbon > 0.0 && key.0 != BASELINE_POLICY);
            // An unpaired cell adds 0.0, which leaves the saving sum's bits
            // unchanged: `(1 - x) * 100` is never -0.0, so neither is the sum.
            let (pairs, saving) = match baseline_carbon {
                Some(baseline) => (1.0, (1.0 - cell.outcome.carbon_g / baseline) * 100.0),
                None => (0.0, 0.0),
            };
            let values = [
                metrics.p50_ms,
                metrics.p95_ms,
                metrics.p99_ms,
                metrics.drop_percent(),
                metrics.mean_utilization,
                metrics.online_replacements as f64,
                cell.outcome.carbon_g,
                pairs,
                saving,
            ];
            Some((key, cell, values))
        }))
        .into_iter()
        .map(|group| ServingRow {
            policy: group.first.cell.policy.name(),
            serving: group.first.cell.serving.label().to_string(),
            cells: group.count,
            mean_p50_ms: group.mean(0),
            mean_p95_ms: group.mean(1),
            mean_p99_ms: group.mean(2),
            mean_drop_percent: group.mean(3),
            mean_utilization: group.mean(4),
            mean_replacements: group.mean(5),
            mean_carbon_g: group.mean(6),
            mean_saving_percent: if group.sums[7] > 0.0 {
                group.sums[8] / group.sums[7]
            } else {
                0.0
            },
        })
        .collect()
    }

    /// Renders the serving table (tail latency, drop rate and utilization
    /// next to carbon savings per policy × serving mode).  Deterministic
    /// like [`Self::render`], so it is golden-testable.
    pub fn render_serving(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serving `{}`: tail latency and drops vs carbon savings",
            self.spec.name,
        );
        let rows = self.serving_rows();
        if rows.is_empty() {
            let _ = writeln!(
                out,
                "\n(no serving rows: add `events` or `events-online` to the serving \
                 axis so cells materialize request streams)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "\n{:<18} {:<14} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8} {:>9}",
            "policy",
            "serving",
            "cells",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "drop %",
            "util %",
            "replans",
            "saving %"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<18} {:<14} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>8.3} {:>7.1} {:>8.1} {:>9.3}",
                row.policy,
                row.serving,
                row.cells,
                row.mean_p50_ms,
                row.mean_p95_ms,
                row.mean_p99_ms,
                row.mean_drop_percent,
                row.mean_utilization * 100.0,
                row.mean_replacements,
                row.mean_saving_percent,
            );
        }
        out
    }

    /// Renders the forecast-regret table (realized carbon versus the oracle
    /// replay per policy × forecaster × epoch).  Deterministic like
    /// [`Self::render`], so it is golden-testable.
    pub fn render_forecast_regret(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "forecast regret `{}`: realized carbon vs oracle replay",
            self.spec.name,
        );
        let rows = self.forecast_regret_rows();
        if rows.is_empty() {
            let _ = writeln!(
                out,
                "\n(no regret rows: add the oracle forecaster to the forecaster axis \
                 so each cell has a zero-error partner)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "\n{:<18} {:<14} {:<10} {:>8} {:>14} {:>12} {:>10} {:>12}",
            "policy",
            "forecaster",
            "epoch",
            "cells",
            "realized kg",
            "oracle kg",
            "regret %",
            "fcst err %"
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<18} {:<14} {:<10} {:>8} {:>14.2} {:>12.2} {:>10.2} {:>12.2}",
                row.policy,
                row.forecaster,
                row.epoch,
                row.comparisons,
                row.mean_carbon_g / 1000.0,
                row.mean_oracle_carbon_g / 1000.0,
                row.mean_regret_percent,
                row.mean_decision_error_percent,
            );
        }
        out
    }

    /// One-line run summary for binaries to print on stderr.  Unlike
    /// [`Self::render`] this includes wall-clock time, so it is *not* part
    /// of the deterministic output.
    pub fn footer(&self) -> String {
        format!(
            "[{} cells on {} worker(s) in {:.1} s]",
            self.cells.len(),
            self.jobs,
            self.wall_seconds
        )
    }

    /// Renders the report as aligned text tables.  The output depends only
    /// on the spec and the simulated outcomes — never on timing, worker
    /// count or scheduling — so it is stable across runs and suitable for
    /// golden-output comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep `{}`: {} cells over {} widened axes (baseline: {})",
            self.spec.name,
            self.cells.len(),
            self.spec.axis_count(),
            BASELINE_POLICY,
        );
        let savings_rows = self.savings_rows();
        if savings_rows.is_empty() {
            let _ = writeln!(
                out,
                "\n(no savings rows: the policy axis needs `{BASELINE_POLICY}` plus at \
                 least one other policy to pair against it)"
            );
            return out;
        }
        let _ = writeln!(out, "\nper-scenario savings:");
        let _ = writeln!(
            out,
            "{:<60} {:<18} {:>12} {:>12} {:>10} {:>12} {:>16}",
            "scenario",
            "policy",
            "carbon kg",
            "baseline kg",
            "saving %",
            "latency +ms",
            "assigned g/kWh"
        );
        for row in &savings_rows {
            let assigned = self.cells[row.cell_index].mean_assigned_intensity;
            let _ = writeln!(
                out,
                "{:<60} {:<18} {:>12.2} {:>12.2} {:>10.1} {:>12.1} {:>16.1}",
                row.scenario,
                row.policy,
                row.carbon_g / 1000.0,
                row.baseline_carbon_g / 1000.0,
                row.savings.carbon_percent,
                row.savings.latency_increase_ms,
                assigned,
            );
        }
        for axis in SweepAxis::ALL {
            if axis == SweepAxis::Policy || !self.axis_is_widened(axis) {
                continue;
            }
            let _ = writeln!(out, "\nmarginal savings by {}:", axis.name());
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>8} {:>16} {:>20}",
                "value", "policy", "cells", "mean saving %", "mean latency +ms"
            );
            for row in self.marginal_rows_from(&savings_rows, axis) {
                let _ = writeln!(
                    out,
                    "{:<18} {:<18} {:>8} {:>16.1} {:>20.1}",
                    row.value,
                    row.policy,
                    row.comparisons,
                    row.mean_saving_percent,
                    row.mean_latency_increase_ms,
                );
            }
        }
        out
    }
}

/// One group of [`group_sums`]: its first cell, which supplies the row's
/// display values, the number of cells in it and the per-position sums of
/// their values.
struct Group<'a, const N: usize> {
    first: &'a CellResult,
    count: usize,
    sums: [f64; N],
}

impl<const N: usize> Group<'_, N> {
    /// The mean of value `i` over the group's cells.
    fn mean(&self, i: usize) -> f64 {
        self.sums[i] / self.count as f64
    }
}

/// Groups `(key, cell, values)` items by key, in first-occurrence order.
/// Each group's sums accumulate in item order, so a mean depends only on
/// the cells' order in the report, never on hashing.
fn group_sums<'a, K: Hash + Eq, const N: usize>(
    items: impl Iterator<Item = (K, &'a CellResult, [f64; N])>,
) -> Vec<Group<'a, N>> {
    let mut position: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Group<'a, N>> = Vec::new();
    for (key, cell, values) in items {
        let g = *position.entry(key).or_insert_with(|| {
            groups.push(Group {
                first: cell,
                count: 0,
                sums: [0.0; N],
            });
            groups.len() - 1
        });
        let group = &mut groups[g];
        group.count += 1;
        for (sum, value) in group.sums.iter_mut().zip(values) {
            *sum += value;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepExecutor;
    use crate::spec::SweepSpec;
    use carbonedge_datasets::zones::ZoneArea;
    use carbonedge_sim::cdn::CdnScenario;

    fn small_report() -> SweepReport {
        let spec = SweepSpec::new("report-test")
            .with_areas(vec![ZoneArea::Europe])
            .with_scenarios(vec![
                CdnScenario::Homogeneous,
                CdnScenario::PopulationDemand,
            ])
            .with_latency_limits(vec![10.0, 20.0])
            .with_site_limit(Some(12));
        SweepExecutor::new().with_jobs(2).run(&spec).unwrap()
    }

    #[test]
    fn savings_rows_pair_each_policy_with_its_baseline() {
        let report = small_report();
        let rows = report.savings_rows();
        // 2 scenarios x 2 latency limits, one non-baseline policy each.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.policy, "CarbonEdge");
            assert!(row.baseline_carbon_g > 0.0);
            assert!(
                row.carbon_g <= row.baseline_carbon_g + 1e-6,
                "CarbonEdge should not emit more than the baseline"
            );
            assert!(row.savings.carbon_percent >= 0.0);
        }
    }

    #[test]
    fn looser_latency_limits_save_more_in_the_marginals() {
        let report = small_report();
        let marginals = report.marginal_rows(SweepAxis::LatencyLimit);
        assert_eq!(marginals.len(), 2);
        let tight = marginals.iter().find(|m| m.value == "10 ms").unwrap();
        let loose = marginals.iter().find(|m| m.value == "20 ms").unwrap();
        assert_eq!(tight.comparisons, 2);
        assert!(
            loose.mean_saving_percent > tight.mean_saving_percent,
            "loose {} vs tight {}",
            loose.mean_saving_percent,
            tight.mean_saving_percent
        );
    }

    #[test]
    fn missing_baseline_renders_an_explicit_note_instead_of_empty_tables() {
        use carbonedge_core::PlacementPolicy;
        let spec = SweepSpec::new("no-baseline")
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(8))
            .with_policies(vec![
                PlacementPolicy::CarbonAware,
                PlacementPolicy::IntensityAware,
            ]);
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert!(report.savings_rows().is_empty());
        let text = report.render();
        assert!(text.contains("no savings rows"), "got:\n{text}");
        assert!(text.contains(super::BASELINE_POLICY));
    }

    #[test]
    fn distinct_latency_limits_never_share_a_label() {
        let spec = SweepSpec::new("close-limits")
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![10.0, 10.4])
            .with_site_limit(Some(8));
        let report = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
        // Labels exclude the policy axis, so the four cells (2 limits x 2
        // policies) must produce exactly one label per latency limit.
        let labels: std::collections::BTreeSet<String> =
            report.cells.iter().map(|c| c.cell.label()).collect();
        assert_eq!(labels.len(), 2, "labels collapsed or split: {labels:?}");
        assert!(labels.iter().any(|l| l.contains("/10ms/")));
        assert!(labels.iter().any(|l| l.contains("/10.4ms/")));
        let marginals = report.marginal_rows(SweepAxis::LatencyLimit);
        assert_eq!(marginals.len(), 2);
        assert!(marginals.iter().any(|m| m.value == "10 ms"));
        assert!(marginals.iter().any(|m| m.value == "10.4 ms"));
    }

    #[test]
    fn forecast_regret_pairs_every_cell_with_its_oracle_partner() {
        use carbonedge_grid::EpochSchedule;
        let spec = SweepSpec::new("regret-test")
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(10))
            .with_forecasters(vec![ForecasterKind::Oracle, ForecasterKind::Persistence])
            .with_epochs(vec![EpochSchedule::Monthly]);
        let report = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
        let rows = report.forecast_regret_rows();
        // 2 policies x 2 forecasters x 1 epoch.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.comparisons, 1);
            if row.forecaster == "oracle" {
                assert_eq!(row.mean_regret_percent, 0.0, "{}", row.policy);
                assert_eq!(row.mean_carbon_g, row.mean_oracle_carbon_g);
            }
        }
        // The latency-aware baseline ignores carbon, so its placements (and
        // realized carbon) are forecast-independent: zero regret everywhere.
        let baseline_rows: Vec<_> = rows
            .iter()
            .filter(|r| r.policy == BASELINE_POLICY)
            .collect();
        assert_eq!(baseline_rows.len(), 2);
        for row in baseline_rows {
            assert!(
                row.mean_regret_percent.abs() < 1e-9,
                "baseline regret {}",
                row.mean_regret_percent
            );
        }
        let text = report.render_forecast_regret();
        assert_eq!(text, report.render_forecast_regret());
        assert!(text.contains("persistence") && text.contains("oracle"));
        assert!(text.contains("regret %"));
    }

    #[test]
    fn churn_table_groups_by_policy_epoch_and_migration() {
        use carbonedge_core::MigrationCostLevel;
        use carbonedge_grid::EpochSchedule;
        let spec = SweepSpec::new("churn-test")
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![30.0])
            .with_site_limit(Some(40))
            .with_epochs(vec![EpochSchedule::Monthly, EpochSchedule::Weekly])
            .with_migrations(vec![MigrationCostLevel::Free, MigrationCostLevel::Paper]);
        let report = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
        let rows = report.migration_churn_rows();
        // 1 non-baseline policy x 2 epochs x 2 migration levels.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.policy, "CarbonEdge");
            assert_eq!(row.comparisons, 1);
            assert!(row.mean_carbon_g > 0.0);
            if row.migration == "mig-free" {
                assert_eq!(row.mean_migration_carbon_g, 0.0);
            }
        }
        // Paper migration suppresses churn relative to free at the same
        // epoch cadence.
        for epoch in ["monthly", "weekly"] {
            let free = rows
                .iter()
                .find(|r| r.epoch == epoch && r.migration == "mig-free")
                .unwrap();
            let paper = rows
                .iter()
                .find(|r| r.epoch == epoch && r.migration == "mig-paper")
                .unwrap();
            assert!(
                paper.mean_moves <= free.mean_moves,
                "{epoch}: paper churn {} vs free {}",
                paper.mean_moves,
                free.mean_moves
            );
        }
        let text = report.render_migration();
        assert_eq!(text, report.render_migration());
        assert!(text.contains("mig-free") && text.contains("mig-paper"));
        assert!(text.contains("saving %"));
    }

    #[test]
    fn serving_table_groups_by_policy_and_mode() {
        use carbonedge_sim::ServingMode;
        let spec = SweepSpec::new("serving-test")
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![30.0])
            .with_site_limit(Some(20))
            .with_demand(4, 1)
            .with_servings(vec![ServingMode::Aggregate, ServingMode::EventLevel]);
        let report = SweepExecutor::new().with_jobs(2).run(&spec).unwrap();
        let rows = report.serving_rows();
        // Aggregate cells carry no serving metrics, so only the EventLevel
        // mode produces rows: 2 policies x 1 event-level mode.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.serving, "events");
            assert_eq!(row.cells, 1);
            assert!(row.mean_p50_ms > 0.0);
            assert!(row.mean_p99_ms >= row.mean_p50_ms);
            assert!(row.mean_utilization > 0.0);
            assert_eq!(row.mean_replacements, 0.0);
        }
        let baseline = rows.iter().find(|r| r.policy == BASELINE_POLICY).unwrap();
        let carbon = rows.iter().find(|r| r.policy == "CarbonEdge").unwrap();
        assert_eq!(baseline.mean_saving_percent, 0.0);
        assert!(carbon.mean_saving_percent > 0.0);
        let text = report.render_serving();
        assert_eq!(text, report.render_serving());
        assert!(text.contains("events") && text.contains("saving %"));
    }

    #[test]
    fn serving_table_without_event_cells_renders_an_explicit_note() {
        let spec = SweepSpec::new("agg-only")
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(8));
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert!(report.serving_rows().is_empty());
        assert!(report.render_serving().contains("no serving rows"));
    }

    #[test]
    fn churn_table_without_baseline_renders_an_explicit_note() {
        use carbonedge_core::PlacementPolicy;
        let spec = SweepSpec::new("no-baseline")
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(8))
            .with_policies(vec![PlacementPolicy::CarbonAware]);
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert!(report.migration_churn_rows().is_empty());
        assert!(report.render_migration().contains("no churn rows"));
    }

    #[test]
    fn regret_table_without_oracle_renders_an_explicit_note() {
        let spec = SweepSpec::new("no-oracle")
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(8))
            .with_forecasters(vec![ForecasterKind::Persistence]);
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert!(report.forecast_regret_rows().is_empty());
        assert!(report.render_forecast_regret().contains("no regret rows"));
    }

    #[test]
    fn find_locates_cells_by_scenario_and_policy() {
        let report = small_report();
        let key = report.cells[0].cell.scenario_key();
        let baseline = report.find(&key, BASELINE_POLICY).unwrap();
        let carbon = report.find(&key, "CarbonEdge").unwrap();
        assert_eq!(baseline.cell.scenario_key(), carbon.cell.scenario_key());
        assert!(report.find(&key, "No-such-policy").is_none());
    }

    #[test]
    fn render_is_stable_and_mentions_every_scenario() {
        let report = small_report();
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("per-scenario savings"));
        assert!(text.contains("marginal savings by scenario"));
        assert!(text.contains("marginal savings by latency limit"));
        // Non-widened axes get no marginal table.
        assert!(!text.contains("marginal savings by area"));
        for cell in &report.cells {
            if cell.cell.policy.name() != BASELINE_POLICY {
                assert!(
                    text.contains(&cell.cell.label()),
                    "missing {}",
                    cell.cell.label()
                );
            }
        }
    }
}
