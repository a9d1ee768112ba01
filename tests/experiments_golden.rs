//! Golden-output regression tests for the `experiments --sweep` summaries
//! (quick and default grid): the figure-generating sweep tables are snapshotted under
//! `tests/golden/` and compared token-by-token with numeric tolerances, so
//! a change anywhere in the stack (datasets, traces, solver, simulator,
//! aggregation, rendering) that silently shifts the reported numbers fails
//! this test instead of silently drifting the paper's figures.
//!
//! To intentionally refresh the snapshot after a reviewed change:
//! `UPDATE_GOLDEN=1 cargo test -q --test experiments_golden`.

#[path = "support/golden.rs"]
mod golden;

use carbonedge_bench::summary;
use carbonedge_sweep::SweepReport;
use golden::{assert_matches_golden, diff_with_tolerance};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

#[test]
fn quick_sweep_summary_matches_golden_snapshot() {
    let actual = summary::run(&summary::sweep_spec(true), 2).render();
    assert_matches_golden(
        "quick sweep summary",
        &actual,
        &golden_dir().join("experiments_quick.txt"),
    );
}

/// The 120-site default grid `experiments --sweep` prints; the quick
/// snapshots stop at 40 sites.
#[test]
fn default_grid_sweep_summary_matches_golden_snapshot() {
    let actual = summary::run(&summary::sweep_spec(false), 2).render();
    assert_matches_golden(
        "default-grid sweep summary",
        &actual,
        &golden_dir().join("sweep_default.txt"),
    );
}

/// Every number of every cell of a grid, `f64`s as their bits in hex, one
/// line per cell.
fn cell_bits(report: &SweepReport) -> String {
    let mut out = String::from(
        "# cell label policy: carbon energy latency placed decision monthly[12] intensity moves migration\n",
    );
    for cell in &report.cells {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let o = &cell.outcome;
        let monthly: Vec<String> = cell.monthly_carbon_g.iter().map(|&x| bits(x)).collect();
        out.push_str(&format!(
            "{} {} {}: {} {} {} {} {} [{}] {} {} {}\n",
            cell.cell.index,
            cell.cell.label(),
            cell.cell.policy.name(),
            bits(o.carbon_g),
            bits(o.energy_j),
            bits(o.mean_latency_ms),
            o.placed_apps,
            bits(cell.decision_carbon_g),
            monthly.join(" "),
            bits(cell.mean_assigned_intensity),
            cell.moves,
            bits(cell.migration_carbon_g),
        ));
    }
    out
}

/// Compares `cell_bits(report)` with the snapshot at `path`, line by line.
fn assert_matches_bits(report: &SweepReport, path: &Path) {
    let actual = cell_bits(report);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} of {} differs", n + 1, path.display());
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "line count of {}",
        path.display()
    );
}

/// The default grid bit for bit: the printed snapshot above rounds to two
/// decimals and compares within a tolerance, so a last-bit drift in one
/// decision passes it but fails here.
#[test]
fn default_grid_sweep_cells_match_their_bits() {
    let report = summary::run(&summary::sweep_spec(false), 2);
    assert_matches_bits(&report, &golden_dir().join("sweep_default_bits.txt"));
}

/// The quick forecast grid bit for bit: its weekly epochs and non-oracle
/// forecasters decide against inputs the default grid never builds.
#[test]
fn quick_forecast_cells_match_their_bits() {
    let report = summary::run(&summary::forecast_spec(true), 2);
    assert_matches_bits(&report, &golden_dir().join("forecast_quick_bits.txt"));
}

/// The quick migration grid bit for bit: paid migration levels fold
/// incumbent terms into the costs and run the hysteresis pass.
#[test]
fn quick_migration_cells_match_their_bits() {
    let report = summary::run(&summary::migration_spec(true), 2);
    assert_matches_bits(&report, &golden_dir().join("migration_quick_bits.txt"));
}

/// The quick serving grid bit for bit: its online cells decide again over
/// windows the drift trigger cuts short.
#[test]
fn quick_serving_cells_match_their_bits() {
    let report = summary::run(&summary::serving_spec(true), 2);
    assert_matches_bits(&report, &golden_dir().join("serving_quick_bits.txt"));
}

#[test]
fn quick_forecast_regret_matches_golden_snapshot() {
    let actual = summary::run(&summary::forecast_spec(true), 2).render_forecast_regret();
    assert_matches_golden(
        "quick forecast regret table",
        &actual,
        &golden_dir().join("forecast_quick.txt"),
    );
}

#[test]
fn quick_migration_churn_matches_golden_snapshot() {
    let actual = summary::run(&summary::migration_spec(true), 2).render_migration();
    assert_matches_golden(
        "quick migration churn table",
        &actual,
        &golden_dir().join("migration_quick.txt"),
    );
}

#[test]
fn quick_serving_table_matches_golden_snapshot() {
    let actual = summary::run(&summary::serving_spec(true), 2).render_serving();
    assert_matches_golden(
        "quick serving table",
        &actual,
        &golden_dir().join("serving_quick.txt"),
    );
}

#[test]
fn tolerance_diff_flags_real_drift_only() {
    assert!(diff_with_tolerance("a 1.00 b", "a 1.01 b").is_empty());
    assert!(diff_with_tolerance("a 100.4 b", "a 100.0 b").is_empty());
    assert!(!diff_with_tolerance("a 2.00 b", "a 1.00 b").is_empty());
    assert!(!diff_with_tolerance("a 1.0 b", "c 1.0 b").is_empty());
    assert!(!diff_with_tolerance("a 1.0", "a 1.0 b").is_empty());
    assert!(!diff_with_tolerance("a 1.0 b\nextra", "a 1.0 b").is_empty());
}
