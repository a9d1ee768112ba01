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
use golden::{assert_matches_golden, diff_with_tolerance};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/experiments_quick.txt")
}

fn default_grid_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/sweep_default.txt")
}

fn forecast_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/forecast_quick.txt")
}

fn migration_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/migration_quick.txt")
}

fn serving_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/serving_quick.txt")
}

#[test]
fn quick_sweep_summary_matches_golden_snapshot() {
    let actual = summary::run(&summary::sweep_spec(true), 2).render();
    assert_matches_golden("quick sweep summary", &actual, &golden_path());
}

/// The 120-site default grid `experiments --sweep` prints; the quick
/// snapshots stop at 40 sites.
#[test]
fn default_grid_sweep_summary_matches_golden_snapshot() {
    let actual = summary::run(&summary::sweep_spec(false), 2).render();
    assert_matches_golden(
        "default-grid sweep summary",
        &actual,
        &default_grid_golden_path(),
    );
}

#[test]
fn quick_forecast_regret_matches_golden_snapshot() {
    let actual = summary::run(&summary::forecast_spec(true), 2).render_forecast_regret();
    assert_matches_golden(
        "quick forecast regret table",
        &actual,
        &forecast_golden_path(),
    );
}

#[test]
fn quick_migration_churn_matches_golden_snapshot() {
    let actual = summary::run(&summary::migration_spec(true), 2).render_migration();
    assert_matches_golden(
        "quick migration churn table",
        &actual,
        &migration_golden_path(),
    );
}

#[test]
fn quick_serving_table_matches_golden_snapshot() {
    let actual = summary::run(&summary::serving_spec(true), 2).render_serving();
    assert_matches_golden("quick serving table", &actual, &serving_golden_path());
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
