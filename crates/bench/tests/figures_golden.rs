//! Golden-output regression test for the paper figures: the stdout of
//! `experiments --quick` over every figure and table except Fig. 17 (which
//! prints wall times) is snapshotted under `tests/golden/` and compared
//! token-by-token with the numeric tolerances of the sweep goldens.  Figs.
//! 1–10 and Table 1 read the grid, network, dataset and workload code that
//! no sweep golden reaches.
//!
//! To intentionally refresh the snapshot after a reviewed change:
//! `UPDATE_GOLDEN=1 cargo test -q -p carbonedge-bench --test figures_golden`.

#[path = "../../../tests/support/golden.rs"]
mod golden;

use std::path::PathBuf;
use std::process::Command;

const FIGURES: [&str; 16] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16",
];

#[test]
fn quick_figures_match_golden_snapshot() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--quick")
        .args(FIGURES)
        .output()
        .expect("run the experiments binary");
    assert!(
        output.status.success(),
        "experiments exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("experiments prints UTF-8");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures_quick.txt");
    golden::assert_matches_golden("quick figure suite", &actual, &path);
}
