//! The self-check: the workspace this linter ships in must lint clean.
//!
//! This is the same walk CI's `lint-invariants` job performs
//! (`cargo run -p carbonedge-lint -- --workspace -D all`), run as a plain
//! test so `cargo test` alone catches a regression — a reintroduced
//! wall-clock read, a bare lock unwrap, a crate missing
//! `#![forbid(unsafe_code)]`, a `pub` item nothing reaches, or a
//! suppression that lost its reason.

use carbonedge_lint::{
    find_workspace_root, lint_files, lint_workspace, render, workspace_files, Diagnostic,
    OutputFormat,
};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("a [workspace] manifest above crates/lint")
}

#[test]
fn the_workspace_itself_lints_clean() {
    let findings = lint_workspace(&root()).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; fix or `lint:allow` (with a reason) each of:\n{}",
        render(&findings, OutputFormat::Human)
    );
}

#[test]
fn the_workspace_walk_covers_every_crate() {
    // Guard against the walker silently skipping crates or the roots whose
    // code reaches library items: collecting zero findings is only
    // meaningful if the walk actually visited the tree.
    let files = workspace_files(&root()).expect("workspace walk succeeds");
    let walked = |prefix: &str| files.iter().any(|(path, _)| path.starts_with(prefix));
    for member in [
        "geo", "grid", "net", "datasets", "workload", "solver", "core", "cluster", "analysis",
        "sim", "sweep", "bench", "lint",
    ] {
        assert!(
            walked(&format!("crates/{member}/Cargo.toml"))
                && walked(&format!("crates/{member}/src/")),
            "the walk missed crates/{member} — update this list and the linter's coverage \
             expectations together"
        );
    }
    for reaching in ["examples/", "perfbench/src/"] {
        assert!(walked(reaching), "the walk missed {reaching}");
    }
}

#[test]
fn items_only_perfbench_reaches_are_not_findings() {
    // Only perfbench's non-test code names these two items, so both turn
    // into findings when perfbench/src leaves the walk: a walk that silently
    // skips it fails here.
    let files = workspace_files(&root()).expect("workspace walk succeeds");
    let without_perfbench: Vec<(String, String)> = files
        .iter()
        .filter(|(path, _)| !path.starts_with("perfbench/"))
        .cloned()
        .collect();
    let flags = |findings: &[Diagnostic], item: &str| {
        let needle = format!(" {item}`");
        findings
            .iter()
            .any(|d| d.rule == "unreached-pub" && d.message.contains(&needle))
    };
    let with = lint_files(&files);
    let without = lint_files(&without_perfbench);
    for item in ["cached_prep_count", "objective_of"] {
        assert!(
            !flags(&with, item),
            "{item} is a finding: the walk lost perfbench/src"
        );
        assert!(
            flags(&without, item),
            "{item} is no longer reached by perfbench/src alone: guard with an item that is"
        );
    }
}
