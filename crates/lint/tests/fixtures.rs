//! Per-rule fixture pairs: every rule must fire on its `_fire.rs` fixture
//! and stay completely quiet on its `_clean.rs` twin.
//!
//! Fixtures are data, not compiled code — they live under
//! `tests/fixtures/` (which `lint_workspace` skips) and are fed to
//! [`lint_source`] under a *virtual* workspace-relative path chosen to land
//! inside the rule's scope, so path-scoped rules are exercised exactly as
//! in a real `--workspace` run.

use carbonedge_lint::{lint_source, BAD_ALLOW};
use std::path::Path;

/// (rule id, fire fixture, clean fixture, virtual path inside the rule's scope)
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "float-order",
        "float_order_fire.rs",
        "float_order_clean.rs",
        "crates/solver/src/fx.rs",
    ),
    (
        "lock-poison",
        "lock_poison_fire.rs",
        "lock_poison_clean.rs",
        "crates/sim/src/fx.rs",
    ),
    (
        "ordered-iteration",
        "ordered_iteration_fire.rs",
        "ordered_iteration_clean.rs",
        "crates/analysis/src/fx.rs",
    ),
    (
        "ordered-iteration",
        "ordered_iteration_fire.rs",
        "ordered_iteration_clean.rs",
        "crates/solver/src/fx.rs",
    ),
    (
        "wall-clock",
        "wall_clock_fire.rs",
        "wall_clock_clean.rs",
        "crates/sweep/src/fx.rs",
    ),
    (
        "unit-hygiene",
        "unit_hygiene_fire.rs",
        "unit_hygiene_clean.rs",
        "crates/core/src/fx.rs",
    ),
    (
        "lossy-cast",
        "lossy_cast_fire.rs",
        "lossy_cast_clean.rs",
        "crates/solver/src/fx.rs",
    ),
    (
        "unsafe-free",
        "unsafe_free_fire.rs",
        "unsafe_free_clean.rs",
        "crates/core/src/lib.rs",
    ),
    (
        "shim-purity",
        "shim_purity_fire.rs",
        "shim_purity_clean.rs",
        "crates/core/src/fx.rs",
    ),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

#[test]
fn every_rule_has_a_firing_and_a_clean_fixture() {
    for (rule, fire, clean, path) in CASES {
        let findings = lint_source(path, &fixture(fire));
        assert!(
            findings.iter().any(|d| d.rule == *rule),
            "{fire} under {path} must fire `{rule}`, got: {findings:?}"
        );

        let findings = lint_source(path, &fixture(clean));
        assert!(
            findings.is_empty(),
            "{clean} under {path} must produce no findings at all, got: {findings:?}"
        );
    }
}

#[test]
fn fixture_findings_carry_location_and_excerpt() {
    let findings = lint_source("crates/solver/src/fx.rs", &fixture("float_order_fire.rs"));
    let hit = findings
        .iter()
        .find(|d| d.rule == "float-order")
        .expect("float-order fires on its fixture");
    assert_eq!(hit.path, "crates/solver/src/fx.rs");
    assert!(hit.line > 0);
    assert!(
        hit.excerpt.contains("partial_cmp"),
        "excerpt shows the offending line: {hit:?}"
    );
}

#[test]
fn an_allow_with_a_reason_silences_a_fixture_finding() {
    let fire = fixture("lock_poison_fire.rs");
    let suppressed = fire.replace(
        "*counter.lock().unwrap()",
        "// lint:allow(lock-poison): fixture exercising the suppression path\n    *counter.lock().unwrap()",
    );
    assert_ne!(fire, suppressed, "the replacement site must exist");
    let findings = lint_source("crates/sim/src/fx.rs", &suppressed);
    assert!(
        findings.is_empty(),
        "a reasoned allow silences the finding: {findings:?}"
    );
}

#[test]
fn an_allow_without_a_reason_is_itself_an_error_and_suppresses_nothing() {
    let fire = fixture("lock_poison_fire.rs");
    let suppressed = fire.replace(
        "*counter.lock().unwrap()",
        "// lint:allow(lock-poison)\n    *counter.lock().unwrap()",
    );
    let findings = lint_source("crates/sim/src/fx.rs", &suppressed);
    let rules: Vec<&str> = findings.iter().map(|d| d.rule).collect();
    assert!(
        rules.contains(&BAD_ALLOW),
        "a reasonless allow is a finding: {findings:?}"
    );
    assert!(
        rules.contains(&"lock-poison"),
        "a reasonless allow must not suppress: {findings:?}"
    );
}

#[test]
fn rules_respect_their_path_scope() {
    // The same wall-clock read is a finding inside the sweep engine and
    // legitimate at the bench edge, where measurement belongs.
    let fire = fixture("wall_clock_fire.rs");
    let in_scope = lint_source("crates/sweep/src/fx.rs", &fire);
    assert!(in_scope.iter().any(|d| d.rule == "wall-clock"));
    let out_of_scope = lint_source("crates/bench/src/fx.rs", &fire);
    assert!(
        out_of_scope.iter().all(|d| d.rule != "wall-clock"),
        "bench may read the clock: {out_of_scope:?}"
    );
}
