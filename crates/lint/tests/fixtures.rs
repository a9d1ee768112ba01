//! Per-rule fixture pairs: every rule must fire on its `_fire.rs` fixture
//! and stay completely quiet on its `_clean.rs` twin.
//!
//! Fixtures are data, not compiled code — they live under
//! `tests/fixtures/` (which `lint_workspace` skips) and are fed to
//! [`lint_source`] under a *virtual* workspace-relative path chosen to land
//! inside the rule's scope, so path-scoped rules are exercised exactly as
//! in a real `--workspace` run.

use carbonedge_lint::{lint_files, lint_source, BAD_ALLOW};
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
        "wall-clock",
        "wall_clock_fire.rs",
        "wall_clock_clean.rs",
        "crates/core/src/fx.rs",
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

#[test]
fn wall_clock_flags_each_cpu_count_read() {
    // The rayon calls read the CPU count on every use, so each is a finding
    // of its own, not only `available_parallelism` itself.
    let findings = lint_source("crates/sim/src/fx.rs", &fixture("wall_clock_fire.rs"));
    for token in ["Instant", "par_iter_mut", "par_iter", "current_num_threads"] {
        let needle = format!("`{token}`");
        assert!(
            findings
                .iter()
                .any(|d| d.rule == "wall-clock" && d.message.contains(&needle)),
            "{needle} is not flagged: {findings:?}"
        );
    }
}

#[test]
fn unreached_pub_counts_only_non_test_code_as_reaching() {
    // A library with one reached and one unreached item.  The binary
    // reaches the first; the second is called only from the library's own
    // test module and from an integration test, and neither counts.
    let workspace = [
        (
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn reached() -> u8 { 1 }\n\
             pub fn unreached() -> u8 { 2 }\n\
             #[cfg(test)]\n\
             mod tests {\n    #[test]\n    fn t() { assert_eq!(super::unreached(), 2); }\n}\n",
        ),
        (
            "crates/demo/src/main.rs",
            "#![forbid(unsafe_code)]\nfn main() { println!(\"{}\", carbonedge_demo::reached()); }\n",
        ),
        (
            "crates/demo/tests/it.rs",
            "#[test]\nfn it() { assert_eq!(carbonedge_demo::unreached(), 2); }\n",
        ),
    ];
    let files: Vec<(String, String)> = workspace
        .iter()
        .map(|(path, source)| (path.to_string(), source.to_string()))
        .collect();
    let findings = lint_files(&files);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "unreached-pub");
    assert_eq!(findings[0].path, "crates/demo/src/lib.rs");
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("`pub fn unreached`"));
}

/// Two libraries that each declare `pub fn twin`, and a binary that names
/// both crates and runs `main_body`.
fn twin_workspace(main_body: &str) -> Vec<(String, String)> {
    let lib = "#![forbid(unsafe_code)]\npub fn twin() -> u8 { 1 }\n";
    let main = format!(
        "#![forbid(unsafe_code)]\nuse carbonedge_one as _;\nuse carbonedge_two as _;\n\
         fn main() {{ {main_body} }}\n"
    );
    vec![
        ("crates/one/src/lib.rs".to_string(), lib.to_string()),
        ("crates/two/src/lib.rs".to_string(), lib.to_string()),
        ("crates/app/src/main.rs".to_string(), main),
    ]
}

#[test]
fn unreached_pub_same_name_declarations_do_not_reach_each_other() {
    let findings = lint_files(&twin_workspace(""));
    let paths: Vec<&str> = findings.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(
        paths,
        ["crates/one/src/lib.rs", "crates/two/src/lib.rs"],
        "{findings:?}"
    );
    for d in &findings {
        assert_eq!(d.rule, "unreached-pub");
        assert_eq!(d.line, 2);
        assert!(d.message.contains("`pub fn twin`"));
    }
}

#[test]
fn unreached_pub_one_use_of_a_name_clears_every_declaration() {
    // `carbonedge_two::twin` stays dead, but name matching cannot tell which
    // `twin` the call reaches: the rule's documented under-report.
    let findings = lint_files(&twin_workspace("let _ = carbonedge_one::twin();"));
    assert!(findings.is_empty(), "{findings:?}");
}
