//! Tolerance-aware comparison of printed output against a checked-in
//! snapshot, shared by the golden-output tests of the `tests` and `bench`
//! packages (each includes this file as a module).
//!
//! To intentionally refresh a snapshot after a reviewed change, run the
//! test with `UPDATE_GOLDEN=1`.

use std::path::Path;

/// Numbers within `abs` of each other, or within `rel` relatively, are
/// considered equal — generous enough for cross-platform libm drift in the
/// last printed decimal, tight enough to catch real regressions.
const ABS_TOL: f64 = 0.15;
const REL_TOL: f64 = 0.01;

fn numbers_close(actual: f64, expected: f64) -> bool {
    let diff = (actual - expected).abs();
    diff <= ABS_TOL || diff <= REL_TOL * expected.abs()
}

/// Tolerance-aware diff: lines must pair up, tokens must pair up within a
/// line, numeric tokens compare within tolerance, everything else exactly.
pub fn diff_with_tolerance(actual: &str, expected: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let actual_lines: Vec<&str> = actual.lines().collect();
    let expected_lines: Vec<&str> = expected.lines().collect();
    if actual_lines.len() != expected_lines.len() {
        problems.push(format!(
            "line count changed: {} vs golden {}",
            actual_lines.len(),
            expected_lines.len()
        ));
    }
    for (n, (a_line, e_line)) in actual_lines.iter().zip(expected_lines.iter()).enumerate() {
        let a_tokens: Vec<&str> = a_line.split_whitespace().collect();
        let e_tokens: Vec<&str> = e_line.split_whitespace().collect();
        if a_tokens.len() != e_tokens.len() {
            problems.push(format!(
                "line {}: token count {} vs golden {} (`{}` vs `{}`)",
                n + 1,
                a_tokens.len(),
                e_tokens.len(),
                a_line.trim(),
                e_line.trim()
            ));
            continue;
        }
        for (a, e) in a_tokens.iter().zip(e_tokens.iter()) {
            match (a.parse::<f64>(), e.parse::<f64>()) {
                (Ok(av), Ok(ev)) => {
                    if !numbers_close(av, ev) {
                        problems.push(format!(
                            "line {}: {} drifted from golden {} (abs tol {ABS_TOL}, rel tol {REL_TOL})",
                            n + 1,
                            av,
                            ev
                        ));
                    }
                }
                _ => {
                    if a != e {
                        problems.push(format!("line {}: `{a}` != golden `{e}`", n + 1));
                    }
                }
            }
        }
    }
    problems
}

/// Diffs `actual` against the snapshot at `path`, honoring `UPDATE_GOLDEN`.
pub fn assert_matches_golden(what: &str, actual: &str, path: &Path) {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0");
    if update {
        std::fs::write(path, actual).expect("write golden snapshot");
        eprintln!("golden snapshot updated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    let problems = diff_with_tolerance(actual, &expected);
    assert!(
        problems.is_empty(),
        "{what} drifted from {} ({} problems):\n  {}\n\nfull output:\n{}",
        path.display(),
        problems.len(),
        problems.join("\n  "),
        actual
    );
}
