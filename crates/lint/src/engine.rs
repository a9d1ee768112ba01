//! The lint engine: file walking, suppression handling, rule dispatch.
//!
//! A run has two phases. The per-file pass runs every rule's `check` on each
//! `crates/**/*.rs` file on its own. The workspace pass then runs every
//! rule's `check_workspace` once over all walked files, for rules that need
//! the whole tree at once (`unreached-pub`). Suppressions apply to both.

use crate::diag::Diagnostic;
use crate::lexer::{mask, Comment};
use crate::rules::{all_rules, rule_ids, FileContext, Rule};
use std::path::{Path, PathBuf};

/// Roots outside `crates/` that the walk reads for the workspace pass only:
/// their code reaches library items, but the per-file rules keep their
/// `crates/` scope.
const REACHING_ROOTS: &[&str] = &["examples", "perfbench/src"];

/// Pseudo-rule id for malformed suppressions.  Not suppressible: an allow
/// that cannot state its reason is exactly the kind of entry the mandatory
/// reason exists to prevent.
pub const BAD_ALLOW: &str = "bad-allow";

/// A parsed `// lint:allow(rule, ...): reason` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line of the comment; the allow covers this line and the next.
    pub line: usize,
    /// Rule ids it suppresses.
    pub rules: Vec<String>,
}

/// Parses suppressions out of a file's comments.  A suppression must be the
/// whole comment — the text begins with `lint:allow` — so prose that merely
/// *mentions* the syntax (like these docs) never parses.  Malformed allows
/// (missing reason, unknown rule, broken syntax) come back as [`BAD_ALLOW`]
/// diagnostics instead of silently suppressing nothing.
pub fn parse_allows(
    path: &str,
    comments: &[Comment],
    original_lines: &[&str],
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let known = rule_ids();
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let mut diag = |line: usize, message: String| {
        bad.push(Diagnostic {
            path: path.to_string(),
            line,
            rule: BAD_ALLOW,
            message,
            excerpt: original_lines
                .get(line.saturating_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };
    for comment in comments {
        if !comment.text.starts_with("lint:allow") {
            continue;
        }
        let rest = comment.text["lint:allow".len()..].trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            diag(
                comment.line,
                "malformed suppression: expected `lint:allow(rule, ...): reason`".to_string(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            diag(
                comment.line,
                "malformed suppression: unclosed rule list in `lint:allow(...)`".to_string(),
            );
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            diag(
                comment.line,
                "suppression allows no rules: name at least one rule id".to_string(),
            );
            continue;
        }
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !known.contains(&r.as_str()))
            .collect();
        if !unknown.is_empty() {
            diag(
                comment.line,
                format!(
                    "suppression names unknown rule(s) {}: known rules are {}",
                    unknown
                        .iter()
                        .map(|r| format!("`{r}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    known.join(", ")
                ),
            );
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diag(
                comment.line,
                "suppression without a reason: write `lint:allow(rule): <why this \
                 site is exempt>` — the reason is the audit trail"
                    .to_string(),
            );
            continue;
        }
        allows.push(Allow {
            line: comment.line,
            rules,
        });
    }
    (allows, bad)
}

/// Lints one `.rs` source under a workspace-relative `path` with the full
/// rule registry's per-file pass.  Suppressions are applied; malformed
/// suppressions are findings themselves.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_source_with(path, source, &all_rules())
}

/// [`lint_source`] against an explicit rule set (fixture tests use this to
/// run a single rule).
pub fn lint_source_with(path: &str, source: &str, rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let masked = mask(source);
    let ctx = FileContext::new(path, source, &masked);
    let mut findings = Vec::new();
    check_file(&ctx, rules, &mut findings);
    suppress(&ctx, findings)
}

/// Lints a set of workspace files, each a (workspace-relative path,
/// contents) pair: the per-file pass and the manifest checks on every
/// `crates/` file, then the workspace pass over every `.rs` file.  Returns
/// the findings sorted by (path, line, rule).
pub fn lint_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let rules = all_rules();
    let sources: Vec<(&str, &str, _)> = files
        .iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .map(|(path, contents)| (path.as_str(), contents.as_str(), mask(contents)))
        .collect();
    let contexts: Vec<FileContext<'_>> = sources
        .iter()
        .map(|(path, contents, masked)| FileContext::new(path, contents, masked))
        .collect();

    let mut workspace = Vec::new();
    for rule in &rules {
        rule.check_workspace(&contexts, &mut workspace);
    }

    let mut findings = Vec::new();
    for ctx in contexts
        .iter()
        .filter(|ctx| ctx.path.starts_with("crates/"))
    {
        let mut own: Vec<Diagnostic> = workspace.extract_if(.., |d| d.path == ctx.path).collect();
        check_file(ctx, &rules, &mut own);
        findings.extend(suppress(ctx, own));
    }
    for (path, contents) in files {
        if path.starts_with("crates/") && path.ends_with("Cargo.toml") {
            findings.extend(lint_manifest(path, contents));
        }
    }
    findings.extend(workspace);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Runs the per-file pass of every rule whose scope covers `ctx.path`.
fn check_file(ctx: &FileContext<'_>, rules: &[Box<dyn Rule>], out: &mut Vec<Diagnostic>) {
    for rule in rules {
        if rule.applies_to(ctx.path) {
            rule.check(ctx, out);
        }
    }
}

/// Drops the findings that an allow in `ctx` covers, adds the malformed
/// allows as findings, and sorts by (line, rule).
fn suppress(ctx: &FileContext<'_>, mut findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let (allows, mut bad) = parse_allows(ctx.path, ctx.comments, &ctx.original_lines);
    findings.retain(|d| {
        !allows.iter().any(|a| {
            (a.line == d.line || a.line + 1 == d.line) && a.rules.iter().any(|r| r == d.rule)
        })
    });
    findings.append(&mut bad);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Lints one manifest (`Cargo.toml`) under a workspace-relative `path`.
pub fn lint_manifest(path: &str, contents: &str) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for rule in all_rules() {
        rule.check_manifest(path, contents, &mut findings);
    }
    findings
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints the workspace under `root`: [`lint_files`] over
/// [`workspace_files`].
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(lint_files(&workspace_files(root)?))
}

/// The files a workspace run reads, as (workspace-relative path, contents)
/// pairs sorted by path: every `crates/**/*.rs` and `crates/**/Cargo.toml`,
/// and the `.rs` files under `examples/` and `perfbench/src`.  The linter's
/// own rule fixtures (`crates/lint/tests/fixtures/`) are deliberately-firing
/// inputs and are skipped.  A missing root is an error, so a walk cannot
/// silently lose the code that reaches a library item.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    collect_files(&root.join("crates"), &mut paths)?;
    for extra in REACHING_ROOTS {
        let mut found = Vec::new();
        collect_files(&root.join(extra), &mut found)?;
        paths.extend(
            found
                .into_iter()
                .filter(|p| p.extension().is_some_and(|e| e == "rs")),
        );
    }
    let mut files = Vec::new();
    for path in paths {
        let rel = relative_path(root, &path);
        if !rel.starts_with("crates/lint/tests/fixtures/") {
            files.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` and `Cargo.toml` files, skipping `target`.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// `file` relative to `root`, with forward slashes.
pub fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_with_reason_suppresses_same_line() {
        let src = "fn f(a: f64, b: f64) {\n    a.partial_cmp(&b); // lint:allow(float-order): exercising the comparison API itself\n}\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn preceding_line_allow_suppresses_next_line() {
        let src = "// lint:allow(float-order): exercising the comparison API itself\nlet c = a.partial_cmp(&b);\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_without_reason_is_itself_a_finding() {
        let src = "let c = a.partial_cmp(&b); // lint:allow(float-order)\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        let rules: Vec<&str> = findings.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&BAD_ALLOW), "{findings:?}");
        assert!(
            rules.contains(&"float-order"),
            "a malformed allow must not suppress: {findings:?}"
        );
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let src = "let x = 1; // lint:allow(no-such-rule): because\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, BAD_ALLOW);
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn allow_covers_only_its_own_rule() {
        let src = "// lint:allow(lock-poison): wrong rule named\nlet c = a.partial_cmp(&b);\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "float-order");
    }

    #[test]
    fn multi_rule_allow_suppresses_both() {
        let src = "// lint:allow(float-order, unsafe-free): fixture exercising both\nlet c = unsafe { a.partial_cmp(&b) };\n";
        let findings = lint_source("crates/sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn workspace_root_is_found_from_nested_dirs() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }
}
