#![forbid(unsafe_code)]
//! `carbonedge-lint` — the workspace invariant linter CLI.
//!
//! ```text
//! carbonedge-lint --workspace [-D all | -D <rule>]... [--format json]
//! carbonedge-lint <path>... [-D ...] [--format json]
//! carbonedge-lint --list-rules
//! ```
//!
//! Named paths get the per-file rules only; the rules on the workspace
//! pass (`unreached-pub`) need the whole tree, so only `--workspace` runs
//! them.
//!
//! Exit status: 0 when no denied finding fired (findings still print as
//! warnings), 1 when a denied rule fired, 2 on usage or I/O errors.  CI
//! runs `--workspace -D all`.

use carbonedge_lint::{all_rules, render, Diagnostic, OutputFormat};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    workspace: bool,
    paths: Vec<PathBuf>,
    deny_all: bool,
    deny: Vec<String>,
    format: OutputFormat,
    list_rules: bool,
}

const USAGE: &str = "usage: carbonedge-lint [--workspace | <path>...] \
                     [-D all | -D <rule>]... [--format json|human] [--list-rules]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        paths: Vec::new(),
        deny_all: false,
        deny: Vec::new(),
        format: OutputFormat::Human,
        list_rules: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => opts.workspace = true,
            "--list-rules" => opts.list_rules = true,
            "-D" | "--deny" => {
                i += 1;
                let value = args.get(i).ok_or("-D requires a rule id or `all`")?;
                if value == "all" {
                    opts.deny_all = true;
                } else {
                    opts.deny.push(value.clone());
                }
            }
            "--format" => {
                i += 1;
                opts.format = match args.get(i).map(String::as_str) {
                    Some("json") => OutputFormat::Json,
                    Some("human") => OutputFormat::Human,
                    other => {
                        return Err(format!("--format expects `json` or `human`, got {other:?}"))
                    }
                };
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    // Deny targets must be real rules, or typos silently gate nothing.
    let known = carbonedge_lint::rule_ids();
    for rule in &opts.deny {
        if !known.contains(&rule.as_str()) && rule != carbonedge_lint::BAD_ALLOW {
            return Err(format!(
                "-D names unknown rule `{rule}`; known: {}",
                known.join(", ")
            ));
        }
    }
    if !opts.list_rules && !opts.workspace && opts.paths.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in all_rules() {
            println!("{:<18} {}", rule.id(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().expect("current directory is readable");
    let Some(root) = carbonedge_lint::find_workspace_root(&cwd) else {
        eprintln!("error: no workspace root (a Cargo.toml with [workspace]) above {cwd:?}");
        return ExitCode::from(2);
    };

    let mut findings: Vec<Diagnostic> = Vec::new();
    if opts.workspace {
        match carbonedge_lint::lint_workspace(&root) {
            Ok(found) => findings.extend(found),
            Err(err) => {
                eprintln!("error: walking the workspace failed: {err}");
                return ExitCode::from(2);
            }
        }
    }
    for path in &opts.paths {
        match lint_one(&root, &cwd, path) {
            Ok(found) => findings.extend(found),
            Err(err) => {
                eprintln!("error: {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    print!("{}", render(&findings, opts.format));

    let denied = findings
        .iter()
        .any(|d| opts.deny_all || opts.deny.iter().any(|r| r == d.rule));
    if denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Lints one explicitly-named file, resolving its workspace-relative path so
/// rule scoping applies exactly as in `--workspace` mode.
fn lint_one(root: &Path, cwd: &Path, path: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let absolute = if path.is_absolute() {
        path.to_path_buf()
    } else {
        cwd.join(path)
    };
    let absolute = absolute.canonicalize()?;
    let rel = carbonedge_lint::engine::relative_path(root, &absolute);
    let contents = std::fs::read_to_string(&absolute)?;
    Ok(if rel.ends_with("Cargo.toml") {
        carbonedge_lint::lint_manifest(&rel, &contents)
    } else {
        carbonedge_lint::lint_source(&rel, &contents)
    })
}
