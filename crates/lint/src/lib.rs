#![forbid(unsafe_code)]
//! `carbonedge-lint`: the workspace invariant linter.
//!
//! This crate turns the determinism and accounting contracts the repo has
//! so far defended by review — bit-identical results across job counts,
//! warm/cold solver paths and prepped/cold sweeps; carbon accounting that
//! never silently mixes or truncates units — into enforced static checks
//! that run on every push (`cargo run -p carbonedge-lint -- --workspace -D all`).
//!
//! The analyzer is deliberately self-contained and source-level: a small
//! Rust lexer ([`lexer`]) blanks comments/strings/char literals so rules
//! match only real code, a rule registry ([`rules`]) encodes nine
//! project-specific invariants with per-rule path scoping, and the engine
//! ([`engine`]) walks `crates/**` file by file, then runs a workspace pass
//! over those files plus `examples/` and `perfbench/src` for rules about
//! the whole tree (`unreached-pub`), applies
//! `// lint:allow(rule): reason` suppressions (the reason is mandatory —
//! every exemption is an audit-trail entry), and renders human or JSON
//! diagnostics ([`diag`]).
//!
//! Each rule exists because the bug class already shipped once, or because
//! the workspace holds a property worth locking in; see the README's
//! "Static analysis & invariant catalog" for the per-rule history and the
//! "Adding a lint rule" recipe.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use diag::{render, Diagnostic, OutputFormat};
pub use engine::{
    find_workspace_root, lint_files, lint_manifest, lint_source, lint_source_with, lint_workspace,
    workspace_files, BAD_ALLOW,
};
pub use rules::{all_rules, rule_ids, Rule};
