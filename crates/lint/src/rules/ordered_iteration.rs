//! `ordered-iteration`: no iteration over hash containers in output paths.
//!
//! The bug class: `HashMap`/`HashSet` iteration order is randomized per
//! process, so a report renderer, analysis table or bench snapshot that
//! iterates one leaks that order straight into golden files and
//! `BENCH_*.json` diffs.  The workspace's rendering convention is
//! *first-occurrence order*: aggregation maps are fine for O(1) lookup, but
//! anything iterated must be a `BTreeMap`/`BTreeSet`, an explicit `order`
//! vector, or sorted first (`sweep::report` is the worked example).
//!
//! Scope: the report-rendering and output crates (`sweep::report`,
//! `analysis`, `bench`) — the paths whose output is golden-tested — and
//! `solver`, whose decomposition promises ascending-index determinism and
//! holds no hash container.
//!
//! Detection is two-pass: bindings (and struct fields / fn params) whose
//! declaration mentions `HashMap`/`HashSet` are collected, then any
//! iteration of a tracked name — `for .. in name`, `name.iter()`,
//! `.keys()`, `.values()`, `.drain(..)`, `.retain(..)`, `.into_iter()` —
//! fires.  Lookups (`.get`, `.entry`, indexing) never fire.

use super::{ident_ending_at, FileContext, Rule};
use crate::diag::Diagnostic;
use std::collections::BTreeSet;

pub struct OrderedIteration;

/// Methods that iterate a hash container in its arbitrary order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

impl Rule for OrderedIteration {
    fn id(&self) -> &'static str {
        "ordered-iteration"
    }

    fn summary(&self) -> &'static str {
        "output paths must not iterate HashMap/HashSet: order leaks into golden files"
    }

    fn applies_to(&self, path: &str) -> bool {
        path == "crates/sweep/src/report.rs"
            || path.starts_with("crates/analysis/src/")
            || path.starts_with("crates/bench/src/")
            || path.starts_with("crates/solver/src/")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        let tracked = tracked_bindings(&ctx.masked_lines);
        if tracked.is_empty() {
            return;
        }
        for (i, line) in ctx.masked_lines.iter().enumerate() {
            for name in &tracked {
                if iterates(line, name) {
                    out.push(ctx.diag(
                        i + 1,
                        self.id(),
                        format!(
                            "`{name}` is a hash container; iterating it here leaks \
                             randomized order into rendered output — use \
                             BTreeMap/BTreeSet, an explicit first-occurrence order \
                             vector, or sort before iterating"
                        ),
                    ));
                    break; // one finding per line is enough
                }
            }
        }
    }
}

/// Collects names bound to `HashMap`/`HashSet` values anywhere in the file:
/// `let (mut) name = HashMap::new()`, `let name: HashMap<..> = ..`,
/// `name: &HashMap<..>` params and `pub name: HashMap<..>` fields.
fn tracked_bindings(lines: &[&str]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for line in lines {
        for ty in ["HashMap", "HashSet"] {
            for at in super::token_positions(line, ty) {
                if let Some(name) = binding_before(line, at) {
                    tracked.insert(name.to_string());
                }
            }
        }
    }
    tracked
}

/// Given the position of a `HashMap`/`HashSet` token, extracts the name it
/// is bound to on the same line: the identifier before the nearest `=`
/// (let-binding) or `:` (param / field / type ascription), if any.
fn binding_before(line: &str, ty_at: usize) -> Option<&str> {
    let head = &line[..ty_at];
    // Prefer `name =` (closer binder) over `name :` when both appear.
    let eq = head.rfind('=');
    // The rightmost `:` that is not part of a `::` path separator.
    let colon = head
        .char_indices()
        .rev()
        .find(|&(p, c)| c == ':' && !head[..p].ends_with(':') && !head[p + 1..].starts_with(':'))
        .map(|(p, _)| p);
    let binder = match (eq, colon) {
        (Some(e), Some(c)) => Some(e.max(c)),
        (e, c) => e.or(c),
    }?;
    let name_end = line[..binder].trim_end().len();
    ident_ending_at(line, name_end).filter(|n| {
        // Binder positions inside generics (`fn f() -> HashMap<..>`) or
        // comparison operators produce junk like `let`/`mut`; drop keywords.
        !matches!(*n, "let" | "mut" | "pub" | "ref" | "in" | "fn")
    })
}

/// Whether `line` iterates the tracked binding `name`.
fn iterates(line: &str, name: &str) -> bool {
    for at in super::token_positions(line, name) {
        let after = &line[at + name.len()..];
        // Method-style iteration: `name.iter()`, `name.drain(..)`, ...
        if ITER_METHODS.iter().any(|m| after.starts_with(m)) {
            return true;
        }
        // `for x in name {` / `in &name {` / `in &mut name.clone() {` —
        // direct loop over the container.
        let head = line[..at].trim_end();
        let head = head
            .strip_suffix("&mut")
            .or_else(|| head.strip_suffix('&'))
            .map(str::trim_end)
            .unwrap_or(head);
        if (head.ends_with(" in") || head == "in")
            && ident_ending_at(head, head.len()) == Some("in")
        {
            // Iterating the bare name, or the name followed only by `{`.
            let tail = after.trim_start();
            if tail.is_empty() || tail.starts_with('{') {
                return true;
            }
        }
    }
    false
}
