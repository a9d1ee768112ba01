//! The rule registry: one module per invariant, each encoding a bug class
//! this workspace has already paid for (see the README's invariant catalog).

mod float_order;
mod lock_poison;
mod lossy_cast;
mod ordered_iteration;
mod shim_purity;
mod unit_hygiene;
mod unreached_pub;
mod unsafe_free;
mod wall_clock;

use crate::diag::Diagnostic;
use crate::lexer::{Comment, MaskedSource};

/// Everything a rule may inspect about one `.rs` file.
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// The file verbatim.
    pub original: &'a str,
    /// The file with comments/strings/char literals blanked ([`crate::lexer::mask`]).
    pub masked: &'a str,
    /// `masked`, split into lines (no terminators).
    pub masked_lines: Vec<&'a str>,
    /// `original`, split into lines (no terminators).
    pub original_lines: Vec<&'a str>,
    /// Comments in source order (for suppression parsing — rules themselves
    /// normally work on masked text only).
    pub comments: &'a [Comment],
}

impl<'a> FileContext<'a> {
    /// The context of `original`, masked as `masked`, under `path`.
    pub fn new(path: &'a str, original: &'a str, masked: &'a MaskedSource) -> Self {
        FileContext {
            path,
            original,
            masked: &masked.masked,
            masked_lines: masked.masked.lines().collect(),
            original_lines: original.lines().collect(),
            comments: &masked.comments,
        }
    }

    /// Builds a diagnostic at `line` (1-based) with the original line as the
    /// excerpt.
    pub fn diag(&self, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            path: self.path.to_string(),
            line,
            rule,
            message,
            excerpt: self
                .original_lines
                .get(line.saturating_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }

    /// 1-based line number of a byte offset into `masked`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.masked[..offset.min(self.masked.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count()
            + 1
    }
}

/// A project-invariant lint rule.
pub trait Rule {
    /// Kebab-case id used in diagnostics, `-D` flags and `lint:allow`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Whether the rule's per-file pass runs on a workspace-relative `.rs`
    /// path.  Path scoping is part of the invariant: e.g. wall-clock reads
    /// are fine in `bench` but not in decision logic.
    fn applies_to(&self, path: &str) -> bool;
    /// Scans one file and appends findings.
    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>);
    /// Scans one manifest (`Cargo.toml`); most rules don't.
    fn check_manifest(&self, _path: &str, _contents: &str, _out: &mut Vec<Diagnostic>) {}
    /// Scans every walked `.rs` file at once, after the per-file pass; only
    /// rules about the whole tree do.  Findings must land on `crates/`
    /// files, where suppressions are read.
    fn check_workspace(&self, _files: &[FileContext<'_>], _out: &mut Vec<Diagnostic>) {}
}

/// The full registry, in diagnostic-output order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_order::FloatOrder),
        Box::new(lock_poison::LockPoison),
        Box::new(ordered_iteration::OrderedIteration),
        Box::new(wall_clock::WallClock),
        Box::new(unit_hygiene::UnitHygiene),
        Box::new(lossy_cast::LossyCast),
        Box::new(unsafe_free::UnsafeFree),
        Box::new(shim_purity::ShimPurity),
        Box::new(unreached_pub::UnreachedPub),
    ]
}

/// All rule ids, for `--list-rules` and allow-target validation.
pub fn rule_ids() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.id()).collect()
}

/// Splits an identifier-ish character test shared by several rules.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Returns the identifier ending at byte `end` (exclusive) of `line`, if the
/// characters before `end` form one.
pub(crate) fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let head = &line[..end];
    let start = head
        .rfind(|c: char| !is_ident_char(c))
        .map(|p| p + head[p..].chars().next().map_or(1, char::len_utf8))
        .unwrap_or(0);
    let ident = &head[start..];
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then_some(ident)
}

/// Returns the identifier starting at byte `start` of `line`, if any.
pub(crate) fn ident_starting_at(line: &str, start: usize) -> Option<&str> {
    let tail = &line[start..];
    let end = tail.find(|c: char| !is_ident_char(c)).unwrap_or(tail.len());
    let ident = &tail[..end];
    (!ident.is_empty()).then_some(ident)
}

/// Finds every occurrence of `needle` in `hay` that is not embedded in a
/// larger identifier (token match, not substring match).
pub(crate) fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        let after = at + needle.len();
        let after_ok =
            after >= hay.len() || !is_ident_char(hay[after..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab_case() {
        let ids = rule_ids();
        assert_eq!(ids.len(), 9);
        for id in &ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{id}"
            );
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn token_positions_respect_identifier_boundaries() {
        assert_eq!(token_positions("unsafe fn", "unsafe"), vec![0]);
        assert!(token_positions("unsafer fn", "unsafe").is_empty());
        assert!(token_positions("my_unsafe", "unsafe").is_empty());
        assert_eq!(token_positions("a unsafe b unsafe", "unsafe"), vec![2, 11]);
    }

    #[test]
    fn ident_helpers_extract_boundaries() {
        let line = "let carbon_g = energy_kwh * x;";
        assert_eq!(ident_ending_at(line, 12), Some("carbon_g"));
        assert_eq!(ident_starting_at(line, 15), Some("energy_kwh"));
        assert_eq!(ident_ending_at(line, 3), Some("let"));
        assert_eq!(ident_ending_at("  9abc", 6), None);
    }
}
