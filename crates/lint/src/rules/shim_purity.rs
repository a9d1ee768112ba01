//! `shim-purity`: the `shims/` seam is a manifest-only detail.
//!
//! The workspace builds offline against API-compatible dependency shims
//! under `shims/` (serde/rand/rayon/proptest).  The whole design rests on
//! one property: swapping a shim for the real registry crate is a change
//! to the **root manifest only** (`[workspace.dependencies]`).  That
//! property dies the moment any crate reaches around the seam — a
//! `path = "../../shims/..."` dependency in a crate manifest, a
//! `#[path = ".../shims/..."]` module, an `include!` of shim source, or a
//! `shims::` path in code.  This rule bans the token `shims` from every
//! crate manifest and source file; only the root `Cargo.toml` (the seam
//! itself) may name it.
//!
//! Scope: everything under `crates/` except this linter (whose sources and
//! docs must name the seam to describe it).

use super::{FileContext, Rule};
use crate::diag::Diagnostic;

pub struct ShimPurity;

impl Rule for ShimPurity {
    fn id(&self) -> &'static str {
        "shim-purity"
    }

    fn summary(&self) -> &'static str {
        "only the root manifest may reference shims/ — crates use the workspace seam"
    }

    fn applies_to(&self, path: &str) -> bool {
        path.starts_with("crates/") && !path.starts_with("crates/lint/")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        // Scan the *original* source: the references that break the seam
        // live in attribute strings (`#[path = "..."]`, `include!("...")`),
        // which masking blanks out.
        for (i, line) in ctx.original_lines.iter().enumerate() {
            if references_shims(line) {
                out.push(
                    ctx.diag(
                        i + 1,
                        self.id(),
                        "source references `shims` directly — depend through \
                     `[workspace.dependencies]` so the registry swap stays a \
                     root-manifest-only change"
                            .to_string(),
                    ),
                );
            }
        }
    }

    fn check_manifest(&self, path: &str, contents: &str, out: &mut Vec<Diagnostic>) {
        if !self.applies_to(path) {
            return;
        }
        for (i, line) in contents.lines().enumerate() {
            if references_shims(line) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: i + 1,
                    rule: self.id(),
                    message: "crate manifest references `shims/` — declare the \
                              dependency as `{ workspace = true }` and keep the \
                              path mapping in the root `[workspace.dependencies]`"
                        .to_string(),
                    excerpt: line.trim().to_string(),
                });
            }
        }
    }
}

/// Whether a line mentions the shim directory as a path or module.
fn references_shims(line: &str) -> bool {
    super::token_positions(line, "shims").into_iter().any(|at| {
        let after = line[at + "shims".len()..].chars().next();
        matches!(after, Some('/') | Some(':') | Some('"') | None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_module_references_fire() {
        assert!(references_shims("rand = { path = \"../../shims/rand\" }"));
        assert!(references_shims(
            "#[path = \"../../shims/rand/src/lib.rs\"]"
        ));
        assert!(references_shims("use shims::rand;"));
    }

    #[test]
    fn prose_mentions_do_not_fire() {
        assert!(!references_shims(
            "// the shims directory holds offline stand-ins"
        ));
        assert!(!references_shims("let shims_count = 5;"));
    }
}
