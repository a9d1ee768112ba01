//! `float-order`: no `partial_cmp` outside `PartialOrd` impls.
//!
//! The bug class: `partial_cmp(..).unwrap()` panics on NaN (it once crashed
//! `greenest_zone`, a zone lookup since deleted) and
//! `partial_cmp(..).unwrap_or(Equal)` silently builds an inconsistent
//! comparator under NaN, corrupting sort order and — in largest-remainder
//! apportionment — conservation itself (the request streams' sort).  Every
//! float ordering in this workspace goes through `f64::total_cmp`, which is
//! total, deterministic, and NaN-stable.
//!
//! A line *defining* `fn partial_cmp` (a `PartialOrd` impl forwarding to
//! `Ord::cmp`) is the one legitimate appearance and is exempt.

use super::{token_positions, FileContext, Rule};
use crate::diag::Diagnostic;

pub struct FloatOrder;

impl Rule for FloatOrder {
    fn id(&self) -> &'static str {
        "float-order"
    }

    fn summary(&self) -> &'static str {
        "float comparisons must use total_cmp, never partial_cmp (NaN-unstable order)"
    }

    fn applies_to(&self, path: &str) -> bool {
        path.ends_with(".rs")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        for (i, line) in ctx.masked_lines.iter().enumerate() {
            if line.contains("fn partial_cmp") {
                continue;
            }
            if !token_positions(line, "partial_cmp").is_empty() {
                out.push(
                    ctx.diag(
                        i + 1,
                        self.id(),
                        "`partial_cmp` on floats panics or mis-sorts under NaN — use \
                     `f64::total_cmp` (with an explicit deterministic tie-break if \
                     needed)"
                            .to_string(),
                    ),
                );
            }
        }
    }
}
