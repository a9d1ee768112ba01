//! `lossy-cast`: no silent float↔int `as` casts in numeric paths.
//!
//! The bug class: `as` never fails and never asks — a float cast to an
//! integer type truncates toward zero (and saturates), so an accounting
//! quantity crossing that boundary silently drops fractional grams, and a
//! solver bound crossing it changes the feasible region.  In the accounting
//! and solver paths every such cast must either be restructured or carry an
//! allow naming its rounding contract; `f32` is banned outright (every
//! carbon quantity in the workspace is `f64` — a stray `as f32` halves the
//! mantissa mid-chain).
//!
//! Detection is conservative, firing only when the cast source is provably
//! float-ish from the text: a float literal, a float-returning method
//! (`.round()`, `.floor()`, …), a unit-suffixed accounting identifier
//! (`_g`, `_kwh`, …), or a parenthesized expression containing one.
//! Integer-to-integer casts (`v as usize` on an index) never fire.

use super::{ident_ending_at, token_positions, FileContext, Rule};
use crate::diag::Diagnostic;

pub struct LossyCast;

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Methods whose receiver and result are floats.
const FLOAT_METHODS: &[&str] = &[
    "round",
    "floor",
    "ceil",
    "trunc",
    "fract",
    "sqrt",
    "powf",
    "exp",
    "ln",
    "mul_add",
    "to_degrees",
    "to_radians",
];

/// Accounting unit suffixes that mark an identifier as float-valued.
const FLOAT_SUFFIXES: &[&str] = &[
    "_kwh", "_hours", "_kg", "_ms", "_g", "_percent", "_frac", "_ratio", "_factor", "_f64",
];

impl Rule for LossyCast {
    fn id(&self) -> &'static str {
        "lossy-cast"
    }

    fn summary(&self) -> &'static str {
        "accounting/solver paths must not `as`-cast between float and integer types"
    }

    fn applies_to(&self, path: &str) -> bool {
        (path.starts_with("crates/solver/src/")
            || path.starts_with("crates/core/src/")
            || path.starts_with("crates/grid/src/")
            || path.starts_with("crates/sim/src/"))
            && path.ends_with(".rs")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        for (i, line) in ctx.masked_lines.iter().enumerate() {
            for at in token_positions(line, "as") {
                let Some(target) = cast_target(line, at) else {
                    continue;
                };
                if target == "f32" {
                    out.push(
                        ctx.diag(
                            i + 1,
                            self.id(),
                            "`as f32` halves the mantissa of an f64 accounting chain — \
                         keep quantities in f64"
                                .to_string(),
                        ),
                    );
                    continue;
                }
                if INT_TYPES.contains(&target) && source_is_floatish(line, at) {
                    out.push(ctx.diag(
                        i + 1,
                        self.id(),
                        format!(
                            "float-to-`{target}` `as` cast truncates toward zero \
                             silently — restructure, or round explicitly and allow \
                             with the rounding contract as the reason"
                        ),
                    ));
                }
            }
        }
    }
}

/// If the `as` token at `at` is a cast to a primitive numeric type, returns
/// that type token.
fn cast_target(line: &str, at: usize) -> Option<&str> {
    let tail = line[at + 2..].trim_start();
    let ty = super::ident_starting_at(tail, 0)?;
    (INT_TYPES.contains(&ty) || ty == "f32").then_some(ty)
}

/// Whether the expression just before the `as` at `at` is textually
/// float-valued.
fn source_is_floatish(line: &str, at: usize) -> bool {
    let head = line[..at].trim_end();
    if head.ends_with(')') {
        // `x.round() as i64` — a float-returning method call; or
        // `(a / b.fract()) as usize` — a group containing a float hint.
        if let Some(open) = matching_open_paren(head) {
            let inner = &head[open + 1..head.len() - 1];
            if let Some(method) = ident_ending_at(head, open) {
                if FLOAT_METHODS.contains(&method) {
                    return true;
                }
                // A call to a non-float method: look no further.
                if head[..open]
                    .trim_end()
                    .ends_with(|c: char| super::is_ident_char(c))
                    && !method.is_empty()
                {
                    return contains_float_hint(inner);
                }
            }
            return contains_float_hint(inner);
        }
        return false;
    }
    // A bare literal or identifier.
    if let Some(token) = ident_ending_at(head, head.len()) {
        return has_float_suffix(token);
    }
    float_literal_ends(head)
}

/// Whether text contains a float literal or a float-suffixed identifier.
fn contains_float_hint(text: &str) -> bool {
    for suffix in FLOAT_SUFFIXES {
        for at in text.match_indices(suffix).map(|(p, _)| p) {
            let end = at + suffix.len();
            let boundary = text[end..]
                .chars()
                .next()
                .is_none_or(|c| !super::is_ident_char(c));
            if boundary {
                return true;
            }
        }
    }
    for m in FLOAT_METHODS {
        if text.contains(&format!(".{m}(")) {
            return true;
        }
    }
    // A numeric literal with a decimal point: `3600.0`, `0.25`.
    text.as_bytes()
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
}

/// Whether an identifier carries a float unit/kind suffix.
fn has_float_suffix(ident: &str) -> bool {
    FLOAT_SUFFIXES
        .iter()
        .any(|s| ident.ends_with(s) && ident.len() > s.len())
}

/// Whether `head` ends in a float literal (`1.5`, `2.`, `1e-3`).
fn float_literal_ends(head: &str) -> bool {
    let tail: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+'))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let t = tail.trim_start_matches(['-', '+']);
    t.chars().next().is_some_and(|c| c.is_ascii_digit())
        && (t.contains('.') || t.contains('e') || t.contains('E'))
}

/// Byte index of the `(` matching the final `)` of `head`.
fn matching_open_paren(head: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in head.char_indices().rev() {
        match c {
            ')' => depth += 1,
            '(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_to_int_casts_never_fire() {
        assert!(!source_is_floatish("let idx = v as usize", 10));
        assert!(!source_is_floatish("nodes.len() as u32", 12));
    }

    #[test]
    fn float_sources_fire() {
        assert!(source_is_floatish("x.round() as i64", 10));
        assert!(source_is_floatish("carbon_g as u64", 9));
        assert!(source_is_floatish("(total / 3600.0) as usize", 17));
        assert!(float_literal_ends("let x = 1.5"));
        assert!(float_literal_ends("let x = 2e-3"));
        assert!(!float_literal_ends("let x = 15"));
    }

    #[test]
    fn cast_target_recognizes_numeric_primitives_only() {
        assert_eq!(cast_target("x as usize;", 2), Some("usize"));
        assert_eq!(cast_target("x as f32;", 2), Some("f32"));
        assert_eq!(cast_target("x as f64;", 2), None, "widening to f64 is fine");
        assert_eq!(cast_target("x as Box<dyn T>;", 2), None);
    }
}
