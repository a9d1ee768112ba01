//! `unreached-pub`: a library crate's public surface is what the system
//! reaches.
//!
//! The bug class: a `pub` item that only its own tests call still costs a
//! reader, a build and a test run, and it hides among the code the system
//! runs.  Such items were found by hand, by deleting and recompiling, until
//! this rule made the hunt a check.
//!
//! A `pub` fn, struct, enum, trait, type, const or static in a library
//! crate's non-test source (`crates/<name>/src`, binaries aside) is a
//! finding when its name appears in the *reaching code* no more often than
//! library code declares it `pub`.  The reaching code is the non-test code
//! of `crates/*/src` (binaries included), `examples/` and `perfbench/src`;
//! `#[cfg(test)]` items and integration tests do not reach anything.  So
//! two dead items of one name are two findings, not each other's use.  A
//! library crate whose `carbonedge_<name>` appears in no reaching code
//! outside its own library is one finding on its `lib.rs` instead of one
//! per item.
//!
//! Name matching cannot resolve paths: a dead item whose name has one use
//! anywhere (a call of a same-named method, a private fn, a field) stays
//! hidden, and one use of a name clears every `pub` item declared with it.
//! The rule under-reports, but it needs no type information.

use super::{is_ident_char, token_positions, FileContext, Rule};
use crate::diag::Diagnostic;
use std::collections::HashMap;

pub struct UnreachedPub;

impl Rule for UnreachedPub {
    fn id(&self) -> &'static str {
        "unreached-pub"
    }

    fn summary(&self) -> &'static str {
        "a library pub item must be named in other non-test code (crates, examples, perfbench)"
    }

    /// The rule has no per-file pass.
    fn applies_to(&self, _path: &str) -> bool {
        false
    }

    fn check(&self, _ctx: &FileContext<'_>, _out: &mut Vec<Diagnostic>) {}

    fn check_workspace(&self, files: &[FileContext<'_>], out: &mut Vec<Diagnostic>) {
        let code: Vec<(&FileContext<'_>, String)> = files
            .iter()
            .filter(|f| reaches(f.path))
            .map(|f| (f, without_test_items(f.masked)))
            .collect();

        let mut uses: HashMap<&str, usize> = HashMap::new();
        for (_, text) in &code {
            for token in identifiers(text) {
                *uses.entry(token).or_default() += 1;
            }
        }

        // The `pub` items of each library source, and how often library
        // code declares each name.
        let declarations: Vec<(&FileContext<'_>, Vec<PubItem<'_>>)> = code
            .iter()
            .filter(|(ctx, _)| library_crate(ctx.path).is_some())
            .map(|(ctx, text)| (*ctx, pub_items(text)))
            .collect();
        let mut declared: HashMap<&str, usize> = HashMap::new();
        for item in declarations.iter().flat_map(|(_, items)| items) {
            *declared.entry(item.name).or_default() += 1;
        }

        // Library crates: the `crates/<name>` directories with a `src/lib.rs`.
        let mut libraries = Vec::new();
        let mut unreached = Vec::new();
        for (ctx, _) in &code {
            let Some(krate) = library_crate(ctx.path).filter(|_| ctx.path.ends_with("/src/lib.rs"))
            else {
                continue;
            };
            libraries.push(krate);
            let lib_name = format!("carbonedge_{krate}");
            let named = code.iter().any(|(f, text)| {
                library_crate(f.path) != Some(krate) && !token_positions(text, &lib_name).is_empty()
            });
            if !named {
                unreached.push(krate);
                out.push(ctx.diag(
                    1,
                    self.id(),
                    format!(
                        "no reaching code outside this library names `{lib_name}`: delete \
                         the crate, or allow it with the need that keeps it"
                    ),
                ));
            }
        }

        for (ctx, items) in &declarations {
            match library_crate(ctx.path) {
                Some(krate) if libraries.contains(&krate) && !unreached.contains(&krate) => {}
                _ => continue,
            }
            // Every `pub` declaration of a name is one of its appearances.
            for item in items.iter().filter(|item| {
                uses.get(item.name)
                    .is_none_or(|&n| n <= declared[item.name])
            }) {
                out.push(ctx.diag(
                    ctx.line_of(item.offset),
                    self.id(),
                    format!(
                        "`pub {} {}` is named in no non-test code beyond its `pub` \
                         declarations: delete it, move it under `#[cfg(test)]`, or allow it \
                         with the need that keeps it",
                        item.kind, item.name
                    ),
                ));
            }
        }
    }
}

/// Whether a file's non-test code counts as reaching library items.
fn reaches(path: &str) -> bool {
    let in_crate_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
    in_crate_src || path.starts_with("examples/") || path.starts_with("perfbench/src/")
}

/// The crate directory name of a source under `crates/<name>/src`,
/// binaries (`main.rs`, `bin/`) aside, or `None` for any other file.
fn library_crate(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, file) = rest.split_once("/src/")?;
    let binary = file == "main.rs" || file.starts_with("bin/");
    (!krate.contains('/') && !binary).then_some(krate)
}

/// One `pub` item declaration.
struct PubItem<'a> {
    /// Byte offset of the `pub` token.
    offset: usize,
    /// The item keyword: `fn`, `struct`, `const`, ...
    kind: &'a str,
    name: &'a str,
}

/// The `pub` items declared in masked `text`.  Restricted visibility
/// (`pub(crate)`), fields, modules and re-exports are not items here.
fn pub_items(text: &str) -> Vec<PubItem<'_>> {
    let mut items = Vec::new();
    for offset in token_positions(text, "pub") {
        let mut words = words_after(text, offset + "pub".len()).peekable();
        let mut kind = words.next();
        // `const fn`, `async fn`, `unsafe fn` and `extern "C" fn` are fns; a
        // `const` followed by a name is a constant.
        while let Some("const" | "async" | "unsafe" | "extern") = kind {
            match words.peek() {
                Some(&("fn" | "const" | "async" | "unsafe" | "extern")) => kind = words.next(),
                _ => break,
            }
        }
        let Some(kind @ ("fn" | "struct" | "enum" | "trait" | "type" | "const" | "static")) = kind
        else {
            continue;
        };
        let mut name = words.next();
        if kind == "static" && name == Some("mut") {
            name = words.next();
        }
        if let Some(name) = name {
            items.push(PubItem { offset, kind, name });
        }
    }
    items
}

/// The whitespace-separated identifiers that follow byte `from`, up to the
/// first character that is neither (`(`, `<`, `:` ...).
fn words_after(text: &str, from: usize) -> impl Iterator<Item = &str> {
    let mut rest = &text[from..];
    std::iter::from_fn(move || {
        let trimmed = rest.trim_start();
        let end = trimmed
            .find(|c: char| !is_ident_char(c))
            .unwrap_or(trimmed.len());
        let (word, tail) = trimmed.split_at(end);
        rest = tail;
        (!word.is_empty()).then_some(word)
    })
}

/// The identifier tokens of masked `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|t| t.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// Masked `text` with every `#[cfg(test)]` item blanked to spaces (newlines
/// and byte offsets kept): the attribute through the end of the item's
/// braced body, or its `;`.
fn without_test_items(text: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut bytes = text.as_bytes().to_vec();
    let mut from = 0;
    while let Some(rel) = text[from..].find(ATTR) {
        let start = from + rel;
        let end = item_end(text.as_bytes(), start + ATTR.len());
        for b in &mut bytes[start..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = end;
    }
    // Each range starts at `#` and ends at `}` or `;`, so it covers whole
    // characters and the bytes stay UTF-8.
    String::from_utf8(bytes).expect("blanking replaces whole characters")
}

/// The byte just past the item that starts at `from`: its matching `}`, or
/// its first `;` outside brackets.
fn item_end(text: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut braced = false;
    for (i, &b) in text.iter().enumerate().skip(from) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'{' => {
                depth += 1;
                braced = true;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if braced && depth == 0 {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    text.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(text: &str) -> Vec<(&str, &str)> {
        pub_items(text)
            .into_iter()
            .map(|item| (item.kind, item.name))
            .collect()
    }

    #[test]
    fn item_heads_yield_their_kind_and_name() {
        let text = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 1;\n\
                    pub struct D<T>(pub T);\npub static mut E: u8 = 0;\n\
                    pub(crate) fn f() {}\npub mod g;\npub use h::I;\npub j: u8,\n";
        assert_eq!(
            names(text),
            vec![
                ("fn", "a"),
                ("fn", "b"),
                ("const", "C"),
                ("struct", "D"),
                ("static", "E"),
            ]
        );
    }

    #[test]
    fn test_items_are_blanked_with_offsets_kept() {
        let text = "pub fn a() {}\n#[cfg(test)]\nmod tests { fn b() { [0; 2]; } }\nfn c() {}\n";
        let stripped = without_test_items(text);
        assert_eq!(stripped.len(), text.len());
        assert!(stripped.contains("pub fn a()"));
        assert!(stripped.contains("fn c()"));
        assert!(!stripped.contains("tests") && !stripped.contains("fn b"));
        assert_eq!(stripped.matches('\n').count(), text.matches('\n').count());
    }

    #[test]
    fn library_sources_exclude_binaries_and_tests() {
        assert_eq!(library_crate("crates/sim/src/cdn.rs"), Some("sim"));
        assert_eq!(library_crate("crates/lint/src/rules/mod.rs"), Some("lint"));
        assert_eq!(library_crate("crates/lint/src/main.rs"), None);
        assert_eq!(library_crate("crates/bench/src/bin/experiments.rs"), None);
        assert_eq!(library_crate("crates/sweep/tests/x.rs"), None);
        assert!(reaches("crates/bench/src/bin/experiments.rs"));
        assert!(reaches("perfbench/src/main.rs") && reaches("examples/quickstart.rs"));
        assert!(!reaches("crates/sweep/tests/x.rs") && !reaches("tests/lib.rs"));
    }
}
