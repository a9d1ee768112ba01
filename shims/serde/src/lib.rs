//! Offline stand-in for `serde`, emptied.
//!
//! Nothing in the workspace derives or names the serde traits: every
//! `BENCH_*.json` is written by hand. The package stays because
//! `perfbench/Cargo.lock` records it and the crates' `serde` edges. The
//! benchmark revision of ROADMAP.md item 2 deletes it, `serde_derive` and
//! every `serde` entry.
