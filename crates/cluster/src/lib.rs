// lint:allow(unreached-pub): an empty package that perfbench/Cargo.lock records; the benchmark revision of ROADMAP.md item 2 deletes it and its edges
#![forbid(unsafe_code)]
//! An empty package.
//!
//! It stays only because `perfbench/Cargo.lock` records it and
//! `carbonedge-sim`'s edge on it, and that lockfile changes only with the
//! benchmark. The benchmark revision of ROADMAP.md item 2 deletes the
//! package and its edges.
