//! Offline stand-in for `serde_derive`, emptied along with the `serde`
//! shim whose `derive` feature enables it.
//!
//! The package stays because `perfbench/Cargo.lock` records it. The
//! benchmark revision of ROADMAP.md item 2 deletes it and its edge.
