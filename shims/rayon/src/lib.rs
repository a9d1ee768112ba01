//! Offline stand-in for `rayon`, reduced to `current_num_threads`.
//!
//! The workspace reads only the worker count below: the sweep executor for
//! `--jobs 0` and the `bench_json` harness. The package stays because
//! `perfbench/Cargo.lock` records it and the `rayon` edges of
//! `carbonedge-sim` and `carbonedge-sweep`. The benchmark revision of
//! ROADMAP.md item 2 deletes the package and its edges, and one helper
//! replaces the three reads.

/// The number of worker threads a rayon pool uses by default: one per
/// available CPU, or 1 when the count cannot be determined. Matches the
/// upstream `rayon::current_num_threads` surface.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
