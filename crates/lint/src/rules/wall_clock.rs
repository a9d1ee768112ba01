//! `wall-clock`: no wall-clock or CPU-topology reads in decision logic.
//!
//! The bug class: the repo's core promise is bit-identical results across
//! job counts, warm/cold solver paths, and prepped/cold sweeps.  Anything in
//! `core`/`grid`/`sim`/`solver`/`sweep` that reads `Instant::now`,
//! `SystemTime` or the CPU count (`available_parallelism`, or the rayon
//! calls that read it on every use) has, by construction, an input that
//! differs run to run — a time-based tolerance, a load-dependent heuristic,
//! a CPU-count-dependent grid — and the determinism contract dies quietly.
//! `core` holds the placer and the deployment it keeps between decisions,
//! and `grid`'s forecasters compute the intensities each decision prices.
//! Timing and topology belong to the observer crates (`bench`, the
//! `experiments` binary), which stamp measurements *onto* results after the
//! deterministic engine produced them.

use super::{token_positions, FileContext, Rule};
use crate::diag::Diagnostic;

pub struct WallClock;

const FORBIDDEN: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock reads make decision logic timing-dependent — measure in \
         `bench`/`experiments` and stamp results after the run",
    ),
    (
        "SystemTime",
        "wall-clock reads make decision logic timing-dependent — measure in \
         `bench`/`experiments` and stamp results after the run",
    ),
    (
        "available_parallelism",
        "CPU-topology reads make results machine-dependent — take a worker \
         count as an input (`--jobs`) and collect by index",
    ),
    (
        "current_num_threads",
        "reads the CPU count on every call, which makes results \
         machine-dependent — take a worker count as an input (`--jobs`)",
    ),
    (
        "par_iter",
        "starts one thread per CPU on every call — loop sequentially, or \
         take a worker count as an input (`--jobs`) and collect by index",
    ),
    (
        "par_iter_mut",
        "starts one thread per CPU on every call — loop sequentially, or \
         take a worker count as an input (`--jobs`) and collect by index",
    ),
];

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }

    fn summary(&self) -> &'static str {
        "core/grid/sim/solver/sweep must not read Instant/SystemTime or the CPU count"
    }

    fn applies_to(&self, path: &str) -> bool {
        path.starts_with("crates/core/src/")
            || path.starts_with("crates/grid/src/")
            || path.starts_with("crates/sim/src/")
            || path.starts_with("crates/solver/src/")
            || path.starts_with("crates/sweep/src/")
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        for (i, line) in ctx.masked_lines.iter().enumerate() {
            for (token, why) in FORBIDDEN {
                if !token_positions(line, token).is_empty() {
                    out.push(ctx.diag(
                        i + 1,
                        self.id(),
                        format!("`{token}` in decision logic: {why}"),
                    ));
                }
            }
        }
    }
}
