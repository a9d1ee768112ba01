#![forbid(unsafe_code)]
//! Declarative scenario-matrix sweeps for CarbonEdge.
//!
//! The paper's headline results are grids: placement policies crossed with
//! regions, latency bounds, demand scenarios and workload mixes (Figures
//! 11–14).  This crate turns those ad-hoc per-experiment loops into one
//! engine:
//!
//! * [`SweepSpec`] — the declarative scenario matrix: each axis (policy,
//!   area, demand/capacity scenario, latency limit, site count, workload,
//!   seed, forecaster, epoch schedule, migration-cost level, serving mode)
//!   is a list of values, and the grid is their cartesian product,
//!   enumerated deterministically with stable per-cell seeds;
//! * [`SweepExecutor`] — a worker-pool executor that evaluates cells in
//!   parallel while sharing zone catalogs and per-seed carbon traces across
//!   cells (via `carbonedge_sim::CdnShared`), producing results that are
//!   bit-identical for any `--jobs` count;
//! * [`SweepReport`] — per-cell outcomes plus per-scenario savings versus
//!   the Latency-aware baseline, marginal savings tables per axis, a
//!   forecast-regret table (realized carbon versus the oracle replay per
//!   policy × forecaster × epoch), and a churn-vs-savings table (moves,
//!   migration carbon and net savings per policy × epoch × migration
//!   level), and a serving table (tail latency, drops and utilization next
//!   to carbon savings per policy × serving mode), all with deterministic
//!   text renderings used by the golden-output tests.
//!
//! # Example
//!
//! ```no_run
//! use carbonedge_sweep::{SweepExecutor, SweepSpec};
//!
//! let report = SweepExecutor::new()
//!     .with_jobs(4)
//!     .run(&SweepSpec::quick_default())
//!     .expect("valid spec");
//! println!("{}", report.render());
//! ```
//!
//! To add a new axis to the engine itself: add the field to [`SweepSpec`],
//! a variant in [`SweepAxis`] (placed in `SweepAxis::ALL` where it should
//! sit in the enumeration order), an arm in `SweepSpec::axis_len`, and its
//! display form in `SweepReport::axis_value` — the grid walk, validation,
//! executor and report aggregation pick it up unchanged (see `ROADMAP.md`).

pub mod executor;
pub mod report;
pub mod spec;

pub use executor::{take_jobs_flag, SweepExecutor};
pub use report::{
    CellResult, ChurnRow, MarginalRow, RegretRow, SavingsRow, ServingRow, SweepReport,
    BASELINE_POLICY,
};
pub use spec::{SweepAxis, SweepCell, SweepSpec, WorkloadSpec};
