#![forbid(unsafe_code)]
//! Optimization substrate for CarbonEdge.
//!
//! The paper solves its carbon-aware placement MILP with Google OR-Tools
//! (Section 5.1).  This crate is the from-scratch replacement:
//!
//! * [`model`] — a small modeling layer for mixed binary/continuous linear
//!   programs (variables, linear constraints, minimization objective);
//! * [`simplex`] — a bounded-variable **revised** simplex for the LP
//!   relaxation of a boxed model (every variable has two finite bounds):
//!   bounds live in the basis logic (nonbasic-at-lower/upper), a cold
//!   start is a dual simplex walk from the slack basis (dual feasible
//!   because every column is boxed) with no phase-1 and no Big-M
//!   penalty, devex pricing picks entering columns, and the same bounded
//!   dual simplex provides warm restarts after bound changes;
//! * [`factor`] — the sparse linear algebra under the simplex: a
//!   Markowitz-ordered sparse LU factorization of the basis with
//!   product-form eta updates per pivot and an adaptive refactorization
//!   trigger, making FTRAN/BTRAN cost `O(nnz)` instead of `O(m^2)`;
//! * [`branch_bound`] — an exact branch-and-bound MILP solver over the
//!   binary variables: best-first node selection from a bound-ordered
//!   priority queue, compact parent-diff node records, and dual-simplex
//!   warm starts in a scratch workspace shared across nodes and solves;
//! * [`decomp`] — Dantzig–Wolfe column generation for assignment-shaped
//!   placement MILPs, as the node LP of the one branch-and-bound search:
//!   the restricted master drops the `x ≤ y` linking rows and activates
//!   columns on demand via bound relaxation, and pricing is a closed-form
//!   pass over the inactive columns; `BranchBoundSolver` searches large
//!   block-structured models over the master automatically;
//! * [`assignment`] — a heuristic for the incremental placement problem (a
//!   generalized assignment problem with server-activation costs under the
//!   three resource limits of Eq. 1) over per-application rows of feasible
//!   candidate servers: greedy construction with regret ordering;
//! * [`mod@reference`] — the pre-rewrite dense Big-M tableau simplex and
//!   cold-start branch-and-bound, retained **only** as differential-test
//!   oracles and as the "before" side of `BENCH_solver.json`.
//!
//! The placement policies in `carbonedge-core` use the exact solver for
//! small instances and the assignment heuristic at CDN scale; benches in
//! `carbonedge-bench` compare the paths (the solver ablation) and measure
//! the revised-vs-reference speedup.

pub mod assignment;
pub mod branch_bound;
pub mod decomp;
pub mod factor;
pub mod model;
pub mod reference;
pub mod simplex;

pub use assignment::{AssignmentProblem, CandidatePairs};
pub use branch_bound::{
    BranchBoundSolver, DecompStats, FactorStats, MilpOutcome, MilpSolution, PricingStats,
};
pub use decomp::BlockStructure;
pub use factor::BasisFactor;
pub use model::{Comparison, Constraint, LinearExpr, Model, VarId, VarKind};
pub use reference::{DenseSimplexSolver, ReferenceBranchBound};
pub use simplex::{LpOutcome, LpSolution, Prepared, SimplexSolver, SimplexWorkspace};
