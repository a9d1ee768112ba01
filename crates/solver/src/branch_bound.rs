//! Exact branch-and-bound MILP solver over binary variables, warm-started
//! and allocation-free per node.
//!
//! The solver explores nodes **best-first** from a bound-ordered priority
//! queue.  Each node is a compact diff against its parent — `(variable,
//! fixed value)` plus a parent pointer into a node arena — instead of a
//! cloned bound-override vector, and every LP relaxation is solved in one
//! shared [`SimplexWorkspace`]: after a bound tightening the previous
//! optimal basis stays **dual feasible** (reduced costs do not depend on
//! bounds), so the relaxation restarts with a handful of dual-simplex
//! pivots rather than a cold solve.  A node limit turns the solver into an
//! anytime solver that reports the best incumbent found (mirroring how
//! OR-Tools is used with a time limit in the paper's placement service).
//!
//! There is one search and two node LPs.  A model without the placement
//! block structure (or below [`BranchBoundSolver::decomp_min_vars`]) is
//! searched monolithically: each node solves its LP relaxation over the
//! full model.  A block-structured model is searched over its
//! Dantzig–Wolfe restricted master instead, and each node's LP is column
//! generation over that master ([`crate::decomp`]).  Node selection,
//! branching, incumbent verification against the original model and the
//! memoized re-solve are the same code on both routes.
//!
//! The workspace persists inside the solver behind a mutex, so successive
//! `solve` calls — e.g. the per-epoch placements of
//! `carbonedge_core::IncrementalPlacer` — reuse all buffers without
//! reallocating.  It also keeps the structure of the last model it
//! classified (every variable kind and every row, compared exactly) with
//! the block structure found for it, so a structurally identical model
//! skips classification.  The resident basis is reused only when it was
//! loaded for the same route and the same structure (matrix, right-hand
//! sides and bounds of the full model or of the master view); any other
//! solve reloads it cold.

use crate::decomp::{self, BlockStructure};
use crate::model::{Constraint, Model, VarKind};
use crate::simplex::{LpOutcome, Prepared, SimplexSolver, SimplexWorkspace};
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard};

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpOutcome {
    /// Proven optimal integer solution.
    Optimal,
    /// A feasible integer solution was found but optimality was not proven
    /// within the node limit.
    Feasible,
    /// No feasible integer solution exists (or none was found and the search
    /// space was exhausted).
    Infeasible,
    /// The node limit was reached without finding any integer solution.
    NodeLimit,
}

/// Basis-factorization statistics of one MILP solve — the sparse-LU
/// observability surfaced alongside `pivots` in `BENCH_solver.json`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FactorStats {
    /// Number of full basis refactorizations (the initial factorization of
    /// a cold solve counts as one).
    pub refactorizations: usize,
    /// Peak length of the product-form eta file between refactorizations.
    pub peak_eta_len: usize,
    /// LU nonzeros over basis-matrix nonzeros at the last refactorization
    /// (1.0 = no fill-in; 0.0 when no factorization ran, e.g. a pure
    /// warm restart).
    pub fill_in_ratio: f64,
}

/// Pricing-ladder statistics of one MILP solve: how often the devex
/// reference framework was reset and how often the Dantzig→Bland
/// anti-cycling fallback fired.  Both were previously invisible; surfacing
/// them alongside [`FactorStats`] lets the bench snapshots show when the
/// pricing machinery is struggling rather than striding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PricingStats {
    /// Devex reference-weight resets (weights drifted past the ceiling and
    /// were re-unified) summed across every LP solve of the search.
    pub devex_resets: usize,
    /// Dantzig→Bland fallback activations (one per degenerate streak that
    /// exceeded the Bland threshold) summed across every LP solve.
    pub bland_activations: usize,
}

/// Column-generation statistics of a decomposition-path MILP solve
/// (`None` on the monolithic path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecompStats {
    /// Columns activated in the restricted master across the whole search
    /// (initial greedy seeding plus pricing rounds).
    pub columns_generated: usize,
    /// Pricing passes over the inactive columns (including final passes
    /// that proved optimality by finding nothing to activate).
    pub pricing_rounds: usize,
    /// Simplex pivots spent inside the restricted master LP (equals
    /// [`MilpSolution::pivots`] on the decomposition path — the pricing
    /// subproblems are closed-form and pivot-free).
    pub master_pivots: usize,
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Solve status.
    pub outcome: MilpOutcome,
    /// Best objective value found.
    pub objective: f64,
    /// Variable values of the best solution (empty when none found).
    pub values: Vec<f64>,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex pivots (primal and dual) across all nodes.
    pub pivots: usize,
    /// Basis-factorization statistics of the solve.
    pub factor: FactorStats,
    /// Pricing-ladder statistics of the solve.
    pub pricing: PricingStats,
    /// Column-generation statistics when the solve ran on the
    /// Dantzig–Wolfe decomposition path; `None` on the monolithic path.
    pub decomp: Option<DecompStats>,
}

impl MilpSolution {
    /// Whether a usable integer solution is available.
    pub fn has_solution(&self) -> bool {
        matches!(self.outcome, MilpOutcome::Optimal | MilpOutcome::Feasible)
    }
}

/// Sentinel for "no parent" / "no branching decision" (the root node).
const NO_VAR: u32 = u32::MAX;

/// One arena entry: the branching decision that distinguishes this node
/// from its parent.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: u32,
    var: u32,
    fixed: f64,
}

/// Heap entry; ordered so the *smallest* relaxation bound pops first
/// (ties broken by insertion order for determinism).
#[derive(Debug, Clone, Copy)]
struct OpenNode {
    bound: f64,
    seq: u32,
    node: u32,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for OpenNode {}

impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the lowest bound is "greatest".
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scratch arena shared by every node of a search and across successive
/// searches, on either route: prepared matrix, simplex workspace, node
/// records, open queue, incumbent buffers, the memo of the previous search
/// and, on the decomposition route, the master's column-activation state.
#[derive(Debug, Default)]
pub(crate) struct MilpWorkspace {
    /// The full model, or the restricted master's row view of it.
    pub(crate) prep: Prepared,
    pub(crate) simplex: SimplexWorkspace,
    /// Whether `prep`/`simplex` have been loaded at least once.
    loaded: bool,
    /// Whether the resident `prep` is a decomposition master.  The row mask
    /// alone cannot tell: a block model without linking rows masks nothing.
    decomposed: bool,
    /// Master only, per structural column: whether the restricted master
    /// may use it (bounds `[0, 1]`) or it is still pinned to `[0, 0]`.
    /// Monotone within and across solves of one model; rebuilt on reload.
    pub(crate) active: Vec<bool>,
    /// Master only, pricing scratch: columns selected for activation.
    pub(crate) to_activate: Vec<usize>,
    nodes: Vec<NodeRec>,
    open: BinaryHeap<OpenNode>,
    touched: Vec<u32>,
    binaries: Vec<usize>,
    candidate: Vec<f64>,
    incumbent: Vec<f64>,
    /// Simplex pivots accumulated across every solve routed through this
    /// workspace via [`BranchBoundSolver::solve`] — the per-run warm-start
    /// work a caller (e.g. the epoch re-placement engine) can surface.
    accumulated_pivots: usize,
    /// Factorization work accumulated across every solve routed through
    /// [`BranchBoundSolver::solve`]: refactorization counts sum, the peak
    /// eta length is the running maximum, and the fill-in ratio tracks the
    /// most recent solve that actually factorized.
    accumulated_factor: FactorStats,
    /// Pricing-ladder counters accumulated across every solve routed
    /// through [`BranchBoundSolver::solve`].
    accumulated_pricing: PricingStats,
    /// Column-generation counters accumulated across every
    /// decomposition-path solve routed through [`BranchBoundSolver::solve`]
    /// (all zero when every solve took the monolithic path).
    accumulated_decomp: DecompStats,
    /// Variable/row counts of the most recent model solved through this
    /// workspace (the model as given, before decomposition drops rows).
    last_dims: (usize, usize),
    /// Memoized result of the previous search, returned verbatim (with
    /// zero pivots, since no simplex work runs) when the next model is
    /// bit-identical — matrix, right-hand sides, bounds *and* costs — on the
    /// same route and the solver configuration is unchanged.  This is what
    /// makes a same-model re-solve an exact fixed point even on degenerate
    /// models with tied optimal vertices, where replaying the search from a
    /// (numerically different) eta-file state could land on another tie.
    last_solution: Option<MilpSolution>,
    last_max_nodes: usize,
    /// The last model [`BranchBoundSolver::solve`] classified and what it
    /// found.  Taken out for the duration of a solve, so a solve that
    /// panics leaves `None` and the next one classifies afresh.
    classified: Option<Classified>,
}

/// The structure of a classified model — every variable kind and every
/// constraint, all but the objective — with whether decomposition was
/// tried on it and the block structure found.  Floats compare with `==`,
/// as [`Prepared::matches_structure`] compares them, so a NaN never
/// matches.
#[derive(Debug)]
struct Classified {
    vars: Vec<VarKind>,
    rows: Vec<Constraint>,
    tried: bool,
    structure: Option<BlockStructure>,
}

impl MilpWorkspace {
    /// Applies a node's bound diffs (the chain of branching decisions up to
    /// the root) onto the simplex workspace, undoing the previous node's
    /// diffs first.  O(depth) and allocation-free.  Branch variables are
    /// always usable columns, so undoing a diff restores the natural
    /// `[0, 1]` on either route.
    fn apply_bounds(&mut self, node: u32) {
        for &v in &self.touched {
            self.simplex.reset_var_bounds(&self.prep, v as usize);
        }
        self.touched.clear();
        let mut cur = node;
        loop {
            let rec = self.nodes[cur as usize];
            if rec.var != NO_VAR {
                self.simplex
                    .set_var_bounds(rec.var as usize, rec.fixed, rec.fixed);
                self.touched.push(rec.var);
            }
            if rec.parent == NO_VAR {
                break;
            }
            cur = rec.parent;
        }
    }

    /// Solves the resident LP from the current basis and adds the solve's
    /// pivots and pricing-ladder counters to the search's totals.
    pub(crate) fn solve_lp(&mut self, pivots: &mut usize, pricing: &mut PricingStats) -> LpOutcome {
        let outcome = SimplexSolver.solve_workspace(&self.prep, &mut self.simplex);
        *pivots += self.simplex.last_pivots();
        pricing.devex_resets += self.simplex.last_devex_resets();
        pricing.bland_activations += self.simplex.last_bland_activations();
        outcome
    }
}

/// Branch-and-bound solver configuration plus its reusable workspace.
#[derive(Debug)]
pub struct BranchBoundSolver {
    /// Maximum number of nodes to explore.
    pub max_nodes: usize,
    /// Models with at least this many variables are tried on the
    /// Dantzig–Wolfe decomposition route ([`crate::decomp`]) first: if the
    /// model has the assignment-with-activation block structure the search
    /// runs over the column-generation master with far fewer rows,
    /// otherwise it runs monolithically.  Set to `usize::MAX` to force the
    /// monolithic route, `0` to force decomposition onto any detectable
    /// model (bench overrides).
    pub decomp_min_vars: usize,
    /// Scratch arena reused across nodes and across successive solves.
    workspace: Mutex<MilpWorkspace>,
}

/// Integrality tolerance of the search, also its pruning margin: a node
/// whose bound is within it of the incumbent cannot improve on it.
const TOLERANCE: f64 = 1e-6;

/// Default [`BranchBoundSolver::decomp_min_vars`]: above the testbed-scale
/// placement models `IncrementalPlacer`'s default exact limit admits (at
/// most 40 pairs, so at most ~46 variables), below the corridor-scale
/// models a raised limit sends to the exact path (291 variables at 60
/// applications × 15 servers, 1,026 at 200 × 50).  Below it the linking
/// rows are few enough that the monolithic warm-restart machinery wins; at
/// or above it the row count is dominated by `x ≤ y` links the
/// decomposition master drops entirely.
pub const DECOMP_MIN_VARS: usize = 256;

impl Default for BranchBoundSolver {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            decomp_min_vars: DECOMP_MIN_VARS,
            workspace: Mutex::default(),
        }
    }
}

impl Clone for BranchBoundSolver {
    /// Clones the configuration; the clone gets its own fresh workspace.
    fn clone(&self) -> Self {
        Self {
            max_nodes: self.max_nodes,
            decomp_min_vars: self.decomp_min_vars,
            workspace: Mutex::default(),
        }
    }
}

impl BranchBoundSolver {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with a node limit (anytime behaviour).
    pub fn with_node_limit(max_nodes: usize) -> Self {
        Self {
            max_nodes,
            ..Self::default()
        }
    }

    /// Locks the internal workspace, recovering the guard if an earlier
    /// solve panicked while holding it.
    fn lock(&self) -> MutexGuard<'_, MilpWorkspace> {
        self.workspace
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn most_fractional_binary(&self, binaries: &[usize], values: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for &vi in binaries {
            let val = values[vi];
            let frac = (val - val.round()).abs();
            if frac > TOLERANCE {
                let distance_to_half = (val - 0.5).abs();
                match best {
                    Some((_, d)) if d <= distance_to_half => {}
                    _ => best = Some((vi, distance_to_half)),
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Drops the internal workspace's resident basis and memoized result so
    /// the next solve cold-starts from a canonical state (allocations are
    /// kept).  Callers that interleave solves of *different* problem
    /// streams — e.g. a sweep worker moving to another cell — use this to
    /// keep results independent of which stream a worker happened to serve
    /// before.  The classified structure stays: it describes the model,
    /// not the start, so a cold solve of the same structure still skips
    /// classification.
    pub fn discard_warm_start(&self) {
        let mut ws = self.lock();
        ws.loaded = false;
        ws.last_solution = None;
    }

    /// Solves the MILP to optimality (or best effort within the node
    /// limit), reusing the solver's internal workspace.
    ///
    /// Large models with the placement block structure are searched over
    /// the decomposition master, which drops the `x ≤ y` linking rows
    /// outright; every other model is searched monolithically as given.
    /// The model is first compared with the last one classified: when every
    /// variable kind and row is the same and the same
    /// [`Self::decomp_min_vars`] test holds, its block structure is reused
    /// without running [`BlockStructure::detect`] again.  When the model
    /// has the same constraint matrix, right-hand sides and bounds as the
    /// previous solve on the same route, the resident simplex basis is
    /// reused: identical costs return the memoized result, changed costs
    /// restart primal phase-2 from the old optimum — the repeated
    /// re-optimization pattern of a placement service re-solving as carbon
    /// intensities shift epoch to epoch.
    pub fn solve(&self, model: &Model) -> MilpSolution {
        let tried = model.num_vars() >= self.decomp_min_vars;
        let mut ws = self.lock();
        let kept = ws.classified.take().filter(|kept| {
            kept.tried == tried && kept.vars == model.vars() && kept.rows == model.constraints()
        });
        let known = kept.is_some();
        let classified = kept.unwrap_or_else(|| Classified {
            vars: model.vars().to_vec(),
            rows: model.constraints().to_vec(),
            tried,
            structure: tried.then(|| BlockStructure::detect(model)).flatten(),
        });
        let solution = self.search(model, classified.structure.as_ref(), known, &mut ws);
        ws.classified = Some(classified);
        ws.accumulated_pivots += solution.pivots;
        ws.accumulated_factor.refactorizations += solution.factor.refactorizations;
        ws.accumulated_factor.peak_eta_len = ws
            .accumulated_factor
            .peak_eta_len
            .max(solution.factor.peak_eta_len);
        if solution.factor.fill_in_ratio > 0.0 {
            ws.accumulated_factor.fill_in_ratio = solution.factor.fill_in_ratio;
        }
        ws.accumulated_pricing.devex_resets += solution.pricing.devex_resets;
        ws.accumulated_pricing.bland_activations += solution.pricing.bland_activations;
        if let Some(decomp) = solution.decomp {
            ws.accumulated_decomp.columns_generated += decomp.columns_generated;
            ws.accumulated_decomp.pricing_rounds += decomp.pricing_rounds;
            ws.accumulated_decomp.master_pivots += decomp.master_pivots;
        }
        ws.last_dims = (model.num_vars(), model.num_constraints());
        solution
    }

    /// Total simplex pivots across every [`Self::solve`] call on this
    /// solver's internal workspace.  Reading the counter before and after a
    /// stream of placements gives the per-run pivot count — e.g. the
    /// epoch-to-epoch warm-restart work of a year-long simulation.
    pub fn accumulated_pivots(&self) -> usize {
        self.lock().accumulated_pivots
    }

    /// Factorization statistics accumulated across every [`Self::solve`]
    /// call on this solver's internal workspace (refactorizations sum, peak
    /// eta length is the running maximum, fill-in ratio is the most recent
    /// solve that factorized).
    pub fn accumulated_factor_stats(&self) -> FactorStats {
        self.lock().accumulated_factor
    }

    /// Pricing-ladder statistics accumulated across every [`Self::solve`]
    /// call on this solver's internal workspace.
    pub fn accumulated_pricing_stats(&self) -> PricingStats {
        self.lock().accumulated_pricing
    }

    /// Column-generation statistics accumulated across every [`Self::solve`]
    /// call on this solver's internal workspace (all zero when every solve
    /// took the monolithic path).
    pub fn accumulated_decomp_stats(&self) -> DecompStats {
        self.lock().accumulated_decomp
    }

    /// `(variables, rows)` of the most recent model solved through
    /// [`Self::solve`] — the model as given, before decomposition drops
    /// rows.
    pub fn last_model_dims(&self) -> (usize, usize) {
        self.lock().last_dims
    }

    /// The branch-and-bound search, over the full model or, given its
    /// block `structure`, over the decomposition master.  The two routes
    /// differ only in the node LP: one simplex solve, or column generation
    /// ([`decomp::node_lp`]) whose integer candidates are still verified
    /// against the full model, linking rows included.  `known` says the
    /// model has the structure of the previous solve's, so a loaded
    /// workspace already matches its view.
    fn search(
        &self,
        model: &Model,
        structure: Option<&BlockStructure>,
        known: bool,
        ws: &mut MilpWorkspace,
    ) -> MilpSolution {
        let decomposed = structure.is_some();
        let mask = structure.map_or(&[][..], |s| &s.linking[..]);
        let mut stats = DecompStats::default();
        if ws.loaded
            && ws.decomposed == decomposed
            && (known || ws.prep.matches_structure(model, mask))
        {
            if ws.prep.refresh_costs(model) {
                ws.simplex.invalidate_duals();
                ws.last_solution = None;
            } else if ws.last_max_nodes == self.max_nodes {
                // Bit-identical model and configuration: the previous
                // result is still the answer, and no simplex or pricing
                // work is needed to reproduce it.
                if let Some(cached) = &ws.last_solution {
                    let mut solution = cached.clone();
                    solution.pivots = 0;
                    solution.factor = FactorStats::default();
                    solution.pricing = PricingStats::default();
                    solution.decomp = decomposed.then(DecompStats::default);
                    return solution;
                }
            }
            // Undo the previous search's branching diffs so the root sees
            // natural bounds again.
            for &v in &ws.touched {
                ws.simplex.reset_var_bounds(&ws.prep, v as usize);
            }
        } else {
            ws.prep.load(model, mask);
            ws.simplex.reset(&ws.prep);
            ws.loaded = true;
            ws.decomposed = decomposed;
            ws.last_solution = None;
            if let Some(structure) = structure {
                decomp::load_master(model, structure, ws, &mut stats);
            }
        }
        ws.simplex.reset_factor_stats();
        ws.nodes.clear();
        ws.open.clear();
        ws.touched.clear();
        ws.binaries.clear();
        ws.binaries
            .extend(model.binary_vars().iter().map(|v| v.index()));
        ws.incumbent.clear();

        ws.nodes.push(NodeRec {
            parent: NO_VAR,
            var: NO_VAR,
            fixed: 0.0,
        });
        ws.open.push(OpenNode {
            bound: f64::NEG_INFINITY,
            seq: 0,
            node: 0,
        });
        let mut seq = 1u32;

        let mut have_incumbent = false;
        let mut best_obj = f64::INFINITY;
        let mut nodes = 0usize;
        let mut pivots = 0usize;
        let mut pricing = PricingStats::default();
        let mut exhausted = true;

        while let Some(open) = ws.open.pop() {
            if nodes >= self.max_nodes {
                exhausted = false;
                break;
            }
            // Best-first: once the lowest open bound cannot beat the
            // incumbent, no remaining node can — the whole tree is pruned.
            if have_incumbent && open.bound >= best_obj - TOLERANCE {
                break;
            }
            nodes += 1;

            ws.apply_bounds(open.node);
            let outcome = match structure {
                Some(structure) => {
                    decomp::node_lp(structure, ws, &mut stats, &mut pivots, &mut pricing)
                }
                None => ws.solve_lp(&mut pivots, &mut pricing),
            };
            match outcome {
                LpOutcome::Optimal => {}
                // Infeasible nodes are pruned; unbounded relaxations of a
                // bounded-binary problem can only come from unbounded
                // continuous variables and make the node unusable, as does
                // an iteration limit.
                _ => continue,
            }
            let obj = ws.simplex.objective(&ws.prep);
            if open.node == 0 {
                // Remember the root-optimal (on a master: fully priced)
                // basis; the search re-installs it after exploring the tree
                // so a repeated solve of the same model replays identically
                // (see below).
                ws.simplex.snapshot_basis();
            }
            if have_incumbent && obj >= best_obj - TOLERANCE {
                continue;
            }

            match self.most_fractional_binary(&ws.binaries, ws.simplex.values()) {
                None => {
                    // Integer feasible: round binaries exactly and keep if
                    // improving (buffers reused, no per-incumbent clone).
                    // The check is against the *original* model, so on a
                    // master the dropped linking rows are re-checked and no
                    // master artifact can become an incumbent.
                    ws.candidate.clear();
                    ws.candidate.extend_from_slice(ws.simplex.values());
                    for &b in &ws.binaries {
                        ws.candidate[b] = ws.candidate[b].round();
                    }
                    if model.is_feasible(&ws.candidate, 1e-5) {
                        let candidate_obj = model.objective_value(&ws.candidate);
                        if !have_incumbent || candidate_obj < best_obj - TOLERANCE {
                            have_incumbent = true;
                            best_obj = candidate_obj;
                            ws.incumbent.clear();
                            ws.incumbent.extend_from_slice(&ws.candidate);
                        }
                    }
                }
                Some(branch_var) => {
                    // Two children, each a one-entry diff against this node.
                    for fixed in [1.0, 0.0] {
                        let idx = ws.nodes.len() as u32;
                        ws.nodes.push(NodeRec {
                            parent: open.node,
                            var: branch_var as u32,
                            fixed,
                        });
                        ws.open.push(OpenNode {
                            bound: obj,
                            seq,
                            node: idx,
                        });
                        seq += 1;
                    }
                }
            }
        }

        // Leave the workspace resting on the *root-optimal* basis rather
        // than whichever node the search happened to process last: undo the
        // remaining branching diffs and re-install the snapshot taken when
        // the root was solved.  A repeated solve of the same model then
        // warm-restarts from an already optimal basis (zero pivots, same
        // vertex) and replays the search identically — the re-solve fixed
        // point the warm-start contract promises even on degenerate models
        // with tied optima.
        if nodes > 1 {
            for &v in &ws.touched {
                ws.simplex.reset_var_bounds(&ws.prep, v as usize);
            }
            ws.touched.clear();
            ws.simplex.restore_basis(&ws.prep);
        }

        let solution = MilpSolution {
            outcome: match (have_incumbent, exhausted) {
                (true, true) => MilpOutcome::Optimal,
                (true, false) => MilpOutcome::Feasible,
                (false, true) => MilpOutcome::Infeasible,
                (false, false) => MilpOutcome::NodeLimit,
            },
            // Both stay at their start (infinity, empty) without an
            // incumbent.
            objective: best_obj,
            values: ws.incumbent.clone(),
            nodes,
            pivots,
            factor: FactorStats {
                refactorizations: ws.simplex.refactor_count(),
                peak_eta_len: ws.simplex.peak_eta_len(),
                fill_in_ratio: ws.simplex.fill_in_ratio(),
            },
            pricing,
            // The pricing subproblems are closed-form, so every pivot of
            // the decomposition route is a master pivot.
            decomp: structure.map(|_| DecompStats {
                master_pivots: pivots,
                ..stats
            }),
        };
        ws.last_solution = Some(solution.clone());
        ws.last_max_nodes = self.max_nodes;
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Comparison, LinearExpr, Model};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn knapsack_is_solved_exactly() {
        // max 10a + 6b + 4c st 5a + 4b + 3c <= 8  (as minimization)
        // best: a + c = 14 (weight 8); a+b = 16 weight 9 infeasible -> optimum a,c.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        let c = m.add_binary();
        m.set_objective_term(a, -10.0);
        m.set_objective_term(b, -6.0);
        m.set_objective_term(c, -4.0);
        m.add_constraint(
            LinearExpr::new().with(a, 5.0).with(b, 4.0).with(c, 3.0),
            Comparison::LessEq,
            8.0,
        );
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        assert!(approx(sol.objective, -14.0), "obj {}", sol.objective);
        assert!(approx(sol.values[a.index()], 1.0));
        assert!(approx(sol.values[b.index()], 0.0));
        assert!(approx(sol.values[c.index()], 1.0));
    }

    #[test]
    fn assignment_with_capacity_is_exact() {
        // 3 apps, 2 servers; server capacity 2 apps; costs force splitting.
        let costs = [[1.0, 10.0], [1.0, 10.0], [1.0, 10.0]];
        let mut m = Model::new();
        let mut x = vec![vec![]; 3];
        for i in 0..3 {
            for &cost in &costs[i] {
                let v = m.add_binary();
                m.set_objective_term(v, cost);
                x[i].push(v);
            }
            let expr = LinearExpr::new().with(x[i][0], 1.0).with(x[i][1], 1.0);
            m.add_constraint(expr, Comparison::Equal, 1.0);
        }
        for j in 0..2 {
            let mut expr = LinearExpr::new();
            for row in &x {
                expr.add(row[j], 1.0);
            }
            m.add_constraint(expr, Comparison::LessEq, 2.0);
        }
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        // Two apps on cheap server (cost 1 each) + one forced to server 2 (10).
        assert!(approx(sol.objective, 12.0), "obj {}", sol.objective);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn infeasible_milp_detected() {
        // Two apps must each be assigned but single server capacity is 1.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        m.add_constraint(LinearExpr::new().with(a, 1.0), Comparison::Equal, 1.0);
        m.add_constraint(LinearExpr::new().with(b, 1.0), Comparison::Equal, 1.0);
        m.add_constraint(
            LinearExpr::new().with(a, 1.0).with(b, 1.0),
            Comparison::LessEq,
            1.0,
        );
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Infeasible);
        assert!(!sol.has_solution());
    }

    #[test]
    fn fixed_charge_activation_structure() {
        // One app can go to server A (op cost 10, activation 1) or server B
        // (op cost 1, activation 100).  y_j >= x_j links activation.
        let mut m = Model::new();
        let xa = m.add_binary();
        let xb = m.add_binary();
        let ya = m.add_binary();
        let yb = m.add_binary();
        m.set_objective_term(xa, 10.0);
        m.set_objective_term(xb, 1.0);
        m.set_objective_term(ya, 1.0);
        m.set_objective_term(yb, 100.0);
        m.add_constraint(
            LinearExpr::new().with(xa, 1.0).with(xb, 1.0),
            Comparison::Equal,
            1.0,
        );
        m.add_constraint(
            LinearExpr::new().with(xa, 1.0).with(ya, -1.0),
            Comparison::LessEq,
            0.0,
        );
        m.add_constraint(
            LinearExpr::new().with(xb, 1.0).with(yb, -1.0),
            Comparison::LessEq,
            0.0,
        );
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        // Choosing A costs 11, choosing B costs 101 -> A wins.
        assert!(approx(sol.objective, 11.0), "obj {}", sol.objective);
        assert!(approx(sol.values[xa.index()], 1.0));
    }

    #[test]
    fn node_limit_produces_anytime_result() {
        let mut m = Model::new();
        // A slightly larger knapsack to force branching.
        let vals = [12.0, 7.0, 11.0, 8.0, 9.0, 6.0, 7.0, 5.0];
        let weights = [4.0, 3.0, 5.0, 3.0, 4.0, 2.0, 3.0, 2.0];
        let vars: Vec<_> = (0..vals.len()).map(|_| m.add_binary()).collect();
        let mut cap = LinearExpr::new();
        for (i, v) in vars.iter().enumerate() {
            m.set_objective_term(*v, -vals[i]);
            cap.add(*v, weights[i]);
        }
        m.add_constraint(cap, Comparison::LessEq, 10.0);
        let limited = BranchBoundSolver::with_node_limit(3).solve(&m);
        assert!(limited.nodes <= 3);
        let full = BranchBoundSolver::new().solve(&m);
        assert_eq!(full.outcome, MilpOutcome::Optimal);
        if limited.has_solution() {
            assert!(limited.objective >= full.objective - 1e-6);
        }
    }

    #[test]
    fn continuous_and_binary_mix() {
        // x in [0, 10], y binary, x + 2y >= 3 -> either y=1 (cost 5 + x=1) = 6,
        // or y=0 x=3 -> 3.  Optimum 3.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_binary();
        m.set_objective_term(x, 1.0);
        m.set_objective_term(y, 5.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 2.0),
            Comparison::GreaterEq,
            3.0,
        );
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        assert!(approx(sol.objective, 3.0), "obj {}", sol.objective);
    }

    #[test]
    fn optimum_matches_exhaustive_enumeration_on_random_instances() {
        // Small random generalized-assignment instances; brute force vs B&B.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _case in 0..5 {
            let apps = 4;
            let servers = 3;
            let costs: Vec<Vec<f64>> = (0..apps)
                .map(|_| (0..servers).map(|_| rng.gen_range(1.0..20.0)).collect())
                .collect();
            let demand: Vec<f64> = (0..apps).map(|_| rng.gen_range(1.0..3.0)).collect();
            let capacity = 5.0;

            let mut m = Model::new();
            let mut x = vec![vec![]; apps];
            for i in 0..apps {
                for &cost in &costs[i] {
                    let v = m.add_binary();
                    m.set_objective_term(v, cost);
                    x[i].push(v);
                }
                let mut expr = LinearExpr::new();
                for &v in &x[i] {
                    expr.add(v, 1.0);
                }
                m.add_constraint(expr, Comparison::Equal, 1.0);
            }
            for j in 0..servers {
                let mut expr = LinearExpr::new();
                for (row, &d) in x.iter().zip(demand.iter()) {
                    expr.add(row[j], d);
                }
                m.add_constraint(expr, Comparison::LessEq, capacity);
            }
            let sol = BranchBoundSolver::new().solve(&m);

            // Brute force over all server^apps assignments.
            let mut best = f64::INFINITY;
            for code in 0..servers.pow(apps as u32) {
                let mut c = code;
                let mut load = vec![0.0; servers];
                let mut cost = 0.0;
                for i in 0..apps {
                    let j = c % servers;
                    c /= servers;
                    load[j] += demand[i];
                    cost += costs[i][j];
                }
                if load.iter().all(|l| *l <= capacity + 1e-9) {
                    best = best.min(cost);
                }
            }
            assert_eq!(sol.outcome, MilpOutcome::Optimal);
            assert!(
                approx(sol.objective, best),
                "bb {} brute {}",
                sol.objective,
                best
            );
        }
    }

    #[test]
    fn repeated_solves_reuse_the_workspace_and_agree() {
        // The same solver instance must produce identical results across
        // models of different shapes (the workspace is re-seeded per solve).
        let solver = BranchBoundSolver::new();
        let mut knapsack = Model::new();
        let a = knapsack.add_binary();
        let b = knapsack.add_binary();
        knapsack.set_objective_term(a, -3.0);
        knapsack.set_objective_term(b, -4.0);
        knapsack.add_constraint(
            LinearExpr::new().with(a, 1.0).with(b, 2.0),
            Comparison::LessEq,
            2.0,
        );
        let first = solver.solve(&knapsack);

        let mut other = Model::new();
        let p = other.add_binary();
        let q = other.add_binary();
        let r = other.add_binary();
        other.set_objective_term(p, -1.0);
        other.set_objective_term(q, -2.0);
        other.set_objective_term(r, -3.0);
        other.add_constraint(
            LinearExpr::new().with(p, 1.0).with(q, 1.0).with(r, 1.0),
            Comparison::LessEq,
            2.0,
        );
        let middle = solver.solve(&other);
        assert_eq!(middle.outcome, MilpOutcome::Optimal);
        assert!(approx(middle.objective, -5.0), "obj {}", middle.objective);

        // Back to the first model on the dirty workspace: identical result.
        let again = solver.solve(&knapsack);
        assert_eq!(first, again);
        // A fresh clone (fresh workspace) also agrees.
        let fresh = solver.clone().solve(&knapsack);
        assert_eq!(first, fresh);
    }

    #[test]
    fn pivot_statistics_are_reported() {
        let mut m = Model::new();
        let vals = [12.0, 7.0, 11.0, 8.0, 9.0];
        let weights = [4.0, 3.0, 5.0, 3.0, 4.0];
        let vars: Vec<_> = (0..vals.len()).map(|_| m.add_binary()).collect();
        let mut cap = LinearExpr::new();
        for (i, v) in vars.iter().enumerate() {
            m.set_objective_term(*v, -vals[i]);
            cap.add(*v, weights[i]);
        }
        m.add_constraint(cap, Comparison::LessEq, 9.0);
        let sol = BranchBoundSolver::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        assert!(sol.nodes >= 1);
        assert!(sol.pivots >= 1, "expected at least one simplex pivot");
    }

    #[test]
    fn accumulated_pivots_track_solves_on_the_internal_workspace() {
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        m.set_objective_term(a, -3.0);
        m.set_objective_term(b, -2.0);
        m.add_constraint(
            LinearExpr::new().with(a, 1.0).with(b, 1.0),
            Comparison::LessEq,
            1.0,
        );
        let solver = BranchBoundSolver::new();
        assert_eq!(solver.accumulated_pivots(), 0);
        let first = solver.solve(&m);
        assert_eq!(solver.accumulated_pivots(), first.pivots);
        let second = solver.solve(&m);
        assert_eq!(
            solver.accumulated_pivots(),
            first.pivots + second.pivots,
            "counter must accumulate across solves"
        );
        // A clone starts with a fresh workspace and a fresh counter.
        assert_eq!(solver.clone().accumulated_pivots(), 0);
    }
}
