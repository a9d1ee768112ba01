//! Dantzig–Wolfe column generation for assignment-shaped placement MILPs.
//!
//! The placement MILP built by `carbonedge_core::IncrementalPlacer` is
//! block-structured per application: each app's assignment row and its
//! `x ≤ y` linking columns couple to the rest of the model only through the
//! shared site-capacity rows.  In the Dantzig–Wolfe view each app block's
//! extreme points are simply "place this app on server j", so the master
//! problem's columns *are* the original `x_ij` variables: the assignment
//! rows double as the per-app convexity rows, and the pricing subproblem
//! degenerates to a closed-form argmin over that app's feasible
//! `(site, reduced cost)` pairs — one pass over the inactive columns, no
//! inner simplex.
//!
//! Concretely the **restricted master** is the original model minus the
//! `x ≤ y` linking rows (dropping them is integrally lossless whenever
//! `y = 0` already forces `x = 0` through a capacity row — verified by
//! [`BlockStructure::detect`], which falls back to the monolithic path
//! otherwise), with all but an initial working set of assignment columns
//! pinned to `[0, 0]`.  The master is a row view, not a copied `Model`:
//! [`Prepared::load`] reads the original model and skips the rows
//! `detect` marks as linking.  At the 200×50 corridor scale this cuts the
//! row count from ~1.4k to ~400: the linking rows are the bulk of the
//! matrix and the master never materializes them.
//!
//! Columns are "generated" by relaxing their pinned bounds back to the
//! natural `[0, 1]` — the prepared matrix never changes shape, so every
//! master re-solve is a warm restart in the resident simplex workspace.
//!
//! Integer solutions come from **price-and-branch**, and column generation
//! is the node LP of the one branch-and-bound search
//! ([`crate::branch_bound`]): the search loads the master instead of the
//! full model, and `node_lp` re-prices inside every node.  Everything
//! else is the search's own — the best-first queue, the parent-diff node
//! arena, dual-simplex warm starts after bound fixings, the memoized
//! bit-identical re-solve at zero pivots, and the verification of every
//! integer candidate against the *full original model*, linking rows
//! included, before it becomes an incumbent.
//!
//! Determinism: columns are seeded, priced and activated in ascending
//! variable order, ties break toward the lower index, and nothing here
//! reads a clock; repeated solves of a bit-identical model return the
//! memoized solution with zero pivots.

use crate::branch_bound::{DecompStats, MilpWorkspace, PricingStats};
use crate::model::{Comparison, Model, VarKind};
use crate::simplex::{kept_rows, LpOutcome, Prepared, SimplexSolver};

/// Feasibility slack used when the greedy seeding packs columns against
/// row capacities and when integer candidates are checked.
const SEED_TOL: f64 = 1e-9;

/// The detected assignment-with-activation block structure of a model.
///
/// Detection is exact and conservative: every row and variable must
/// classify cleanly, and every `x ≤ y` linking row must be integrally
/// implied by a kept capacity row, or `detect` returns `None` and the
/// caller stays on the monolithic path.
#[derive(Debug, Clone)]
pub struct BlockStructure {
    /// Per original row: `true` when the row is an `x ≤ y` linking row the
    /// master drops (the row mask of the master's [`Prepared`] view).
    pub(crate) linking: Vec<bool>,
    /// Per original row: `true` when the row is a per-app convexity row.
    convexity: Vec<bool>,
    /// Per assignment (convexity) row, in row order: that app's candidate
    /// columns in term order.
    apps: Vec<Vec<usize>>,
    /// Every generation-candidate column, ascending.
    x_cols: Vec<usize>,
    /// Activation columns with no `y = 1` pin row, ascending; the crash
    /// basis rests them at their upper bound (matching the greedy
    /// seeding's full-activation capacity assumption).
    unpinned_y: Vec<usize>,
}

/// Row classification used by [`BlockStructure::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// `x − y ≤ 0`: dropped by the master (when integrally implied).
    Linking,
    /// `≤` coupling row kept in the master (capacity, at most one negative
    /// activation coefficient).
    Coupling,
    /// `= 1` row with unit coefficients: a convexity row, or an activation
    /// pin (`y = 1`) kept as a coupling row.
    EqOne,
}

impl BlockStructure {
    /// Classifies `model` as an assignment-shaped placement MILP, or
    /// returns `None` when any row or variable falls outside the shape
    /// (continuous variables, `≥` rows, multi-negative `≤` rows, columns
    /// shared between assignment rows, or a linking row whose drop would
    /// not be integrally lossless).
    pub fn detect(model: &Model) -> Option<Self> {
        let n = model.num_vars();
        let nrows = model.num_constraints();
        if n == 0 || nrows == 0 {
            return None;
        }
        if model.vars().iter().any(|k| !matches!(k, VarKind::Binary)) {
            return None;
        }

        let mut kinds = Vec::with_capacity(nrows);
        for c in model.constraints() {
            let kind = match c.cmp {
                Comparison::GreaterEq => return None,
                Comparison::LessEq => {
                    let negatives = c.expr.terms.iter().filter(|(_, a)| *a < 0.0).count();
                    let two_term_unit = c.rhs == 0.0
                        && c.expr.terms.len() == 2
                        && c.expr.terms.iter().any(|(_, a)| *a == 1.0)
                        && c.expr.terms.iter().any(|(_, a)| *a == -1.0);
                    if two_term_unit {
                        RowKind::Linking
                    } else if negatives <= 1 {
                        RowKind::Coupling
                    } else {
                        return None;
                    }
                }
                Comparison::Equal => {
                    if c.rhs == 1.0
                        && !c.expr.terms.is_empty()
                        && c.expr.terms.iter().all(|(_, a)| *a == 1.0)
                    {
                        RowKind::EqOne
                    } else {
                        return None;
                    }
                }
            };
            kinds.push(kind);
        }

        // Activation variables: negative coefficient in a kept coupling row
        // or on the negative side of a linking row.  `forced` records the
        // `(x, y)` pairs where a kept coupling row already enforces
        // "`y = 0` ⇒ `x = 0`", sorted and deduplicated for binary search.
        let mut is_y = vec![false; n];
        let mut forced: Vec<(usize, usize)> = Vec::new();
        for (r, c) in model.constraints().iter().enumerate() {
            match kinds[r] {
                RowKind::Linking => {
                    for (v, a) in &c.expr.terms {
                        if *a < 0.0 {
                            is_y[v.index()] = true;
                        }
                    }
                }
                RowKind::Coupling => {
                    let mut y = None;
                    for (v, a) in &c.expr.terms {
                        if *a < 0.0 {
                            is_y[v.index()] = true;
                            y = Some(v.index());
                        }
                    }
                    if let Some(y) = y {
                        for (v, a) in &c.expr.terms {
                            if *a > 0.0 {
                                forced.push((v.index(), y));
                            }
                        }
                    }
                }
                RowKind::EqOne => {}
            }
        }
        forced.sort_unstable();
        forced.dedup();

        // Convexity rows: `= 1` rows that are not single-term activation
        // pins; every candidate column belongs to exactly one.
        let mut app_of = vec![usize::MAX; n];
        let mut apps: Vec<Vec<usize>> = Vec::new();
        let mut convexity = vec![false; nrows];
        let mut pinned_y = vec![false; n];
        for (r, c) in model.constraints().iter().enumerate() {
            if kinds[r] != RowKind::EqOne {
                continue;
            }
            if c.expr.terms.len() == 1 && is_y[c.expr.terms[0].0.index()] {
                // Activation pin (`y = 1`), kept as a coupling row.
                pinned_y[c.expr.terms[0].0.index()] = true;
                continue;
            }
            let mut cols = Vec::with_capacity(c.expr.terms.len());
            for (v, _) in &c.expr.terms {
                let j = v.index();
                if is_y[j] || app_of[j] != usize::MAX {
                    return None;
                }
                app_of[j] = apps.len();
                cols.push(j);
            }
            convexity[r] = true;
            apps.push(cols);
        }
        if apps.is_empty() {
            return None;
        }

        // A linking row may be dropped only when its `x` is a convexity
        // column and a kept coupling row already forces `x = 0` at `y = 0`
        // (then `x ≤ y` holds at every integer point the master can emit).
        let mut linking = vec![false; nrows];
        for (r, c) in model.constraints().iter().enumerate() {
            if kinds[r] != RowKind::Linking {
                continue;
            }
            let mut x = usize::MAX;
            let mut y = usize::MAX;
            for (v, a) in &c.expr.terms {
                if *a > 0.0 {
                    x = v.index();
                } else {
                    y = v.index();
                }
            }
            if app_of[x] == usize::MAX || forced.binary_search(&(x, y)).is_err() {
                return None;
            }
            linking[r] = true;
        }

        let mut x_cols: Vec<usize> = apps.iter().flatten().copied().collect();
        x_cols.sort_unstable();
        let unpinned_y = (0..n).filter(|&j| is_y[j] && !pinned_y[j]).collect();
        Some(Self {
            linking,
            convexity,
            apps,
            x_cols,
            unpinned_y,
        })
    }

    /// Number of app (convexity) blocks.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Number of generation-candidate columns.
    pub fn num_candidate_columns(&self) -> usize {
        self.x_cols.len()
    }

    /// Number of linking rows the master drops.
    pub fn num_linking_rows(&self) -> usize {
        self.linking.iter().filter(|&&l| l).count()
    }
}

impl MilpWorkspace {
    /// Activates a pinned master column: relaxes its bounds back to the
    /// natural `[0, 1]`.
    fn activate(&mut self, j: usize, stats: &mut DecompStats) {
        if !self.active[j] {
            self.active[j] = true;
            self.simplex.set_var_bounds(j, 0.0, 1.0);
            stats.columns_generated += 1;
        }
    }
}

/// `true` when column `j`'s demands fit in the per-row residuals.
fn column_fits(prep: &Prepared, remaining: &[f64], j: usize) -> bool {
    prep.col(j)
        .all(|(r, a)| a <= 0.0 || a <= remaining[r] + SEED_TOL)
}

/// Deducts (or, with `sign = -1.0`, restores) column `j`'s demands from
/// the per-row residuals.
fn deduct_column(prep: &Prepared, remaining: &mut [f64], j: usize, sign: f64) {
    for (r, a) in prep.col(j) {
        if a > 0.0 && remaining[r].is_finite() {
            remaining[r] -= sign * a;
        }
    }
}

/// Tries to place stranded app `k` by a deterministic single swap: evict
/// one earlier-fitted app `b` to an alternative column of its own block so
/// that one of `k`'s columns fits in the freed residual.  Apps, columns and
/// alternatives are scanned in ascending order, so the first success is a
/// deterministic function of the model.  Returns `k`'s new column and
/// updates `fitted` / `remaining` in place.
fn repair_stranded(
    prep: &Prepared,
    apps: &[Vec<usize>],
    remaining: &mut [f64],
    fitted: &mut [Option<usize>],
    k: usize,
) -> Option<usize> {
    for &ja in &apps[k] {
        for b in 0..fitted.len() {
            let Some(jb) = fitted[b] else { continue };
            if b == k {
                continue;
            }
            deduct_column(prep, remaining, jb, -1.0);
            if column_fits(prep, remaining, ja) {
                deduct_column(prep, remaining, ja, 1.0);
                let alt = apps[b]
                    .iter()
                    .copied()
                    .find(|&j| j != jb && column_fits(prep, remaining, j));
                if let Some(jb_new) = alt {
                    deduct_column(prep, remaining, jb_new, 1.0);
                    fitted[b] = Some(jb_new);
                    fitted[k] = Some(ja);
                    return Some(ja);
                }
                deduct_column(prep, remaining, ja, -1.0);
            }
            deduct_column(prep, remaining, jb, 1.0);
        }
    }
    None
}

/// Deterministic greedy seeding of the initial working set: walking the
/// apps in row order, each app activates its cheapest column that still
/// fits the remaining `≤`-row slack (assuming every activation variable at
/// 1, i.e. maximum capacity), plus its unconditionally cheapest column so
/// the convexity row always has somewhere to rest.  Ties break toward the
/// earlier term.
///
/// Returns the greedy integral assignment (one fitted column per app) when
/// one was found — the crash-basis plan.  `None` means at least one app
/// could not be packed even after the swap repair; the master then starts
/// from the full-activation-safe working set and the cold dual walk.
fn seed_columns(
    model: &Model,
    structure: &BlockStructure,
    ws: &mut MilpWorkspace,
    stats: &mut DecompStats,
) -> Option<Vec<usize>> {
    // Remaining slack per master row under full activation: `rhs` plus the
    // magnitude of every negative (activation) coefficient for `≤` rows;
    // other rows never constrain the greedy.
    let mut remaining: Vec<f64> = kept_rows(model, &structure.linking)
        .map(|c| match c.cmp {
            Comparison::LessEq => {
                let activation: f64 = c
                    .expr
                    .terms
                    .iter()
                    .filter(|(_, a)| *a < 0.0)
                    .map(|(_, a)| -a)
                    .sum();
                c.rhs + activation
            }
            _ => f64::INFINITY,
        })
        .collect();

    let mut fitted: Vec<Option<usize>> = vec![None; structure.apps.len()];
    let mut stranded: Vec<usize> = Vec::new();
    for (k, app) in structure.apps.iter().enumerate() {
        let mut cheapest: Option<(usize, f64)> = None;
        let mut fitting: Option<(usize, f64)> = None;
        for &j in app {
            let cost = ws.prep.col_cost(j);
            if cheapest.is_none_or(|(_, best)| cost < best) {
                cheapest = Some((j, cost));
            }
            if column_fits(&ws.prep, &remaining, j) && fitting.is_none_or(|(_, best)| cost < best) {
                fitting = Some((j, cost));
            }
        }
        if let Some((j, _)) = fitting {
            deduct_column(&ws.prep, &mut remaining, j, 1.0);
            fitted[k] = Some(j);
            ws.activate(j, stats);
            if let Some((j, _)) = cheapest {
                ws.activate(j, stats);
            }
        } else {
            // Congested neighborhood: nothing fits in the greedy residual,
            // so pinning this app to its cheapest column alone could leave
            // the restricted master infeasible (forcing a full-activation
            // rescue).  Activating the whole block — a handful of columns —
            // keeps the master feasible whenever the full master is.
            stranded.push(k);
            for &j in app {
                ws.activate(j, stats);
            }
        }
    }
    for &k in &stranded {
        repair_stranded(&ws.prep, &structure.apps, &mut remaining, &mut fitted, k)?;
    }
    // A repair may have re-fitted an app onto a column outside the working
    // set; make sure every planned column is active.
    let plan: Vec<usize> = fitted.into_iter().collect::<Option<Vec<usize>>>()?;
    for &j in &plan {
        if !ws.active[j] {
            ws.activate(j, stats);
        }
    }
    Some(plan)
}

/// Builds the crash-basis column list for the master rows: each convexity
/// row seats its app's planned column, each `y = 1` pin row seats its
/// activation variable, and every coupling row keeps its slack.  Row `r`'s
/// slack is column `num_vars + r` in the prepared master.
fn crash_basis(model: &Model, structure: &BlockStructure, plan: &[usize]) -> Vec<usize> {
    let n = model.num_vars();
    let mut basic = Vec::with_capacity(model.num_constraints());
    let mut app = 0usize;
    for (r, c) in model.constraints().iter().enumerate() {
        if structure.linking[r] {
            continue;
        }
        let master_row = basic.len();
        if structure.convexity[r] {
            basic.push(plan[app]);
            app += 1;
        } else if c.cmp == Comparison::Equal {
            basic.push(c.expr.terms[0].0.index());
        } else {
            basic.push(n + master_row);
        }
    }
    basic
}

/// Readies a freshly loaded master for its first search: pins every
/// candidate column to `[0, 0]`, activates the greedy working set and, when
/// the greedy found an integral assignment, seats it as the starting basis.
pub(crate) fn load_master(
    model: &Model,
    structure: &BlockStructure,
    ws: &mut MilpWorkspace,
    stats: &mut DecompStats,
) {
    ws.active.clear();
    ws.active.resize(model.num_vars(), true);
    for &j in &structure.x_cols {
        ws.active[j] = false;
        ws.simplex.set_var_bounds(j, 0.0, 0.0);
    }
    if let Some(plan) = seed_columns(model, structure, ws, stats) {
        // The greedy seeding doubled as an integral, capacity-feasible
        // assignment: seat it as the starting basis (block triangular,
        // fill-in free) so the first master solve opens in phase-2 a few
        // pivots from the optimum instead of cold dual-walking the whole
        // row count.
        let basic = crash_basis(model, structure, &plan);
        ws.simplex
            .install_crash_basis(&ws.prep, &basic, &structure.unpinned_y);
    }
}

/// The node LP of the decomposition route: solves one node's relaxation to
/// *full-master* optimality by column generation — solve the restricted
/// master, price every pinned column against the master duals, activate
/// all improving columns, repeat.  An infeasible restricted master
/// activates every remaining column once before the verdict is trusted
/// (the full master is a relaxation of the original model under the same
/// fixings, so full-master infeasibility soundly prunes the node).
pub(crate) fn node_lp(
    lp: &SimplexSolver,
    structure: &BlockStructure,
    ws: &mut MilpWorkspace,
    stats: &mut DecompStats,
    pivots: &mut usize,
    pricing: &mut PricingStats,
) -> LpOutcome {
    let mut rescued = false;
    loop {
        match ws.solve_lp(lp, pivots, pricing) {
            LpOutcome::Optimal => {}
            LpOutcome::Infeasible if !rescued => {
                rescued = true;
                let mut any = false;
                for &j in &structure.x_cols {
                    if !ws.active[j] {
                        ws.activate(j, stats);
                        any = true;
                    }
                }
                if !any {
                    return LpOutcome::Infeasible;
                }
                continue;
            }
            other => return other,
        }
        stats.pricing_rounds += 1;
        ws.to_activate.clear();
        {
            let duals = ws.simplex.duals();
            let prep = &ws.prep;
            for &j in &structure.x_cols {
                if ws.active[j] {
                    continue;
                }
                let mut rc = prep.col_cost(j);
                for (r, a) in prep.col(j) {
                    rc -= duals[r] * a;
                }
                if rc < -lp.tolerance {
                    ws.to_activate.push(j);
                }
            }
        }
        if ws.to_activate.is_empty() {
            return LpOutcome::Optimal;
        }
        for idx in 0..ws.to_activate.len() {
            let j = ws.to_activate[idx];
            ws.activate(j, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::{BranchBoundSolver, MilpOutcome};
    use crate::model::{LinearExpr, VarId};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    /// A miniature placement MILP in the exact shape `build_model_from_costs`
    /// emits: assignment rows, per-server capacity rows with activation,
    /// `x ≤ y` linking rows, and optional `y = 1` pins.
    fn placement_model(
        costs: &[&[Option<f64>]],
        demand: f64,
        capacity: f64,
        activation: &[f64],
        pinned: &[bool],
    ) -> Model {
        let apps = costs.len();
        let servers = activation.len();
        let mut m = Model::new();
        let mut x = vec![vec![None; servers]; apps];
        for (i, row) in costs.iter().enumerate() {
            for (j, cost) in row.iter().enumerate() {
                if let Some(c) = cost {
                    let v = m.add_binary();
                    m.set_objective_term(v, *c);
                    x[i][j] = Some(v);
                }
            }
        }
        let y: Vec<_> = (0..servers)
            .map(|j| {
                let v = m.add_binary();
                m.set_objective_term(v, activation[j]);
                v
            })
            .collect();
        for (j, &pin) in pinned.iter().enumerate() {
            if pin {
                m.add_constraint(LinearExpr::new().with(y[j], 1.0), Comparison::Equal, 1.0);
            }
        }
        for row in &x {
            let mut expr = LinearExpr::new();
            for v in row.iter().flatten() {
                expr.add(*v, 1.0);
            }
            m.add_constraint(expr, Comparison::Equal, 1.0);
        }
        for (j, &yv) in y.iter().enumerate() {
            let mut expr = LinearExpr::new();
            for row in &x {
                if let Some(v) = row[j] {
                    expr.add(v, demand);
                }
            }
            if expr.terms.is_empty() {
                continue;
            }
            expr.add(yv, -capacity);
            m.add_constraint(expr, Comparison::LessEq, 0.0);
        }
        for row in &x {
            for (j, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    m.add_constraint(
                        LinearExpr::new().with(*v, 1.0).with(y[j], -1.0),
                        Comparison::LessEq,
                        0.0,
                    );
                }
            }
        }
        m
    }

    fn forced_decomp() -> BranchBoundSolver {
        let mut solver = BranchBoundSolver::new();
        solver.decomp_min_vars = 0;
        solver
    }

    fn forced_monolithic() -> BranchBoundSolver {
        let mut solver = BranchBoundSolver::new();
        solver.decomp_min_vars = usize::MAX;
        solver
    }

    #[test]
    fn detects_placement_shape_and_counts_blocks() {
        let costs: &[&[Option<f64>]] = &[
            &[Some(1.0), Some(5.0), None],
            &[Some(4.0), Some(2.0), Some(9.0)],
            &[None, Some(3.0), Some(1.0)],
        ];
        let m = placement_model(costs, 1.0, 2.0, &[0.5, 0.5, 0.5], &[true, false, true]);
        let s = BlockStructure::detect(&m).expect("placement shape must be detected");
        assert_eq!(s.num_apps(), 3);
        assert_eq!(s.num_candidate_columns(), 7);
        assert_eq!(s.num_linking_rows(), 7);
    }

    #[test]
    fn rejects_models_outside_the_shape() {
        // Continuous variable.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::Equal, 1.0);
        assert!(BlockStructure::detect(&m).is_none());

        // `≥` row.
        let mut m = Model::new();
        let a = m.add_binary();
        m.add_constraint(LinearExpr::new().with(a, 1.0), Comparison::GreaterEq, 1.0);
        assert!(BlockStructure::detect(&m).is_none());

        // Knapsack: a `≤` row but no convexity row.
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        m.set_objective_term(a, -3.0);
        m.set_objective_term(b, -4.0);
        m.add_constraint(
            LinearExpr::new().with(a, 1.0).with(b, 2.0),
            Comparison::LessEq,
            2.0,
        );
        assert!(BlockStructure::detect(&m).is_none());

        // Linking row whose drop is NOT implied: x never appears in a
        // capacity row with its y, so `y = 0` would not force `x = 0`.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.set_objective_term(x, 1.0);
        m.set_objective_term(y, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::Equal, 1.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, -1.0),
            Comparison::LessEq,
            0.0,
        );
        assert!(BlockStructure::detect(&m).is_none());
    }

    #[test]
    fn decomposition_matches_monolithic_on_a_small_placement() {
        let costs: &[&[Option<f64>]] = &[
            &[Some(1.0), Some(10.0)],
            &[Some(1.0), Some(10.0)],
            &[Some(1.0), Some(10.0)],
        ];
        // Capacity 2 apps per server forces a split; activation favors
        // leaving the expensive server off when possible.
        let m = placement_model(costs, 1.0, 2.0, &[0.5, 0.5], &[false, false]);
        let d = forced_decomp().solve(&m);
        let mono = forced_monolithic().solve(&m);
        assert_eq!(d.outcome, MilpOutcome::Optimal);
        assert_eq!(mono.outcome, MilpOutcome::Optimal);
        assert!(
            approx(d.objective, mono.objective),
            "decomp {} monolithic {}",
            d.objective,
            mono.objective
        );
        assert!(m.is_feasible(&d.values, 1e-6));
        let stats = d.decomp.expect("decomposition stats must be present");
        assert!(stats.pricing_rounds >= 1);
        assert!(stats.columns_generated >= 3, "each app needs a column");
        assert_eq!(stats.master_pivots, d.pivots);
        assert_eq!(mono.decomp, None);
    }

    #[test]
    fn infeasible_placement_is_detected_on_the_decomposition_path() {
        // Two apps, one server, capacity for a single app.
        let costs: &[&[Option<f64>]] = &[&[Some(1.0)], &[Some(2.0)]];
        let m = placement_model(costs, 1.0, 1.0, &[0.0], &[false]);
        let d = forced_decomp().solve(&m);
        assert_eq!(d.outcome, MilpOutcome::Infeasible);
        assert!(!d.has_solution());
    }

    #[test]
    fn repeated_solves_are_memoized_fixed_points() {
        let costs: &[&[Option<f64>]] = &[
            &[Some(3.0), Some(1.0), Some(2.0)],
            &[Some(2.0), Some(3.0), Some(1.0)],
            &[Some(1.0), Some(2.0), Some(3.0)],
            &[Some(2.0), Some(2.0), Some(2.0)],
        ];
        let m = placement_model(costs, 1.0, 2.0, &[1.0, 1.0, 1.0], &[false, false, false]);
        let solver = forced_decomp();
        let first = solver.solve(&m);
        assert_eq!(first.outcome, MilpOutcome::Optimal);
        let again = solver.solve(&m);
        assert_eq!(again.outcome, first.outcome);
        assert_eq!(again.objective, first.objective, "bit-identical objective");
        assert_eq!(again.values, first.values, "bit-identical values");
        assert_eq!(again.pivots, 0, "memoized re-solve must do no work");
        assert_eq!(again.decomp, Some(DecompStats::default()));
        // A fresh solver agrees exactly (deterministic column ordering).
        let fresh = forced_decomp().solve(&m);
        assert_eq!(fresh.objective, first.objective);
        assert_eq!(fresh.values, first.values);
    }

    #[test]
    fn cost_only_resolves_warm_restart_and_stay_exact() {
        let costs: &[&[Option<f64>]] = &[
            &[Some(3.0), Some(1.0)],
            &[Some(2.0), Some(3.0)],
            &[Some(1.0), Some(2.0)],
        ];
        let m = placement_model(costs, 1.0, 2.0, &[1.0, 1.0], &[false, false]);
        let solver = forced_decomp();
        let first = solver.solve(&m);
        assert_eq!(first.outcome, MilpOutcome::Optimal);

        // Shift the costs (the epoch re-solve pattern): same structure,
        // different objective.  The warm path must agree with a cold one.
        let mut shifted = placement_model(costs, 1.0, 2.0, &[1.0, 1.0], &[false, false]);
        let terms: Vec<_> = (0..shifted.num_vars())
            .filter(|&j| shifted.objective()[j] != 0.0)
            .map(VarId)
            .collect();
        for v in terms {
            shifted.set_objective_term(v, 0.25);
        }
        let warm = solver.solve(&shifted);
        let cold = forced_decomp().solve(&shifted);
        assert_eq!(warm.outcome, MilpOutcome::Optimal);
        assert!(
            approx(warm.objective, cold.objective),
            "warm {} cold {}",
            warm.objective,
            cold.objective
        );
        assert!(shifted.is_feasible(&warm.values, 1e-6));
    }

    #[test]
    fn duplicate_columns_and_ties_stay_deterministic() {
        // Two identical servers and identical costs everywhere: every
        // optimum is tied, so only deterministic ordering keeps repeated
        // and fresh solves aligned.
        let costs: &[&[Option<f64>]] = &[
            &[Some(1.0), Some(1.0)],
            &[Some(1.0), Some(1.0)],
            &[Some(1.0), Some(1.0)],
        ];
        let m = placement_model(costs, 1.0, 2.0, &[1.0, 1.0], &[false, false]);
        let a = forced_decomp().solve(&m);
        let b = forced_decomp().solve(&m);
        assert_eq!(a.values, b.values);
        assert_eq!(a.objective, b.objective);
        let mono = forced_monolithic().solve(&m);
        assert!(approx(a.objective, mono.objective));
    }

    #[test]
    fn automatic_path_choice_follows_the_threshold() {
        let costs: &[&[Option<f64>]] = &[&[Some(1.0), Some(2.0)], &[Some(2.0), Some(1.0)]];
        let m = placement_model(costs, 1.0, 2.0, &[0.0, 0.0], &[false, false]);
        // Below the default threshold the monolithic path runs…
        let auto = BranchBoundSolver::new().solve(&m);
        assert_eq!(auto.decomp, None);
        // …while a zero threshold routes the same model through
        // decomposition with an identical objective.
        let forced = forced_decomp().solve(&m);
        assert!(forced.decomp.is_some());
        assert!(approx(auto.objective, forced.objective));
    }

    /// Four apps on three servers, unit demands, capacity 2 per server and
    /// `costs` per app: capacity rows but no activation variables, so
    /// `detect` accepts the model with no linking rows to drop.
    fn unlinked_model(costs: [f64; 3]) -> Model {
        let mut m = Model::new();
        let x: Vec<Vec<VarId>> = (0..4)
            .map(|_| {
                costs
                    .iter()
                    .map(|&c| {
                        let v = m.add_binary();
                        m.set_objective_term(v, c);
                        v
                    })
                    .collect()
            })
            .collect();
        for row in &x {
            let mut expr = LinearExpr::new();
            for &v in row {
                expr.add(v, 1.0);
            }
            m.add_constraint(expr, Comparison::Equal, 1.0);
        }
        for j in 0..3 {
            let mut expr = LinearExpr::new();
            for row in &x {
                expr.add(row[j], 1.0);
            }
            m.add_constraint(expr, Comparison::LessEq, 2.0);
        }
        m
    }

    #[test]
    fn switching_paths_on_one_solver_matches_a_fresh_solver() {
        // With no linking rows the master's row mask selects every row, so
        // only the route itself tells a master from a full model: a solver
        // switched between routes must not restart one route from the
        // other's resident state.
        let first = unlinked_model([1.0, 5.0, 9.0]);
        let second = unlinked_model([9.0, 5.0, 1.0]);
        let structure = BlockStructure::detect(&first).expect("assignment shape");
        assert_eq!(structure.num_linking_rows(), 0);

        let mut solver = BranchBoundSolver::new();
        for (min_vars, model) in [(0, &first), (usize::MAX, &second), (0, &first)] {
            solver.decomp_min_vars = min_vars;
            let switched = solver.solve(model);
            let mut fresh = BranchBoundSolver::new();
            fresh.decomp_min_vars = min_vars;
            let expected = fresh.solve(model);
            assert_eq!(switched.outcome, MilpOutcome::Optimal);
            assert_eq!(switched.outcome, expected.outcome);
            assert_eq!(
                switched.objective.to_bits(),
                expected.objective.to_bits(),
                "objective {} vs fresh {}",
                switched.objective,
                expected.objective
            );
            assert_eq!(switched.values, expected.values);
            assert_eq!(switched.decomp.is_some(), min_vars == 0);
            assert_eq!(expected.decomp.is_some(), min_vars == 0);
        }
    }
}
