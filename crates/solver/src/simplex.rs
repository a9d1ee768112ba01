//! A bounded-variable revised simplex solver for LP relaxations.
//!
//! The solver handles the models produced by [`crate::model::Model`]: a
//! linear minimization objective over boxed continuous (and relaxed
//! binary) variables, both bounds finite, with `<=`, `>=` and `=`
//! constraints.  Unlike the retained [`crate::reference::DenseSimplexSolver`]
//! oracle it
//!
//! * treats variable bounds `l <= x <= u` **natively** in the basis logic
//!   (nonbasic variables rest at their lower *or* upper bound) instead of
//!   materializing every finite upper bound as an extra constraint row,
//! * needs neither a feasibility phase nor the numerically fragile Big-M
//!   penalty: with every column boxed, the slack basis with each
//!   structural resting on the bound its cost prefers is dual feasible, so
//!   a cold start is one **dual simplex** walk from it, and no LP it solves
//!   is unbounded,
//! * keeps the basis as a **sparse LU factorization** ([`crate::factor`]):
//!   Markowitz-ordered refactorization plus product-form eta updates per
//!   pivot, so FTRAN/BTRAN cost `O(nnz)` instead of the `O(m^2)` of the
//!   dense basis inverse this solver used to carry,
//! * prices entering columns with **devex** reference weights (falling
//!   back to Bland's rule after long degenerate streaks, preserving the
//!   anti-cycling guarantee), and
//! * supports **warm restarts** via the bounded **dual simplex**: any
//!   optimal basis stays dual feasible under pure bound changes (reduced
//!   costs do not depend on bounds), which is exactly what branch-and-bound
//!   needs after fixing a binary variable.
//!
//! All scratch state lives in a [`SimplexWorkspace`] so repeated solves —
//! thousands of branch-and-bound nodes, successive placement calls — are
//! allocation-free after the first.

use crate::factor::BasisFactor;
use crate::model::{Comparison, Constraint, Model};

/// The status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal,
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded below.  Only the dense reference oracle
    /// ([`crate::reference::DenseSimplexSolver`]) reports it: every column
    /// of a [`Model`] is boxed, so [`SimplexSolver`] never meets an
    /// unbounded LP.
    Unbounded,
    /// The solve stopped without a verdict: it hit the pivot cap or ran
    /// into numerical trouble.
    IterationLimit,
}

/// The result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solve status.
    pub outcome: LpOutcome,
    /// Objective value (meaningful only when `outcome == Optimal`).
    pub objective: f64,
    /// Variable values in model order (meaningful only when optimal).
    pub values: Vec<f64>,
    /// Number of simplex pivots performed.
    pub iterations: usize,
}

/// Nonbasic-at-lower-bound marker.
const AT_LOWER: u8 = 0;
/// Nonbasic-at-upper-bound marker.
const AT_UPPER: u8 = 1;
/// Basic marker.
const BASIC: u8 = 2;

/// Hard zero threshold for matrix entries and pivot elements.
const EPS: f64 = 1e-9;
/// Bound violation a basic value may show and still count as feasible when
/// a crash basis or a primal restart is checked.
const FEAS_TOL: f64 = 1e-6;
/// Devex weight ceiling; past this the reference framework has drifted so
/// far that the weights are reset to unity.
const DEVEX_RESET: f64 = 1e12;

/// Column-wise (CSC) form of a model, or of a row view of it (see
/// [`Prepared::load`]), plus its natural bounds and costs, built once per
/// model and shared by every node of a branch-and-bound search.  Column
/// layout: `0..n` structural variables, then `n..n+m` slack variables (one
/// per kept row, turning every constraint into an equality).
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    /// Structural variable count.
    pub n: usize,
    /// Row count.
    pub m: usize,
    col_ptr: Vec<usize>,
    col_row: Vec<usize>,
    col_val: Vec<f64>,
    /// Objective coefficients per column (slack columns cost zero).
    cost: Vec<f64>,
    /// Natural lower bounds per column.
    lower: Vec<f64>,
    /// Natural upper bounds per column.
    upper: Vec<f64>,
    rhs: Vec<f64>,
    /// Scratch cursors for structure comparison (reused, never observable).
    cursor_scratch: Vec<usize>,
}

/// The rows of `model` a prepared form holds, in model order: every row
/// whose `skip` entry is not `true` (an empty mask keeps every row).
pub(crate) fn kept_rows<'a>(
    model: &'a Model,
    skip: &'a [bool],
) -> impl Iterator<Item = &'a Constraint> {
    debug_assert!(skip.is_empty() || skip.len() == model.num_constraints());
    model
        .constraints()
        .iter()
        .enumerate()
        .filter(|(r, _)| skip.get(*r) != Some(&true))
        .map(|(_, c)| c)
}

/// Natural bounds of the slack column of a row with sense `cmp`.
fn slack_bounds(cmp: Comparison) -> (f64, f64) {
    match cmp {
        Comparison::LessEq => (0.0, f64::INFINITY),
        Comparison::GreaterEq => (f64::NEG_INFINITY, 0.0),
        Comparison::Equal => (0.0, 0.0),
    }
}

impl Prepared {
    /// Total number of columns: structural plus one slack per row.
    pub fn ncols(&self) -> usize {
        self.n + self.m
    }

    /// (Re)builds the prepared form from a row view of `model`, reusing
    /// allocations: every variable, its objective coefficient and bounds,
    /// and the rows `skip` does not mark (an empty mask keeps every row),
    /// renumbered densely in model order.  The decomposition master is such
    /// a view: the model minus its linking rows, with no copied `Model`.
    pub fn load(&mut self, model: &Model, skip: &[bool]) {
        let n = model.num_vars();
        let m = kept_rows(model, skip).count();
        self.n = n;
        self.m = m;
        let ncols = n + m;

        self.cost.clear();
        self.cost.extend_from_slice(model.objective());
        self.cost.resize(ncols, 0.0);

        self.lower.clear();
        self.upper.clear();
        self.lower.resize(ncols, 0.0);
        self.upper.resize(ncols, 0.0);
        for (j, kind) in model.vars().iter().enumerate() {
            let (lo, hi) = kind.bounds();
            self.lower[j] = lo;
            self.upper[j] = hi;
        }
        self.rhs.clear();
        for (r, c) in kept_rows(model, skip).enumerate() {
            self.rhs.push(c.rhs);
            let (sl, su) = slack_bounds(c.cmp);
            self.lower[n + r] = sl;
            self.upper[n + r] = su;
        }

        // Column-wise matrix over structural + slack columns.
        self.col_ptr.clear();
        self.col_row.clear();
        self.col_val.clear();
        let mut counts = vec![0usize; n + m];
        for c in kept_rows(model, skip) {
            for (v, _) in &c.expr.terms {
                counts[v.index()] += 1;
            }
        }
        for count in counts.iter_mut().skip(n) {
            *count = 1;
        }
        self.col_ptr.resize(n + m + 1, 0);
        for (j, &count) in counts.iter().enumerate() {
            self.col_ptr[j + 1] = self.col_ptr[j] + count;
        }
        let nnz = self.col_ptr[n + m];
        self.col_row.resize(nnz, 0);
        self.col_val.resize(nnz, 0.0);
        let mut cursor: Vec<usize> = self.col_ptr[..n + m].to_vec();
        for (r, c) in kept_rows(model, skip).enumerate() {
            for (v, a) in &c.expr.terms {
                let p = cursor[v.index()];
                self.col_row[p] = r;
                self.col_val[p] = *a;
                cursor[v.index()] += 1;
            }
        }
        for r in 0..m {
            let p = cursor[n + r];
            self.col_row[p] = r;
            self.col_val[p] = 1.0;
            cursor[n + r] += 1;
        }
    }

    /// Builds the prepared form of a model, every row kept.
    pub fn build(model: &Model) -> Self {
        let mut prep = Self::default();
        prep.load(model, &[]);
        prep
    }

    /// Whether the row view of `model` that `skip` selects (see
    /// [`Self::load`]) has the same constraint matrix, right-hand sides and
    /// natural bounds as this prepared form (costs may differ).  When true,
    /// a resident simplex basis remains structurally valid and the solver
    /// can restart from it instead of cold-starting.  (`&mut self` only for
    /// a scratch cursor buffer; the prepared form itself is not changed.)
    pub fn matches_structure(&mut self, model: &Model, skip: &[bool]) -> bool {
        if self.n != model.num_vars() || self.m != kept_rows(model, skip).count() {
            return false;
        }
        for (j, kind) in model.vars().iter().enumerate() {
            let (lo, hi) = kind.bounds();
            if self.lower[j] != lo || self.upper[j] != hi {
                return false;
            }
        }
        // Compare the sparse matrix column-by-column via the same fill
        // order `load` uses (kept rows in order, terms in order).
        self.cursor_scratch.clear();
        self.cursor_scratch
            .extend_from_slice(&self.col_ptr[..self.n]);
        let mut cursor = std::mem::take(&mut self.cursor_scratch);
        let mut same = true;
        'rows: for (r, c) in kept_rows(model, skip).enumerate() {
            let (sl, su) = slack_bounds(c.cmp);
            if self.rhs[r] != c.rhs || self.lower[self.n + r] != sl || self.upper[self.n + r] != su
            {
                same = false;
                break 'rows;
            }
            for (v, a) in &c.expr.terms {
                let j = v.index();
                let p = cursor[j];
                if p >= self.col_ptr[j + 1] || self.col_row[p] != r || self.col_val[p] != *a {
                    same = false;
                    break 'rows;
                }
                cursor[j] += 1;
            }
        }
        // Every structural column must be fully consumed (no leftover terms).
        same = same && (0..self.n).all(|j| cursor[j] == self.col_ptr[j + 1]);
        self.cursor_scratch = cursor;
        same
    }

    /// Replaces the cost vector with `model`'s objective, returning whether
    /// any coefficient changed.  Only valid after [`Self::matches_structure`]
    /// confirmed the shapes agree.
    pub fn refresh_costs(&mut self, model: &Model) -> bool {
        let fresh = model.objective();
        let changed = self.cost[..self.n] != *fresh;
        if changed {
            self.cost[..self.n].copy_from_slice(fresh);
        }
        changed
    }

    /// Objective coefficient of a structural column (used by the
    /// column-generation pricing pass in [`crate::decomp`]).
    pub(crate) fn col_cost(&self, j: usize) -> f64 {
        self.cost[j]
    }

    /// Sparse entries of a structural or slack column.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.col_row[lo..hi]
            .iter()
            .copied()
            .zip(self.col_val[lo..hi].iter().copied())
    }
}

/// Reusable scratch state of the revised simplex: basis, sparse basis
/// factorization, effective bounds, values and pricing buffers.  One
/// workspace serves an entire branch-and-bound search (and successive
/// searches of same-shaped models) without reallocating.
#[derive(Debug, Clone, Default)]
pub struct SimplexWorkspace {
    n: usize,
    m: usize,
    /// Per-column state: `AT_LOWER`, `AT_UPPER` or `BASIC`.
    state: Vec<u8>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Sparse LU factorization of the basis plus the eta file of pivots
    /// applied since the last refactorization.
    factor: BasisFactor,
    /// Current value per column.
    x: Vec<f64>,
    /// Effective lower bounds (node-specific overrides applied here).
    lower: Vec<f64>,
    /// Effective upper bounds.
    upper: Vec<f64>,
    y: Vec<f64>,
    d: Vec<f64>,
    w: Vec<f64>,
    rowbuf: Vec<f64>,
    /// Slot-indexed BTRAN input scratch.
    slotbuf: Vec<f64>,
    /// Row `r` of the basis inverse (BTRAN of a unit vector), used by the
    /// dual ratio test and devex weight updates.
    rho: Vec<f64>,
    /// Devex reference weights per column.
    devex: Vec<f64>,
    /// Basis-matrix assembly scratch for refactorization (CSC by slot).
    fac_ptr: Vec<usize>,
    fac_row: Vec<usize>,
    fac_val: Vec<f64>,
    /// Basis snapshot ([`Self::snapshot_basis`]) — the root-optimal resting
    /// state a branch-and-bound search re-installs after exploring its tree
    /// so same-model re-solves are exact fixed points.
    snap_state: Vec<u8>,
    snap_basis: Vec<usize>,
    snap_x: Vec<f64>,
    snap_valid: bool,
    /// Whether the current basis is dual feasible w.r.t. the real costs,
    /// i.e. usable for a warm (dual simplex) restart.
    dual_ready: bool,
    /// Whether the resident point is primal feasible, i.e. usable for a
    /// primal (phase-2) restart after a pure cost change.
    primal_ready: bool,
    solve_pivots: usize,
    /// Devex reference-weight resets performed by the most recent solve
    /// (the weights drifted past [`DEVEX_RESET`] and were re-unified).
    solve_devex_resets: usize,
    /// Dantzig→Bland anti-cycling fallback activations of the most recent
    /// solve (one per degenerate streak that exceeded the Bland threshold).
    solve_bland_activations: usize,
    /// Refactorizations performed since [`Self::reset_factor_stats`].
    refactor_count: usize,
    /// Longest eta file seen since [`Self::reset_factor_stats`].
    peak_eta: usize,
    /// Fill-in ratio of the most recent factorization.
    fill_ratio: f64,
}

enum LoopEnd {
    Optimal,
    IterationLimit,
    Numerical,
}

enum DualEnd {
    Feasible,
    Infeasible,
    IterationLimit,
    Numerical,
}

impl SimplexWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the workspace for a prepared model and loads its natural
    /// bounds.  Invalidates any warm-start basis.
    pub fn reset(&mut self, prep: &Prepared) {
        self.n = prep.n;
        self.m = prep.m;
        let ncols = prep.ncols();
        self.state.clear();
        self.state.resize(ncols, AT_LOWER);
        self.basis.clear();
        self.basis.resize(prep.m, 0);
        self.factor.reset_identity(prep.m);
        self.x.clear();
        self.x.resize(ncols, 0.0);
        self.lower.clear();
        self.lower.extend_from_slice(&prep.lower);
        self.upper.clear();
        self.upper.extend_from_slice(&prep.upper);
        self.y.clear();
        self.y.resize(prep.m, 0.0);
        self.d.clear();
        self.d.resize(ncols, 0.0);
        self.w.clear();
        self.w.resize(prep.m, 0.0);
        self.rowbuf.clear();
        self.rowbuf.resize(prep.m, 0.0);
        self.slotbuf.clear();
        self.slotbuf.resize(prep.m, 0.0);
        self.rho.clear();
        self.rho.resize(prep.m, 0.0);
        self.devex.clear();
        self.devex.resize(ncols, 1.0);
        self.dual_ready = false;
        self.primal_ready = false;
        self.snap_valid = false;
        self.solve_pivots = 0;
        self.solve_devex_resets = 0;
        self.solve_bland_activations = 0;
        self.reset_factor_stats();
    }

    /// Records the resident basis — column states, basic set and values —
    /// for a later [`Self::restore_basis`].
    pub fn snapshot_basis(&mut self) {
        self.snap_state.clear();
        self.snap_state.extend_from_slice(&self.state);
        self.snap_basis.clear();
        self.snap_basis.extend_from_slice(&self.basis);
        self.snap_x.clear();
        self.snap_x.extend_from_slice(&self.x);
        self.snap_valid = true;
    }

    /// Re-installs the basis recorded by [`Self::snapshot_basis`] and marks
    /// the workspace warm-restart ready.  The caller must have restored the
    /// bounds that were effective at snapshot time.  Returns `false` (and
    /// leaves a clean slack basis behind) when there is no snapshot or the
    /// snapshot basis no longer factorizes.
    pub fn restore_basis(&mut self, prep: &Prepared) -> bool {
        if !self.snap_valid {
            return false;
        }
        self.state.copy_from_slice(&self.snap_state);
        self.basis.copy_from_slice(&self.snap_basis);
        self.x.copy_from_slice(&self.snap_x);
        if !self.refactorize(prep) {
            return false;
        }
        self.dual_ready = true;
        self.primal_ready = true;
        true
    }

    /// Installs a caller-constructed starting basis — `basic[r]` names the
    /// basic column of row `r` (a structural column or the row's slack
    /// `n + r`) — with every other structural resting on its lower bound,
    /// except the columns in `at_upper`, which rest on their upper bound,
    /// and every other slack on its one finite bound.  Marks the workspace
    /// primal-restart ready when the implied basic point is primal
    /// feasible, so the next [`SimplexSolver::solve_workspace`] goes
    /// straight to phase-2 instead of the cold dual walk.  Returns `false`
    /// — leaving the workspace cold-start clean — when the basis is
    /// singular or the point is out of bounds.
    pub fn install_crash_basis(
        &mut self,
        prep: &Prepared,
        basic: &[usize],
        at_upper: &[usize],
    ) -> bool {
        let n = prep.n;
        let m = prep.m;
        if basic.len() != m || basic.iter().any(|&j| j >= n + m) {
            return false;
        }
        self.dual_ready = false;
        self.primal_ready = false;
        for j in 0..n {
            self.state[j] = AT_LOWER;
            self.x[j] = self.lower[j];
        }
        for &j in at_upper {
            if j < n {
                self.state[j] = AT_UPPER;
                self.x[j] = self.upper[j];
            }
        }
        for s in n..n + m {
            if self.lower[s].is_finite() {
                self.state[s] = AT_LOWER;
                self.x[s] = self.lower[s];
            } else {
                self.state[s] = AT_UPPER;
                self.x[s] = self.upper[s];
            }
        }
        for (r, &j) in basic.iter().enumerate() {
            self.basis[r] = j;
            self.state[j] = BASIC;
        }
        if !self.refactorize(prep) {
            self.install_slack_basis(prep);
            return false;
        }
        self.refresh_basics(prep);
        for i in 0..m {
            let b = self.basis[i];
            if self.x[b] < self.lower[b] - FEAS_TOL || self.x[b] > self.upper[b] + FEAS_TOL {
                self.install_slack_basis(prep);
                return false;
            }
        }
        self.devex.fill(1.0);
        self.primal_ready = true;
        true
    }

    /// Clears the per-solve factorization counters (refactorizations, peak
    /// eta length); called by the MILP driver at the start of each search.
    pub fn reset_factor_stats(&mut self) {
        self.refactor_count = 0;
        self.peak_eta = 0;
        self.fill_ratio = self.factor.fill_ratio();
    }

    /// Refactorizations performed since the last [`Self::reset_factor_stats`].
    pub fn refactor_count(&self) -> usize {
        self.refactor_count
    }

    /// Longest eta file seen since the last [`Self::reset_factor_stats`].
    pub fn peak_eta_len(&self) -> usize {
        self.peak_eta
    }

    /// Fill-in ratio (LU nonzeros over basis nonzeros) of the most recent
    /// factorization.
    pub fn fill_in_ratio(&self) -> f64 {
        self.fill_ratio
    }

    /// Restores a structural variable's natural bounds.  A nonbasic variable
    /// is re-rested onto whichever natural bound its current value sits on,
    /// so the resident point survives a bound relaxation unchanged (branch-
    /// and-bound only ever fixes binaries onto their natural bounds).
    pub fn reset_var_bounds(&mut self, prep: &Prepared, j: usize) {
        self.lower[j] = prep.lower[j];
        self.upper[j] = prep.upper[j];
        if self.state[j] != BASIC {
            if self.x[j] == self.upper[j] {
                self.state[j] = AT_UPPER;
            } else if self.x[j] == self.lower[j] {
                self.state[j] = AT_LOWER;
            } else {
                // Defensive: the value matches neither natural bound; rest
                // at the lower bound and give up primal reusability.
                self.state[j] = AT_LOWER;
                self.x[j] = self.lower[j];
                self.primal_ready = false;
            }
        }
    }

    /// Invalidates the dual-feasibility marker (the objective changed); a
    /// primal restart may still be possible via `Self::primal_ready`.
    pub fn invalidate_duals(&mut self) {
        self.dual_ready = false;
    }

    /// Overrides a structural variable's bounds (branch-and-bound fixing).
    /// Like a model's bounds, both must be finite.
    pub fn set_var_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        debug_assert!(lower.is_finite() && upper.is_finite());
        self.lower[j] = lower;
        self.upper[j] = upper;
    }

    /// Current values of the structural variables.
    pub fn values(&self) -> &[f64] {
        &self.x[..self.n]
    }

    /// Objective value of the current point under the real costs.
    pub fn objective(&self, prep: &Prepared) -> f64 {
        (0..self.n).map(|j| prep.cost[j] * self.x[j]).sum()
    }

    /// Pivots performed by the most recent solve.
    pub fn last_pivots(&self) -> usize {
        self.solve_pivots
    }

    /// Devex reference-weight resets performed by the most recent solve.
    pub fn last_devex_resets(&self) -> usize {
        self.solve_devex_resets
    }

    /// Dantzig→Bland anti-cycling fallback activations of the most recent
    /// solve.
    pub fn last_bland_activations(&self) -> usize {
        self.solve_bland_activations
    }

    /// The dual values (simplex multipliers) `y = c_B B^-1` of the resident
    /// basis, indexed by row.  Valid after [`SimplexSolver::solve_workspace`]
    /// returned [`LpOutcome::Optimal`]; the column-generation master in
    /// [`crate::decomp`] prices candidate columns against these.
    pub fn duals(&self) -> &[f64] {
        &self.y
    }

    /// Recomputes every basic value from the nonbasic point: `x_B = B^-1 (b
    /// - A_N x_N)`.
    fn refresh_basics(&mut self, prep: &Prepared) {
        let m = self.m;
        self.rowbuf.copy_from_slice(&prep.rhs);
        for j in 0..prep.ncols() {
            if self.state[j] != BASIC && self.x[j] != 0.0 {
                let xj = self.x[j];
                for k in prep.col_ptr[j]..prep.col_ptr[j + 1] {
                    self.rowbuf[prep.col_row[k]] -= prep.col_val[k] * xj;
                }
            }
        }
        self.factor.ftran(&mut self.rowbuf, &mut self.slotbuf);
        for i in 0..m {
            self.x[self.basis[i]] = self.slotbuf[i];
        }
    }

    /// Recomputes `y = c_B B^-1` (one BTRAN) and the reduced costs of every
    /// priceable column, with raw index loops over the CSC arrays (this
    /// runs once per pivot and dominates the per-iteration cost).
    fn compute_duals(&mut self, prep: &Prepared) {
        let m = self.m;
        for i in 0..m {
            self.slotbuf[i] = prep.cost[self.basis[i]];
        }
        self.factor.btran(&mut self.slotbuf, &mut self.y);
        for j in 0..prep.ncols() {
            if self.state[j] == BASIC {
                self.d[j] = 0.0;
            } else if self.upper[j] - self.lower[j] <= 0.0 {
                // A fixed nonbasic column can never enter, and both pricing
                // loops skip it before reading `d[j]`, so its reduced cost
                // is never needed.  Skipping the dot product here is what
                // makes a column-generation restricted master (most columns
                // pinned to `[0, 0]`) price in O(active) per pivot instead
                // of O(total).
                continue;
            } else {
                let mut v = prep.cost[j];
                for k in prep.col_ptr[j]..prep.col_ptr[j + 1] {
                    v -= self.y[prep.col_row[k]] * prep.col_val[k];
                }
                self.d[j] = v;
            }
        }
    }

    /// Computes `w = B^-1 A_j` into the workspace via one sparse FTRAN.
    fn compute_w(&mut self, prep: &Prepared, j: usize) {
        self.rowbuf.fill(0.0);
        for k in prep.col_ptr[j]..prep.col_ptr[j + 1] {
            self.rowbuf[prep.col_row[k]] = prep.col_val[k];
        }
        self.factor.ftran(&mut self.rowbuf, &mut self.w);
    }

    /// Computes row `row` of the basis inverse into `rho` via one sparse
    /// BTRAN of a unit vector (`rho^T = e_row^T B^-1`).
    fn compute_rho(&mut self, row: usize) {
        self.slotbuf.fill(0.0);
        self.slotbuf[row] = 1.0;
        self.factor.btran(&mut self.slotbuf, &mut self.rho);
    }

    /// Dot product of the resident `rho` row with column `j`.
    fn rho_dot_col(&self, prep: &Prepared, j: usize) -> f64 {
        let mut v = 0.0;
        for k in prep.col_ptr[j]..prep.col_ptr[j + 1] {
            v += self.rho[prep.col_row[k]] * prep.col_val[k];
        }
        v
    }

    /// Product-form basis update after pivoting on row `r` with the current
    /// `w = B^-1 A_q` column: appends one eta vector to the factorization.
    fn pivot_update(&mut self, r: usize) {
        self.factor.update(r, &self.w);
        self.peak_eta = self.peak_eta.max(self.factor.eta_count());
    }

    /// Rebuilds the sparse basis factorization from scratch and refreshes
    /// the basic values.  Returns `false` when the basis matrix is
    /// numerically singular — in that case the workspace is reset to a
    /// clean slack basis (still structurally valid, cold-start ready)
    /// instead of being left with a half-rebuilt factorization.
    fn refactorize(&mut self, prep: &Prepared) -> bool {
        let m = self.m;
        self.refactor_count += 1;
        if m == 0 {
            return true;
        }
        // Assemble the basis matrix column-wise (slot-major CSC).
        self.fac_ptr.clear();
        self.fac_row.clear();
        self.fac_val.clear();
        self.fac_ptr.push(0);
        for k in 0..m {
            for (r, a) in prep.col(self.basis[k]) {
                self.fac_row.push(r);
                self.fac_val.push(a);
            }
            self.fac_ptr.push(self.fac_row.len());
        }
        let ok = self
            .factor
            .factorize(m, &self.fac_ptr, &self.fac_row, &self.fac_val);
        if !ok {
            // A singular basis can't be factored; restore the pristine
            // slack basis so the workspace stays usable (the caller falls
            // back to a cold start).
            self.install_slack_basis(prep);
            self.dual_ready = false;
            self.primal_ready = false;
            return false;
        }
        self.fill_ratio = self.factor.fill_ratio();
        self.refresh_basics(prep);
        true
    }

    /// Installs the slack basis, with an identity factorization and every
    /// structural resting on the bound its cost prefers.  The reduced costs
    /// at the slack basis are the raw costs, so every one points away from
    /// its rest bound: with every structural boxed, the basis is dual
    /// feasible, which is what the cold dual walk starts from.
    fn install_slack_basis(&mut self, prep: &Prepared) {
        let n = prep.n;
        for j in 0..n {
            if prep.cost[j] >= 0.0 {
                self.state[j] = AT_LOWER;
                self.x[j] = self.lower[j];
            } else {
                self.state[j] = AT_UPPER;
                self.x[j] = self.upper[j];
            }
        }
        for r in 0..prep.m {
            self.basis[r] = n + r;
            self.state[n + r] = BASIC;
        }
        self.factor.reset_identity(prep.m);
        self.devex.fill(1.0);
        self.refresh_basics(prep);
    }
}

/// Maximum number of pivots one solve performs before giving up.
const MAX_ITERATIONS: usize = 20_000;

/// Numerical tolerance for pricing and feasibility tests.
pub(crate) const TOLERANCE: f64 = 1e-7;

/// Bounded-variable revised simplex solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplexSolver;

impl SimplexSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        Self
    }

    /// Builds the prepared (column-wise) form of a model for repeated
    /// workspace solves.
    pub fn prepare(&self, model: &Model) -> Prepared {
        Prepared::build(model)
    }

    /// Solves the LP in the workspace's current bounds, warm-starting from
    /// the resident basis when possible: a **dual** restart when the basis
    /// is still dual feasible (bounds changed, costs unchanged — the
    /// branch-and-bound case), a **primal** restart when the resident point
    /// is still primal feasible (costs changed, bounds unchanged — the
    /// epoch-to-epoch re-optimization case), and a cold start otherwise.
    /// `ws.last_pivots()` reports the pivots performed.
    pub fn solve_workspace(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> LpOutcome {
        ws.solve_pivots = 0;
        ws.solve_devex_resets = 0;
        ws.solve_bland_activations = 0;
        // Re-reference the devex weights per solve: pricing must be a
        // deterministic function of (basis, costs), not of which solves the
        // workspace served before, or warm restarts could land on a
        // different degenerate-optimal vertex than a cold solve.
        ws.devex.fill(1.0);
        for j in 0..prep.ncols() {
            if ws.lower[j] > ws.upper[j] + TOLERANCE {
                return LpOutcome::Infeasible;
            }
        }
        let outcome = if ws.dual_ready {
            match self.warm_solve(prep, ws) {
                Some(outcome) => outcome,
                None => self.cold_solve(prep, ws),
            }
        } else if ws.primal_ready {
            match self.primal_restart(prep, ws) {
                Some(outcome) => outcome,
                None => self.cold_solve(prep, ws),
            }
        } else {
            self.cold_solve(prep, ws)
        };
        ws.primal_ready = outcome == LpOutcome::Optimal;
        outcome
    }

    /// Primal (phase-2) restart from a resident primal-feasible basis
    /// after a cost change; `None` signals "fall back to cold".
    fn primal_restart(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> Option<LpOutcome> {
        // Snap nonbasics onto their rest bounds and recompute basics.
        for j in 0..prep.ncols() {
            match ws.state[j] {
                AT_LOWER => ws.x[j] = ws.lower[j],
                AT_UPPER => ws.x[j] = ws.upper[j],
                _ => {}
            }
        }
        ws.refresh_basics(prep);
        // The restart is only sound if the point really is feasible.
        for i in 0..ws.m {
            let b = ws.basis[i];
            if ws.x[b] < ws.lower[b] - FEAS_TOL || ws.x[b] > ws.upper[b] + FEAS_TOL {
                return None;
            }
        }
        match self.finish_phase2(prep, ws) {
            LpOutcome::IterationLimit => None,
            outcome => Some(outcome),
        }
    }

    /// Dual-simplex warm restart; `None` signals "fall back to cold".
    fn warm_solve(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> Option<LpOutcome> {
        // Snap nonbasic variables onto their (possibly changed) bounds.
        for j in 0..prep.ncols() {
            match ws.state[j] {
                AT_LOWER => ws.x[j] = ws.lower[j],
                AT_UPPER => ws.x[j] = ws.upper[j],
                _ => {}
            }
        }
        ws.refresh_basics(prep);
        match self.dual_loop(prep, ws) {
            DualEnd::Feasible => {
                // The dual loop preserved dual feasibility, so the point is
                // optimal; one primal pass mops up any numerical drift.
                match self.primal_loop(prep, ws) {
                    LoopEnd::Optimal => {
                        ws.dual_ready = true;
                        Some(LpOutcome::Optimal)
                    }
                    LoopEnd::IterationLimit => {
                        ws.dual_ready = false;
                        Some(LpOutcome::IterationLimit)
                    }
                    LoopEnd::Numerical => None,
                }
            }
            // Dual feasibility is retained on infeasible nodes, so the next
            // warm restart can still reuse this basis.
            DualEnd::Infeasible => Some(LpOutcome::Infeasible),
            DualEnd::IterationLimit | DualEnd::Numerical => None,
        }
    }

    /// Phase-2: primal simplex under the real costs from a primal-feasible
    /// basis, mapping the loop end to an outcome.
    fn finish_phase2(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> LpOutcome {
        match self.primal_loop(prep, ws) {
            LoopEnd::Optimal => {
                ws.dual_ready = true;
                LpOutcome::Optimal
            }
            LoopEnd::IterationLimit | LoopEnd::Numerical => LpOutcome::IterationLimit,
        }
    }

    /// Cold start: install the slack basis, which is dual feasible because
    /// every column is boxed (see [`SimplexWorkspace::install_slack_basis`]),
    /// and let the **dual simplex** walk straight to the optimum.  The slack
    /// basis is hugely primal-degenerate on assignment-with-activation
    /// models, so a primal walk would crawl where the dual strides.  A walk
    /// that stops at the pivot cap or on numerical trouble ends at
    /// [`LpOutcome::IterationLimit`].
    fn cold_solve(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> LpOutcome {
        ws.dual_ready = false;
        ws.install_slack_basis(prep);
        match self.dual_loop(prep, ws) {
            DualEnd::Feasible => self.finish_phase2(prep, ws),
            // The start was dual feasible and the dual loop preserves it,
            // so running out of entering columns proves primal
            // infeasibility.
            DualEnd::Infeasible => LpOutcome::Infeasible,
            DualEnd::IterationLimit | DualEnd::Numerical => LpOutcome::IterationLimit,
        }
    }

    /// Primal bounded simplex to optimality under the real costs, from a
    /// primal-feasible basis.
    fn primal_loop(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> LoopEnd {
        let m = prep.m;
        let tol = TOLERANCE;
        let bland_after = 2 * (prep.ncols() + m) + 64;
        let mut degenerate = 0usize;
        loop {
            if ws.solve_pivots >= MAX_ITERATIONS {
                return LoopEnd::IterationLimit;
            }
            ws.compute_duals(prep);
            // Entering column: devex pricing (largest d^2 / weight), with
            // Bland's rule after a long degenerate streak to guarantee
            // termination.
            let use_bland = degenerate > bland_after;
            if use_bland && degenerate == bland_after + 1 {
                // First pricing pass of this degenerate streak under Bland's
                // rule: count one anti-cycling ladder activation.
                ws.solve_bland_activations += 1;
            }
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..prep.ncols() {
                let state = ws.state[j];
                if state == BASIC {
                    continue;
                }
                if ws.upper[j] - ws.lower[j] <= 0.0 {
                    continue; // fixed column can never usefully enter
                }
                let d = ws.d[j];
                let viol = if state == AT_LOWER { -d } else { d };
                if viol > tol {
                    if use_bland {
                        entering = Some((j, viol));
                        break;
                    }
                    let score = viol * viol / ws.devex[j];
                    if entering.is_none_or(|(_, best)| score > best) {
                        entering = Some((j, score));
                    }
                }
            }
            let Some((q, _)) = entering else {
                return LoopEnd::Optimal;
            };
            let dir = if ws.state[q] == AT_LOWER { 1.0 } else { -1.0 };
            ws.compute_w(prep, q);

            // Ratio test: blocking basic bound, or the entering variable's
            // own opposite bound (a bound flip).
            let mut best_t = ws.upper[q] - ws.lower[q];
            let mut best_piv = f64::INFINITY; // bound flips are exact
            let mut leaving: Option<(usize, u8)> = None;
            for i in 0..m {
                let delta = -dir * ws.w[i];
                let b = ws.basis[i];
                let (t, target) = if delta > EPS {
                    if !ws.upper[b].is_finite() {
                        continue;
                    }
                    (((ws.upper[b] - ws.x[b]).max(0.0)) / delta, AT_UPPER)
                } else if delta < -EPS {
                    if !ws.lower[b].is_finite() {
                        continue;
                    }
                    (((ws.x[b] - ws.lower[b]).max(0.0)) / -delta, AT_LOWER)
                } else {
                    continue;
                };
                let piv = ws.w[i].abs();
                if t < best_t - EPS || (t < best_t + EPS && piv > best_piv) {
                    best_t = t;
                    best_piv = piv;
                    leaving = Some((i, target));
                }
            }
            if best_t.is_infinite() {
                // Every structural is boxed, so no improving ray exists: a
                // slack entering toward its infinite bound must move some
                // basic structural, unless roundoff hid every such move
                // below `EPS`.
                return LoopEnd::Numerical;
            }
            if best_t > EPS {
                degenerate = 0;
            } else {
                degenerate += 1;
            }
            // Apply the step.
            if best_t != 0.0 {
                ws.x[q] += dir * best_t;
                for i in 0..m {
                    let b = ws.basis[i];
                    ws.x[b] += (-dir * ws.w[i]) * best_t;
                }
            }
            match leaving {
                None => {
                    // Bound flip: snap exactly onto the opposite bound.
                    if dir > 0.0 {
                        ws.x[q] = ws.upper[q];
                        ws.state[q] = AT_UPPER;
                    } else {
                        ws.x[q] = ws.lower[q];
                        ws.state[q] = AT_LOWER;
                    }
                }
                Some((row, target)) => {
                    // Devex reference-weight update over the pivot row,
                    // computed before the basis changes (one BTRAN + one
                    // pass over the nonbasic columns, the same O(nnz) a
                    // pricing pass costs).
                    if !use_bland {
                        self.update_devex(prep, ws, q, row);
                    }
                    let lv = ws.basis[row];
                    ws.state[lv] = target;
                    ws.x[lv] = if target == AT_UPPER {
                        ws.upper[lv]
                    } else {
                        ws.lower[lv]
                    };
                    ws.basis[row] = q;
                    ws.state[q] = BASIC;
                    ws.pivot_update(row);
                }
            }
            ws.solve_pivots += 1;
            if ws.factor.needs_refactor() && !ws.refactorize(prep) {
                return LoopEnd::Numerical;
            }
        }
    }

    /// Forrest–Goldfarb devex weight update for a pivot entering `q` on row
    /// `row`: every nonbasic column's weight is raised to
    /// `(alpha_j / alpha_q)^2 * gamma_q` where `alpha` is the pivot row of
    /// the tableau, and the leaving variable inherits `gamma_q / alpha_q^2`.
    fn update_devex(&self, prep: &Prepared, ws: &mut SimplexWorkspace, q: usize, row: usize) {
        let alpha_q = ws.w[row];
        if alpha_q.abs() < EPS {
            return;
        }
        let gamma_q = ws.devex[q].max(1.0);
        if gamma_q > DEVEX_RESET {
            ws.devex.fill(1.0);
            ws.solve_devex_resets += 1;
            return;
        }
        ws.compute_rho(row);
        let inv_sq = 1.0 / (alpha_q * alpha_q);
        for j in 0..prep.ncols() {
            if ws.state[j] == BASIC || j == q {
                continue;
            }
            let alpha = ws.rho_dot_col(prep, j);
            if alpha != 0.0 {
                let cand = alpha * alpha * inv_sq * gamma_q;
                if cand > ws.devex[j] {
                    ws.devex[j] = cand;
                }
            }
        }
        let leaving = ws.basis[row];
        ws.devex[leaving] = (gamma_q * inv_sq).max(1.0);
    }

    /// Bounded dual simplex: restores primal feasibility from a
    /// dual-feasible basis after bound changes.
    fn dual_loop(&self, prep: &Prepared, ws: &mut SimplexWorkspace) -> DualEnd {
        let m = prep.m;
        let tol = TOLERANCE;
        loop {
            if ws.solve_pivots >= MAX_ITERATIONS {
                return DualEnd::IterationLimit;
            }
            // Leaving row: the basic variable most out of bounds.
            let mut leave: Option<(usize, f64, f64)> = None; // (row, delta, magnitude)
            for i in 0..m {
                let b = ws.basis[i];
                let below = ws.lower[b] - ws.x[b];
                let above = ws.x[b] - ws.upper[b];
                if below > tol && leave.is_none_or(|(_, _, mag)| below > mag) {
                    leave = Some((i, -below, below));
                }
                if above > tol && leave.is_none_or(|(_, _, mag)| above > mag) {
                    leave = Some((i, above, above));
                }
            }
            let Some((row, delta, _)) = leave else {
                return DualEnd::Feasible;
            };
            ws.compute_duals(prep);
            // Dual ratio test over the pivot row (one BTRAN of a unit
            // vector yields the row, then sparse dots per column).
            ws.compute_rho(row);
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..prep.ncols() {
                let state = ws.state[j];
                if state == BASIC {
                    continue;
                }
                if ws.upper[j] - ws.lower[j] <= 0.0 {
                    continue; // fixed columns must not re-enter
                }
                let alpha = ws.rho_dot_col(prep, j);
                let eligible = if delta > 0.0 {
                    (state == AT_LOWER && alpha > 1e-7) || (state == AT_UPPER && alpha < -1e-7)
                } else {
                    (state == AT_LOWER && alpha < -1e-7) || (state == AT_UPPER && alpha > 1e-7)
                };
                if !eligible {
                    continue;
                }
                let ratio = (ws.d[j] / alpha).abs();
                let better = match best {
                    None => true,
                    Some((bj, br, ba)) => {
                        ratio < br - EPS
                            || (ratio < br + EPS
                                && (alpha.abs() > f64::abs(ba) + EPS
                                    || (alpha.abs() > f64::abs(ba) - EPS && j < bj)))
                    }
                };
                if better {
                    best = Some((j, ratio, alpha));
                }
            }
            let Some((q, _, alpha_q)) = best else {
                // No column can repair the violated row: primal infeasible.
                return DualEnd::Infeasible;
            };
            if alpha_q.abs() < EPS {
                return DualEnd::Numerical;
            }
            let step = delta / alpha_q;
            ws.compute_w(prep, q);
            ws.x[q] += step;
            for i in 0..m {
                let b = ws.basis[i];
                ws.x[b] -= ws.w[i] * step;
            }
            let p = ws.basis[row];
            if delta > 0.0 {
                ws.x[p] = ws.upper[p];
                ws.state[p] = AT_UPPER;
            } else {
                ws.x[p] = ws.lower[p];
                ws.state[p] = AT_LOWER;
            }
            ws.basis[row] = q;
            ws.state[q] = BASIC;
            ws.pivot_update(row);
            ws.solve_pivots += 1;
            if ws.factor.needs_refactor() && !ws.refactorize(prep) {
                return DualEnd::Numerical;
            }
        }
    }

    /// Solves the LP relaxation of `model` (binary variables relaxed to
    /// `[0, 1]`), optionally with per-variable bound overrides used by the
    /// branch-and-bound solver to fix branched variables.
    ///
    /// `bound_overrides[i]`, when present, replaces the natural bounds of
    /// variable `i`; like the model's bounds, both must be finite.
    pub fn solve_with_bounds(
        &self,
        model: &Model,
        bound_overrides: &[Option<(f64, f64)>],
    ) -> LpSolution {
        let prep = self.prepare(model);
        let mut ws = SimplexWorkspace::new();
        ws.reset(&prep);
        for (j, ov) in bound_overrides.iter().enumerate().take(prep.n) {
            if let Some((lo, hi)) = ov {
                ws.set_var_bounds(j, *lo, *hi);
            }
        }
        let outcome = self.solve_workspace(&prep, &mut ws);
        self.extract(&prep, &ws, outcome)
    }

    /// Solves the LP relaxation of `model` with its natural bounds.
    pub fn solve(&self, model: &Model) -> LpSolution {
        self.solve_with_bounds(model, &[])
    }

    /// Packages the workspace state into an [`LpSolution`].
    pub fn extract(
        &self,
        prep: &Prepared,
        ws: &SimplexWorkspace,
        outcome: LpOutcome,
    ) -> LpSolution {
        match outcome {
            LpOutcome::Optimal => LpSolution {
                outcome,
                objective: ws.objective(prep),
                values: ws.values().to_vec(),
                iterations: ws.last_pivots(),
            },
            _ => LpSolution {
                outcome,
                objective: f64::INFINITY,
                values: vec![],
                iterations: ws.last_pivots(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearExpr, Model};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn simple_two_variable_lp() {
        // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
        // optimum at (2, 2) with objective -6.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 3.0);
        let y = m.add_continuous(0.0, 2.0);
        m.set_objective_term(x, -1.0);
        m.set_objective_term(y, -2.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::LessEq,
            4.0,
        );
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.objective, -6.0), "obj {}", sol.objective);
        assert!(approx(sol.values[x.index()], 2.0));
        assert!(approx(sol.values[y.index()], 2.0));
    }

    #[test]
    fn equality_constraint_is_honored() {
        // min x + y s.t. x + y = 5, x <= 10, y <= 10 -> objective 5.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0);
        let y = m.add_continuous(0.0, 10.0);
        m.set_objective_term(x, 1.0);
        m.set_objective_term(y, 1.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::Equal,
            5.0,
        );
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.objective, 5.0), "obj {}", sol.objective);
        assert!(approx(sol.values[0] + sol.values[1], 5.0));
    }

    #[test]
    fn greater_equal_constraint() {
        // min 2x + 3y s.t. x + y >= 4, x <= 3, y <= 3 -> best is x=3, y=1 -> 9.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 3.0);
        let y = m.add_continuous(0.0, 3.0);
        m.set_objective_term(x, 2.0);
        m.set_objective_term(y, 3.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::GreaterEq,
            4.0,
        );
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.objective, 9.0), "obj {}", sol.objective);
    }

    #[test]
    fn infeasible_problem_detected() {
        // x <= 1 and x >= 2 simultaneously.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0);
        m.set_objective_term(x, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::LessEq, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::GreaterEq, 2.0);
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn binary_relaxation_uses_unit_bounds() {
        // min -x over binary x relaxed -> x = 1.
        let mut m = Model::new();
        let x = m.add_binary();
        m.set_objective_term(x, -1.0);
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.values[x.index()], 1.0));
    }

    #[test]
    fn bound_overrides_fix_variables() {
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.set_objective_term(x, -1.0);
        m.set_objective_term(y, -1.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::LessEq,
            1.0,
        );
        // Fix x = 0; then y should go to 1.
        let sol = SimplexSolver::new().solve_with_bounds(&m, &[Some((0.0, 0.0)), None]);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.values[x.index()], 0.0));
        assert!(approx(sol.values[y.index()], 1.0));
    }

    #[test]
    fn conflicting_bound_override_is_infeasible() {
        let mut m = Model::new();
        let _x = m.add_binary();
        let sol = SimplexSolver::new().solve_with_bounds(&m, &[Some((1.0, 0.0))]);
        assert_eq!(sol.outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn negative_lower_bounds_are_handled() {
        // min x with x in [-5, 5] -> -5.
        let mut m = Model::new();
        let x = m.add_continuous(-5.0, 5.0);
        m.set_objective_term(x, 1.0);
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.values[x.index()], -5.0));
        assert!(approx(sol.objective, -5.0));
    }

    #[test]
    fn lp_relaxation_of_assignment_problem() {
        // Two apps, two servers, assignment equality constraints, per-server
        // capacity 1, distinct costs; LP optimum equals the integral optimum
        // for this transportation-like structure.
        let mut m = Model::new();
        let x: Vec<Vec<_>> = (0..2)
            .map(|_| (0..2).map(|_| m.add_binary()).collect())
            .collect();
        let costs = [[5.0, 1.0], [2.0, 4.0]];
        for (x_row, cost_row) in x.iter().zip(costs.iter()) {
            let mut expr = LinearExpr::new();
            for (&v, &cost) in x_row.iter().zip(cost_row.iter()) {
                m.set_objective_term(v, cost);
                expr.add(v, 1.0);
            }
            m.add_constraint(expr, Comparison::Equal, 1.0);
        }
        for j in 0..2 {
            let mut expr = LinearExpr::new();
            for row in &x {
                expr.add(row[j], 1.0);
            }
            m.add_constraint(expr, Comparison::LessEq, 1.0);
        }
        let sol = SimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        // Optimal assignment: app0 -> server1 (1.0), app1 -> server0 (2.0) = 3.
        assert!(approx(sol.objective, 3.0), "obj {}", sol.objective);
    }

    #[test]
    fn warm_restart_after_bound_tightening_matches_cold_solve() {
        // Knapsack LP; fix a variable after the first solve and compare the
        // warm (dual simplex) restart against a cold solve.
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
        let solver = SimplexSolver::new();
        let prep = solver.prepare(&m);
        let mut ws = SimplexWorkspace::new();
        ws.reset(&prep);
        assert_eq!(solver.solve_workspace(&prep, &mut ws), LpOutcome::Optimal);
        assert!(ws.dual_ready, "an optimal solve leaves a warm basis");
        ws.set_var_bounds(a.index(), 0.0, 0.0);
        let warm = solver.solve_workspace(&prep, &mut ws);
        assert_eq!(warm, LpOutcome::Optimal);
        let warm_obj = ws.objective(&prep);
        let cold = solver.solve_with_bounds(&m, &[Some((0.0, 0.0)), None, None]);
        assert_eq!(cold.outcome, LpOutcome::Optimal);
        assert!(
            (warm_obj - cold.objective).abs() < 1e-6,
            "warm {warm_obj} vs cold {}",
            cold.objective
        );
    }

    #[test]
    fn warm_restart_detects_infeasible_fixing_and_stays_reusable() {
        // x + y = 1; fixing both to zero is infeasible; relaxing one again
        // must recover the optimum from the same workspace.
        let mut m = Model::new();
        let x = m.add_binary();
        let y = m.add_binary();
        m.set_objective_term(x, 2.0);
        m.set_objective_term(y, 3.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::Equal,
            1.0,
        );
        let solver = SimplexSolver::new();
        let prep = solver.prepare(&m);
        let mut ws = SimplexWorkspace::new();
        ws.reset(&prep);
        assert_eq!(solver.solve_workspace(&prep, &mut ws), LpOutcome::Optimal);
        assert!(approx(ws.objective(&prep), 2.0));
        ws.set_var_bounds(x.index(), 0.0, 0.0);
        ws.set_var_bounds(y.index(), 0.0, 0.0);
        assert_eq!(
            solver.solve_workspace(&prep, &mut ws),
            LpOutcome::Infeasible
        );
        ws.reset_var_bounds(&prep, y.index());
        assert_eq!(solver.solve_workspace(&prep, &mut ws), LpOutcome::Optimal);
        assert!(
            approx(ws.objective(&prep), 3.0),
            "obj {}",
            ws.objective(&prep)
        );
    }

    #[test]
    fn cold_slack_basis_is_dual_feasible_on_boxed_models() {
        // Seeded boxed models: binaries and continuous columns (half with a
        // negative lower bound), costs of both signs, every row sense.  The
        // slack basis the cold start installs must already be dual
        // feasible, and the dual walk from it must reach a verdict.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let senses = [Comparison::LessEq, Comparison::GreaterEq, Comparison::Equal];
        let mut rng = StdRng::seed_from_u64(30);
        let solver = SimplexSolver::new();
        let (mut optimal, mut infeasible) = (0, 0);
        for case in 0..200 {
            let mut m = Model::new();
            let vars: Vec<_> = (0..rng.gen_range(1..9))
                .map(|_| {
                    let v = if rng.gen_bool(0.5) {
                        m.add_binary()
                    } else {
                        let lower = if rng.gen_bool(0.5) {
                            rng.gen_range(-4.0..0.0)
                        } else {
                            0.0
                        };
                        m.add_continuous(lower, lower + rng.gen_range(0.5..6.0))
                    };
                    m.set_objective_term(v, rng.gen_range(-10.0..10.0));
                    v
                })
                .collect();
            for _ in 0..rng.gen_range(1..6) {
                let mut expr = LinearExpr::new();
                for &v in &vars {
                    if rng.gen_bool(0.6) {
                        expr.add(v, rng.gen_range(-5.0..5.0));
                    }
                }
                let cmp = senses[rng.gen_range(0..3)];
                let rhs = rng.gen_range(-4.0..8.0);
                if !expr.terms.is_empty() {
                    m.add_constraint(expr, cmp, rhs);
                }
            }
            let prep = solver.prepare(&m);
            let mut ws = SimplexWorkspace::new();
            ws.reset(&prep);
            ws.install_slack_basis(&prep);
            ws.compute_duals(&prep);
            for j in 0..prep.ncols() {
                let d = ws.d[j];
                match ws.state[j] {
                    AT_LOWER => assert!(d >= -TOLERANCE, "case {case}: column {j} at lower, d {d}"),
                    AT_UPPER => assert!(d <= TOLERANCE, "case {case}: column {j} at upper, d {d}"),
                    _ => {}
                }
            }
            match solver.solve_workspace(&prep, &mut ws) {
                LpOutcome::Optimal => optimal += 1,
                LpOutcome::Infeasible => infeasible += 1,
                outcome => panic!("case {case}: {outcome:?}"),
            }
        }
        assert!(
            optimal > 0 && infeasible > 0,
            "{optimal} optimal, {infeasible} infeasible"
        );
    }

    #[test]
    fn failed_refactorization_resets_to_a_clean_slack_basis() {
        // Regression: a singular basis handed to `refactorize` used to
        // leave the workspace half-rebuilt.  It must instead fall back to
        // the pristine slack basis and stay fully solvable.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 3.0);
        let y = m.add_continuous(0.0, 2.0);
        m.set_objective_term(x, -1.0);
        m.set_objective_term(y, -2.0);
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, 1.0),
            Comparison::LessEq,
            4.0,
        );
        m.add_constraint(
            LinearExpr::new().with(x, 1.0).with(y, -1.0),
            Comparison::LessEq,
            3.0,
        );
        let solver = SimplexSolver::new();
        let prep = solver.prepare(&m);
        let mut ws = SimplexWorkspace::new();
        ws.reset(&prep);
        assert_eq!(solver.solve_workspace(&prep, &mut ws), LpOutcome::Optimal);
        let optimum = ws.objective(&prep);

        // Corrupt the basis into a structurally singular one (the same
        // column in every slot) and force a refactorization.
        let dup = ws.basis[0];
        for slot in ws.basis.iter_mut() {
            *slot = dup;
        }
        assert!(!ws.refactorize(&prep), "singular basis must be rejected");
        for (r, &b) in ws.basis.iter().enumerate() {
            assert_eq!(b, prep.n + r, "slot {r} must hold its slack again");
        }
        assert!(!ws.dual_ready && !ws.primal_ready);

        // The reset workspace must cold-start back to the same optimum.
        assert_eq!(solver.solve_workspace(&prep, &mut ws), LpOutcome::Optimal);
        assert!(
            approx(ws.objective(&prep), optimum),
            "obj {}",
            ws.objective(&prep)
        );
    }

    /// A 3-app × 2-server placement MILP in the shape
    /// `carbonedge_core::IncrementalPlacer` builds: assignment rows, then
    /// per server a capacity row coupled to its activation variable and,
    /// when `linking`, that server's `x ≤ y` rows, so skipped rows sit
    /// between kept ones.
    fn block_model(costs: [[f64; 2]; 3], capacity: f64, linking: bool) -> Model {
        let mut m = Model::new();
        let x: Vec<Vec<_>> = costs
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&cost| {
                        let v = m.add_binary();
                        m.set_objective_term(v, cost);
                        v
                    })
                    .collect()
            })
            .collect();
        let y: Vec<_> = (0..2).map(|_| m.add_binary()).collect();
        for &v in &y {
            m.set_objective_term(v, 0.5);
        }
        for row in &x {
            let expr = LinearExpr::new().with(row[0], 1.0).with(row[1], 1.0);
            m.add_constraint(expr, Comparison::Equal, 1.0);
        }
        for (j, &yj) in y.iter().enumerate() {
            let mut cap = LinearExpr::new();
            for row in &x {
                cap.add(row[j], 1.0);
            }
            cap.add(yj, -capacity);
            m.add_constraint(cap, Comparison::LessEq, 0.0);
            if linking {
                for row in &x {
                    let link = LinearExpr::new().with(row[j], 1.0).with(yj, -1.0);
                    m.add_constraint(link, Comparison::LessEq, 0.0);
                }
            }
        }
        m
    }

    #[test]
    fn a_row_view_equals_the_model_built_without_its_skipped_rows() {
        let costs = [[3.0, 1.0], [2.0, 4.0], [1.0, 2.0]];
        let full = block_model(costs, 2.0, true);
        let structure = crate::decomp::BlockStructure::detect(&full).expect("placement shape");
        let skip = &structure.linking;
        assert_eq!(skip.iter().filter(|&&l| l).count(), 6);
        let mut view = Prepared::default();
        view.load(&full, skip);
        let plain = Prepared::build(&block_model(costs, 2.0, false));
        assert_eq!((view.n, view.m), (8, 5));
        assert_eq!((view.n, view.m), (plain.n, plain.m));
        assert_eq!(view.col_ptr, plain.col_ptr);
        assert_eq!(view.col_row, plain.col_row);
        assert_eq!(view.col_val, plain.col_val);
        assert_eq!(view.rhs, plain.rhs);
        assert_eq!(view.lower, plain.lower);
        assert_eq!(view.upper, plain.upper);
        assert_eq!(view.cost, plain.cost);

        // A cost-only shift keeps the view's structure and refreshes the
        // costs in place.
        let shifted_costs = [[1.0, 3.0], [4.0, 2.0], [2.0, 1.0]];
        let shifted = block_model(shifted_costs, 2.0, true);
        assert!(view.matches_structure(&shifted, skip));
        assert!(view.refresh_costs(&shifted));
        assert_eq!(view.cost[..view.n], *shifted.objective());
        assert!(!view.refresh_costs(&shifted));
        // An edit to a kept capacity row, or the full row set, does not.
        assert!(!view.matches_structure(&block_model(shifted_costs, 3.0, true), skip));
        assert!(!view.matches_structure(&shifted, &[]));
    }

    #[test]
    fn prepared_costs_copy_the_dense_objective() {
        // Coefficients set in forward or reverse variable order, with a
        // zero-cost variable and a cancelled one in between.
        let build = |order: [usize; 4]| {
            let mut m = Model::new();
            let vars = [
                m.add_continuous(0.0, 1.0),
                m.add_continuous(-2.0, 2.0),
                m.add_continuous(-3.0, 0.0),
                m.add_binary(),
            ];
            for j in order {
                m.set_objective_term(vars[j], [2.0, 0.0, 5.0, -1.5][j]);
            }
            m.set_objective_term(vars[2], -5.0);
            let row = LinearExpr::new().with(vars[0], 1.0).with(vars[3], 1.0);
            m.add_constraint(row, Comparison::LessEq, 1.0);
            Prepared::build(&m)
        };
        let forward = build([0, 1, 2, 3]);
        let reverse = build([3, 2, 1, 0]);
        assert_eq!(forward.cost, vec![2.0, 0.0, 0.0, -1.5, 0.0]);
        assert_eq!(forward.cost, reverse.cost);
    }
}
