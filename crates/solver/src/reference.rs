//! Reference (oracle) solvers: the original dense Big-M tableau simplex and
//! the cold-start stack-based branch-and-bound that shipped before the
//! bounded-variable revised simplex rewrite.
//!
//! These implementations are retained **only** as differential-test oracles
//! and as the "before" side of the solver benchmarks: they rebuild the full
//! tableau (upper bounds materialized as constraint rows, artificial columns
//! penalized with `big_m = 1e7`) on every solve and cold-start every
//! branch-and-bound node from scratch.  Production code paths use
//! [`crate::simplex::SimplexSolver`] and
//! [`crate::branch_bound::BranchBoundSolver`]; nothing outside the tests and
//! benches should depend on this module.
//!
//! **Domain caveat:** the dense solver substitutes `y = x - lower`, so it is
//! undefined for variables with an infinite *lower* bound (free or
//! one-sided-below).  Differential tests must keep lower bounds finite;
//! infinite upper bounds are fine.

use crate::branch_bound::{MilpOutcome, MilpSolution};
use crate::model::{Comparison, Model};
use crate::simplex::{LpOutcome, LpSolution};

/// Big-M tableau simplex solver (the pre-rewrite implementation).
#[derive(Debug, Clone)]
pub struct DenseSimplexSolver {
    /// Maximum number of pivots before giving up.
    pub max_iterations: usize,
    /// The Big-M penalty applied to artificial variables.
    pub big_m: f64,
    /// Numerical tolerance.
    pub tolerance: f64,
}

impl Default for DenseSimplexSolver {
    fn default() -> Self {
        Self {
            max_iterations: 20_000,
            big_m: 1e7,
            tolerance: 1e-7,
        }
    }
}

impl DenseSimplexSolver {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the LP relaxation of `model` (binary variables relaxed to
    /// `[0, 1]`), optionally with per-variable bound overrides used by the
    /// branch-and-bound solver to fix branched variables.
    ///
    /// `bound_overrides[i]`, when present, replaces the natural bounds of
    /// variable `i`.
    pub fn solve_with_bounds(
        &self,
        model: &Model,
        bound_overrides: &[Option<(f64, f64)>],
    ) -> LpSolution {
        let n = model.num_vars();
        // Resolve bounds.
        let mut lower = vec![0.0f64; n];
        let mut upper = vec![f64::INFINITY; n];
        for (i, kind) in model.vars().iter().enumerate() {
            let (lo, hi) = kind.bounds();
            lower[i] = lo;
            upper[i] = hi;
            if let Some(Some((olo, ohi))) = bound_overrides.get(i) {
                lower[i] = *olo;
                upper[i] = *ohi;
            }
            if lower[i] > upper[i] + self.tolerance {
                return LpSolution {
                    outcome: LpOutcome::Infeasible,
                    objective: f64::INFINITY,
                    values: vec![],
                    iterations: 0,
                };
            }
        }

        // Build rows in terms of shifted variables y = x - lower (y >= 0).
        // Each row: (coeffs over y, comparison, rhs).
        let mut rows: Vec<(Vec<f64>, Comparison, f64)> = Vec::new();
        for c in model.constraints() {
            let mut coeffs = vec![0.0; n];
            let mut rhs = c.rhs;
            for (v, a) in &c.expr.terms {
                coeffs[v.index()] += *a;
                rhs -= *a * lower[v.index()];
            }
            rows.push((coeffs, c.cmp, rhs));
        }
        // Upper bounds as explicit constraints y_i <= upper_i - lower_i.
        for i in 0..n {
            let ub = upper[i] - lower[i];
            if ub.is_finite() {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                rows.push((coeffs, Comparison::LessEq, ub));
            }
        }

        // Normalize rows so rhs >= 0.
        for (coeffs, cmp, rhs) in &mut rows {
            if *rhs < 0.0 {
                for a in coeffs.iter_mut() {
                    *a = -*a;
                }
                *rhs = -*rhs;
                *cmp = match *cmp {
                    Comparison::LessEq => Comparison::GreaterEq,
                    Comparison::GreaterEq => Comparison::LessEq,
                    Comparison::Equal => Comparison::Equal,
                };
            }
        }

        let m = rows.len();
        // Count auxiliary columns: slack/surplus + artificial.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for (_, cmp, _) in &rows {
            match cmp {
                Comparison::LessEq => num_slack += 1,
                Comparison::GreaterEq => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                Comparison::Equal => num_artificial += 1,
            }
        }
        let total = n + num_slack + num_artificial;

        // Tableau: m rows of (total coeffs + rhs), plus objective row.
        let mut tableau = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut obj = vec![0.0f64; total + 1];

        // Objective coefficients for structural variables (shifted): the
        // constant offset c' * lower is added back at the end.
        let mut obj_offset = 0.0;
        for (j, &c) in model.objective().iter().enumerate() {
            if c != 0.0 {
                obj[j] += c;
                obj_offset += c * lower[j];
            }
        }

        let mut slack_cursor = n;
        let mut artificial_cursor = n + num_slack;
        let mut artificial_cols: Vec<usize> = Vec::new();
        for (r, (coeffs, cmp, rhs)) in rows.iter().enumerate() {
            for (i, a) in coeffs.iter().enumerate() {
                tableau[r][i] = *a;
            }
            tableau[r][total] = *rhs;
            match cmp {
                Comparison::LessEq => {
                    tableau[r][slack_cursor] = 1.0;
                    basis[r] = slack_cursor;
                    slack_cursor += 1;
                }
                Comparison::GreaterEq => {
                    tableau[r][slack_cursor] = -1.0;
                    slack_cursor += 1;
                    tableau[r][artificial_cursor] = 1.0;
                    obj[artificial_cursor] = self.big_m;
                    basis[r] = artificial_cursor;
                    artificial_cols.push(artificial_cursor);
                    artificial_cursor += 1;
                }
                Comparison::Equal => {
                    tableau[r][artificial_cursor] = 1.0;
                    obj[artificial_cursor] = self.big_m;
                    basis[r] = artificial_cursor;
                    artificial_cols.push(artificial_cursor);
                    artificial_cursor += 1;
                }
            }
        }

        // Reduced-cost row: z_j - c_j, starting from the basis.
        // We maintain the objective row as c_j - z_j (to minimize we pivot on
        // negative entries of that row). Start: row = obj, then eliminate
        // basic columns.
        let mut objective_row = obj.clone();
        let mut objective_value = 0.0;
        for r in 0..m {
            let b = basis[r];
            let cb = obj[b];
            if cb != 0.0 {
                for j in 0..=total {
                    let delta = cb * tableau[r][j];
                    if j == total {
                        objective_value += delta;
                    } else {
                        objective_row[j] -= delta;
                    }
                }
            }
        }
        // Note: objective_row[j] now holds c_j - z_j; objective_value holds z0.

        let mut iterations = 0usize;
        loop {
            if iterations >= self.max_iterations {
                return LpSolution {
                    outcome: LpOutcome::IterationLimit,
                    objective: f64::INFINITY,
                    values: vec![],
                    iterations,
                };
            }
            // Entering column: most negative reduced cost (Dantzig), with
            // Bland's rule as a tie-breaking fallback to avoid cycling.
            let mut entering: Option<usize> = None;
            let mut best = -self.tolerance;
            for (j, &reduced_cost) in objective_row.iter().enumerate().take(total) {
                if reduced_cost < best {
                    best = reduced_cost;
                    entering = Some(j);
                }
            }
            let Some(pivot_col) = entering else {
                break; // optimal
            };

            // Ratio test.
            let mut pivot_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = tableau[r][pivot_col];
                if a > self.tolerance {
                    let ratio = tableau[r][total] / a;
                    if ratio < best_ratio - self.tolerance
                        || (ratio < best_ratio + self.tolerance
                            && pivot_row.is_none_or(|pr| basis[r] < basis[pr]))
                    {
                        best_ratio = ratio;
                        pivot_row = Some(r);
                    }
                }
            }
            let Some(pivot_row) = pivot_row else {
                return LpSolution {
                    outcome: LpOutcome::Unbounded,
                    objective: f64::NEG_INFINITY,
                    values: vec![],
                    iterations,
                };
            };

            // Pivot.
            let pivot_val = tableau[pivot_row][pivot_col];
            for v in tableau[pivot_row].iter_mut() {
                *v /= pivot_val;
            }
            let pivot_vals = tableau[pivot_row].clone();
            for (r, row) in tableau.iter_mut().enumerate() {
                if r == pivot_row {
                    continue;
                }
                let factor = row[pivot_col];
                if factor.abs() > 0.0 {
                    for (v, pv) in row.iter_mut().zip(pivot_vals.iter()) {
                        *v -= factor * pv;
                    }
                }
            }
            let factor = objective_row[pivot_col];
            if factor.abs() > 0.0 {
                for (v, pv) in objective_row.iter_mut().zip(pivot_vals.iter()).take(total) {
                    *v -= factor * pv;
                }
                objective_value -= factor * pivot_vals[total];
            }
            basis[pivot_row] = pivot_col;
            iterations += 1;
        }

        // Extract solution.
        let mut shifted = vec![0.0f64; total];
        for r in 0..m {
            shifted[basis[r]] = tableau[r][total];
        }
        // If any artificial variable is still positive, the problem is infeasible.
        for &a in &artificial_cols {
            if shifted[a] > 1e-5 {
                return LpSolution {
                    outcome: LpOutcome::Infeasible,
                    objective: f64::INFINITY,
                    values: vec![],
                    iterations,
                };
            }
        }

        let mut values = vec![0.0f64; n];
        for i in 0..n {
            values[i] = shifted[i] + lower[i];
        }
        // Recompute the objective from the model to avoid Big-M residue.
        let objective = model.objective_value(&values);
        let _ = objective_value + obj_offset;
        LpSolution {
            outcome: LpOutcome::Optimal,
            objective,
            values,
            iterations,
        }
    }

    /// Solves the LP relaxation of `model` with its natural bounds.
    pub fn solve(&self, model: &Model) -> LpSolution {
        self.solve_with_bounds(model, &vec![None; model.num_vars()])
    }
}

/// The pre-rewrite cold-start branch-and-bound: depth-first stack, a full
/// `overrides` clone per child, and a fresh Big-M tableau per node.  Retained
/// as the differential oracle and the "before" side of `BENCH_solver.json`.
#[derive(Debug, Clone)]
pub struct ReferenceBranchBound {
    /// LP relaxation solver.
    pub lp: DenseSimplexSolver,
    /// Maximum number of nodes to explore.
    pub max_nodes: usize,
    /// Integrality tolerance.
    pub tolerance: f64,
}

impl Default for ReferenceBranchBound {
    fn default() -> Self {
        Self {
            lp: DenseSimplexSolver::new(),
            max_nodes: 50_000,
            tolerance: 1e-6,
        }
    }
}

struct Node {
    overrides: Vec<Option<(f64, f64)>>,
    bound: f64,
}

impl ReferenceBranchBound {
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

    fn most_fractional_binary(&self, model: &Model, values: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for v in model.binary_vars() {
            let val = values[v.index()];
            let frac = (val - val.round()).abs();
            if frac > self.tolerance {
                let distance_to_half = (val - 0.5).abs();
                match best {
                    Some((_, d)) if d <= distance_to_half => {}
                    _ => best = Some((v.index(), distance_to_half)),
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Solves the MILP to optimality (or best effort within the node limit).
    pub fn solve(&self, model: &Model) -> MilpSolution {
        let n = model.num_vars();
        let root = Node {
            overrides: vec![None; n],
            bound: f64::NEG_INFINITY,
        };
        let mut stack = vec![root];
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut nodes = 0usize;
        let mut pivots = 0usize;
        let mut exhausted = true;

        while let Some(node) = stack.pop() {
            if nodes >= self.max_nodes {
                exhausted = false;
                break;
            }
            nodes += 1;

            // Prune by bound.
            if let Some((best_obj, _)) = &incumbent {
                if node.bound >= *best_obj - self.tolerance {
                    continue;
                }
            }

            let relax = self.lp.solve_with_bounds(model, &node.overrides);
            pivots += relax.iterations;
            match relax.outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    // An unbounded relaxation of a bounded-binary problem can
                    // only come from unbounded continuous variables; treat the
                    // node as unusable.
                    continue;
                }
                LpOutcome::IterationLimit => continue,
                LpOutcome::Optimal => {}
            }
            if let Some((best_obj, _)) = &incumbent {
                if relax.objective >= *best_obj - self.tolerance {
                    continue;
                }
            }

            match self.most_fractional_binary(model, &relax.values) {
                None => {
                    // Integer feasible: round binaries exactly and keep if improving.
                    let mut values = relax.values.clone();
                    for v in model.binary_vars() {
                        values[v.index()] = values[v.index()].round();
                    }
                    if model.is_feasible(&values, 1e-5) {
                        let obj = model.objective_value(&values);
                        let improves = incumbent
                            .as_ref()
                            .is_none_or(|(best, _)| obj < *best - self.tolerance);
                        if improves {
                            incumbent = Some((obj, values));
                        }
                    }
                }
                Some(branch_var) => {
                    // Branch: x = 0 and x = 1 children.
                    for fixed in [1.0, 0.0] {
                        let mut overrides = node.overrides.clone();
                        overrides[branch_var] = Some((fixed, fixed));
                        stack.push(Node {
                            overrides,
                            bound: relax.objective,
                        });
                    }
                }
            }
        }

        match incumbent {
            Some((objective, values)) => MilpSolution {
                outcome: if exhausted {
                    MilpOutcome::Optimal
                } else {
                    MilpOutcome::Feasible
                },
                objective,
                values,
                nodes,
                pivots,
                factor: Default::default(),
                pricing: Default::default(),
                decomp: None,
            },
            None => MilpSolution {
                outcome: if exhausted {
                    MilpOutcome::Infeasible
                } else {
                    MilpOutcome::NodeLimit
                },
                objective: f64::INFINITY,
                values: vec![],
                nodes,
                pivots,
                factor: Default::default(),
                pricing: Default::default(),
                decomp: None,
            },
        }
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
    fn oracle_simplex_solves_a_basic_lp() {
        // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2 -> (2, 2), objective -6.
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
        let sol = DenseSimplexSolver::new().solve(&m);
        assert_eq!(sol.outcome, LpOutcome::Optimal);
        assert!(approx(sol.objective, -6.0), "obj {}", sol.objective);
    }

    #[test]
    fn oracle_simplex_detects_infeasibility_and_unboundedness() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0);
        m.set_objective_term(x, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::LessEq, 1.0);
        m.add_constraint(LinearExpr::new().with(x, 1.0), Comparison::GreaterEq, 2.0);
        assert_eq!(
            DenseSimplexSolver::new().solve(&m).outcome,
            LpOutcome::Infeasible
        );

        // A model's bounds are finite, so only a bound override can lift
        // one to infinity and leave the objective unbounded.
        let mut unbounded = Model::new();
        let z = unbounded.add_continuous(0.0, 1.0);
        unbounded.set_objective_term(z, -1.0);
        assert_eq!(
            DenseSimplexSolver::new()
                .solve_with_bounds(&unbounded, &[Some((0.0, f64::INFINITY))])
                .outcome,
            LpOutcome::Unbounded
        );
    }

    #[test]
    fn oracle_branch_bound_solves_a_knapsack() {
        // max 10a + 6b + 4c st 5a + 4b + 3c <= 8 -> a + c = 14.
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
        let sol = ReferenceBranchBound::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Optimal);
        assert!(approx(sol.objective, -14.0), "obj {}", sol.objective);
    }

    #[test]
    fn oracle_branch_bound_detects_infeasible_milp() {
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
        let sol = ReferenceBranchBound::new().solve(&m);
        assert_eq!(sol.outcome, MilpOutcome::Infeasible);
        assert!(!sol.has_solution());
    }
}
