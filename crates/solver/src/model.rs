//! A small modeling layer for mixed binary/continuous linear programs.

/// Identifier of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

impl VarId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarKind {
    /// A continuous variable with finite lower and upper bounds.
    Continuous {
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// A binary (0/1) variable.
    Binary,
}

impl VarKind {
    /// Bounds of the variable in its LP relaxation.
    pub fn bounds(&self) -> (f64, f64) {
        match self {
            VarKind::Continuous { lower, upper } => (*lower, *upper),
            VarKind::Binary => (0.0, 1.0),
        }
    }
}

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Left-hand side ≤ right-hand side.
    LessEq,
    /// Left-hand side ≥ right-hand side.
    GreaterEq,
    /// Left-hand side = right-hand side.
    Equal,
}

/// A sparse linear expression: a sum of `coefficient * variable` terms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearExpr {
    /// The `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
}

impl LinearExpr {
    /// Creates an empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a term, merging coefficients with any existing term on the same
    /// variable — repeated `add`s of one `VarId` never push duplicate terms.
    /// A term whose merged coefficient cancels to exactly zero is removed,
    /// keeping the expression canonical (duplicate or zero terms would make
    /// equal expressions compare unequal and defeat emptiness checks on
    /// constraint builders).
    pub fn add(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if let Some(pos) = self.terms.iter().position(|(v, _)| *v == var) {
            self.terms[pos].1 += coeff;
            if self.terms[pos].1 == 0.0 {
                self.terms.remove(pos);
            }
        } else if coeff != 0.0 {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Builder-style term addition.
    pub fn with(mut self, var: VarId, coeff: f64) -> Self {
        self.add(var, coeff);
        self
    }

    /// Evaluates the expression at an assignment (indexed by variable id).
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|(v, c)| c * values[v.index()]).sum()
    }
}

/// A linear constraint `expr <cmp> rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left-hand side expression.
    pub expr: LinearExpr,
    /// Comparison sense.
    pub cmp: Comparison,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Whether the constraint holds at an assignment, within tolerance.
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.evaluate(values);
        match self.cmp {
            Comparison::LessEq => lhs <= self.rhs + tol,
            Comparison::GreaterEq => lhs >= self.rhs - tol,
            Comparison::Equal => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A minimization model over continuous and binary variables with linear
/// constraints — the subset of OR-Tools functionality the paper's placement
/// policy needs.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<VarKind>,
    /// Objective coefficient per variable, in id order.
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a binary variable.
    pub fn add_binary(&mut self) -> VarId {
        self.vars.push(VarKind::Binary);
        self.objective.push(0.0);
        VarId(self.vars.len() - 1)
    }

    /// Adds a boxed continuous variable.  Panics unless both bounds are
    /// finite and `lower <= upper`: the simplex rests every nonbasic column
    /// on a finite bound, which keeps each LP it solves bounded and its cold
    /// slack basis dual feasible.
    pub fn add_continuous(&mut self, lower: f64, upper: f64) -> VarId {
        assert!(
            lower.is_finite() && upper.is_finite() && lower <= upper,
            "invalid variable bounds [{lower}, {upper}]"
        );
        self.vars.push(VarKind::Continuous { lower, upper });
        self.objective.push(0.0);
        VarId(self.vars.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variable kinds in id order.
    pub fn vars(&self) -> &[VarKind] {
        &self.vars
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The minimization objective: one coefficient per variable, in id
    /// order, zero for a variable without an objective term.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Sets an objective coefficient (adds to any existing coefficient).
    pub fn set_objective_term(&mut self, var: VarId, coeff: f64) {
        self.objective[var.index()] += coeff;
    }

    /// Resets every objective coefficient to zero, keeping the variables
    /// and constraints.
    pub fn clear_objective(&mut self) {
        self.objective.fill(0.0);
    }

    /// Adds a constraint; returns its index.
    pub fn add_constraint(&mut self, expr: LinearExpr, cmp: Comparison, rhs: f64) -> usize {
        self.constraints.push(Constraint { expr, cmp, rhs });
        self.constraints.len() - 1
    }

    /// Objective value at an assignment.  Zero-cost variables contribute
    /// nothing, whatever their value.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0.0)
            .map(|(j, c)| c * values[j])
            .sum()
    }

    /// Whether an assignment satisfies all constraints and variable bounds.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, kind) in self.vars.iter().enumerate() {
            let (lo, hi) = kind.bounds();
            if values[i] < lo - tol || values[i] > hi + tol {
                return false;
            }
            if matches!(kind, VarKind::Binary) {
                let frac = (values[i] - values[i].round()).abs();
                if frac > tol {
                    return false;
                }
            }
        }
        self.constraints.iter().all(|c| c.is_satisfied(values, tol))
    }

    /// Indices of the binary variables.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, VarKind::Binary))
            .map(|(i, _)| VarId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knapsack_model() -> Model {
        // max 3a + 4b st a + 2b <= 2, binary  (as minimization of -obj)
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
        m
    }

    #[test]
    fn variables_get_sequential_ids() {
        let mut m = Model::new();
        assert_eq!(m.add_binary(), VarId(0));
        assert_eq!(m.add_continuous(0.0, 5.0), VarId(1));
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn expr_merges_duplicate_terms_and_evaluates() {
        let mut e = LinearExpr::new();
        e.add(VarId(0), 2.0).add(VarId(0), 3.0).add(VarId(1), 1.0);
        assert_eq!(e.terms.len(), 2);
        assert_eq!(e.evaluate(&[1.0, 4.0]), 9.0);
    }

    #[test]
    fn repeated_add_of_same_var_never_duplicates_terms() {
        // Regression: repeated `add` of one VarId must merge coefficients
        // rather than pushing a second `(var, coeff)` term — duplicates would
        // double-count the variable in `evaluate` and in the simplex tableau.
        let mut e = LinearExpr::new();
        for _ in 0..10 {
            e.add(VarId(7), 1.0);
        }
        assert_eq!(e.terms, vec![(VarId(7), 10.0)]);
        // The builder-style path funnels through the same merge.
        let built = LinearExpr::new()
            .with(VarId(0), 2.0)
            .with(VarId(1), 1.0)
            .with(VarId(0), 3.0);
        assert_eq!(built.terms, vec![(VarId(0), 5.0), (VarId(1), 1.0)]);
        assert_eq!(built.evaluate(&[1.0, 10.0]), 15.0);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let mut e = LinearExpr::new();
        e.add(VarId(0), 2.5).add(VarId(1), 1.0).add(VarId(0), -2.5);
        assert_eq!(e.terms, vec![(VarId(1), 1.0)]);
        // An explicit zero-coefficient add is a no-op.
        e.add(VarId(2), 0.0);
        assert_eq!(e.terms.len(), 1);
        // Cancelled expressions compare equal to freshly built ones.
        assert_eq!(e, LinearExpr::new().with(VarId(1), 1.0));
    }

    #[test]
    fn objective_terms_merge_through_the_model() {
        let mut m = Model::new();
        let v = m.add_binary();
        m.set_objective_term(v, 1.5);
        m.set_objective_term(v, 2.5);
        assert_eq!(m.objective(), &[4.0]);
        // Clearing resets every coefficient and keeps the variables.
        m.clear_objective();
        m.set_objective_term(v, -0.5);
        assert_eq!(m.objective(), &[-0.5]);
        assert_eq!(m.num_vars(), 1);
    }

    #[test]
    fn dense_objective_accumulates_and_skips_zero_costs() {
        let mut m = Model::new();
        let x = m.add_binary();
        m.add_continuous(-1.0, 1.0);
        let cancelled = m.add_continuous(0.0, 4.0);
        for _ in 0..4 {
            m.set_objective_term(x, 0.5);
        }
        m.set_objective_term(cancelled, 3.0);
        m.set_objective_term(cancelled, -3.0);
        // Repeated terms accumulate; an exact cancellation reads as zero.
        assert_eq!(m.objective(), &[2.0, 0.0, 0.0]);
        // Zero-cost variables add nothing, even at non-finite values.
        assert_eq!(
            m.objective_value(&[1.0, f64::NEG_INFINITY, f64::INFINITY]),
            2.0
        );
        assert_eq!(m.objective_value(&[0.5, f64::NAN, f64::NAN]), 1.0);
    }

    #[test]
    fn constraint_satisfaction_by_sense() {
        let expr = LinearExpr::new().with(VarId(0), 1.0);
        let le = Constraint {
            expr: expr.clone(),
            cmp: Comparison::LessEq,
            rhs: 1.0,
        };
        let ge = Constraint {
            expr: expr.clone(),
            cmp: Comparison::GreaterEq,
            rhs: 1.0,
        };
        let eq = Constraint {
            expr,
            cmp: Comparison::Equal,
            rhs: 1.0,
        };
        assert!(le.is_satisfied(&[0.5], 1e-9));
        assert!(!le.is_satisfied(&[1.5], 1e-9));
        assert!(ge.is_satisfied(&[1.5], 1e-9));
        assert!(!ge.is_satisfied(&[0.5], 1e-9));
        assert!(eq.is_satisfied(&[1.0], 1e-9));
        assert!(!eq.is_satisfied(&[0.5], 1e-9));
    }

    #[test]
    fn feasibility_checks_bounds_and_integrality() {
        let m = knapsack_model();
        assert!(m.is_feasible(&[0.0, 1.0], 1e-9));
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
        // Violates capacity.
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9));
        // Fractional binary.
        assert!(!m.is_feasible(&[0.5, 0.0], 1e-9));
        // Wrong length.
        assert!(!m.is_feasible(&[0.0], 1e-9));
    }

    #[test]
    fn objective_value_evaluates() {
        let m = knapsack_model();
        assert_eq!(m.objective_value(&[0.0, 1.0]), -4.0);
        assert_eq!(m.objective_value(&[1.0, 0.0]), -3.0);
    }

    #[test]
    fn binary_vars_listing() {
        let mut m = Model::new();
        m.add_binary();
        m.add_continuous(0.0, 1.0);
        m.add_binary();
        assert_eq!(m.binary_vars(), vec![VarId(0), VarId(2)]);
    }

    #[test]
    fn continuous_bounds_respected_in_feasibility() {
        let mut m = Model::new();
        let x = m.add_continuous(1.0, 2.0);
        m.set_objective_term(x, 1.0);
        assert!(m.is_feasible(&[1.5], 1e-9));
        assert!(!m.is_feasible(&[0.5], 1e-9));
        assert!(!m.is_feasible(&[2.5], 1e-9));
    }

    #[test]
    #[should_panic(expected = "invalid variable bounds")]
    fn invalid_bounds_panic() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (lower, upper) in [(-inf, 1.0), (0.0, inf), (-inf, inf), (nan, 1.0), (0.0, nan)] {
            let added = std::panic::catch_unwind(|| Model::new().add_continuous(lower, upper));
            assert!(added.is_err(), "bounds [{lower}, {upper}] accepted");
        }
        Model::new().add_continuous(2.0, 1.0);
    }
}
