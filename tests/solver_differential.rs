//! Differential solver/placement tests: on every scenario small enough for
//! the exact path (`apps * servers <= exact_size_limit`), the heuristic must
//! never beat the exact optimum, the LP relaxation must lower-bound the
//! MILP, and when the relaxation is already integral, simplex and
//! branch-and-bound must agree on the optimum within tolerance.
//!
//! The suite also differentials the **bounded-variable revised simplex**
//! and the **warm-started best-first branch-and-bound** against the
//! retained dense Big-M oracles (`carbonedge_solver::reference`) on
//! randomized models, and checks that warm restarts (dirty reused
//! workspaces) reproduce cold-start results exactly on every exact-path
//! scenario.

use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;
use carbonedge_net::LatencyModel;
use carbonedge_solver::{
    BlockStructure, BranchBoundSolver, Comparison, DenseSimplexSolver, LinearExpr, LpOutcome,
    Model, ReferenceBranchBound, SimplexSolver, VarId, VarKind,
};
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-6;

/// A randomized mesoscale scenario sized for the exact path.
fn random_scenario(seed: u64, n_servers: usize, n_apps: usize) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = Coordinates::new(46.0, 8.0);
    let devices = [DeviceKind::OrinNano, DeviceKind::A2, DeviceKind::Gtx1080];
    let servers: Vec<ServerSnapshot> = (0..n_servers)
        .map(|j| {
            let loc = Coordinates::new(
                base.lat + rng.gen_range(-1.5..1.5),
                base.lon + rng.gen_range(-2.0..2.0),
            );
            ServerSnapshot::new(j, j, ZoneId(j), devices[j % devices.len()], loc)
                .with_carbon_intensity(rng.gen_range(30.0..700.0))
                .with_powered_on(rng.gen_bool(0.8))
        })
        .collect();
    let apps: Vec<Application> = (0..n_apps)
        .map(|i| {
            let origin = servers[rng.gen_range(0..n_servers)].location;
            Application::new(
                AppId(i),
                ModelKind::ResNet50,
                rng.gen_range(5.0..20.0),
                40.0,
                origin,
                0,
            )
        })
        .collect();
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// The two-site tier-1 scenario used across the core test-suite: a local
/// dirty zone and a remote green zone.
fn green_and_dirty(slo_ms: f64, green_powered_on: bool) -> PlacementProblem {
    let servers = vec![
        ServerSnapshot::new(
            0,
            0,
            ZoneId(0),
            DeviceKind::A2,
            Coordinates::new(48.14, 11.58),
        )
        .with_carbon_intensity(550.0),
        ServerSnapshot::new(
            1,
            1,
            ZoneId(1),
            DeviceKind::A2,
            Coordinates::new(46.95, 7.45),
        )
        .with_carbon_intensity(45.0)
        .with_powered_on(green_powered_on),
    ];
    let apps = vec![
        Application::new(
            AppId(0),
            ModelKind::ResNet50,
            20.0,
            slo_ms,
            Coordinates::new(48.14, 11.58),
            0,
        ),
        Application::new(
            AppId(1),
            ModelKind::ResNet50,
            12.0,
            slo_ms,
            Coordinates::new(46.95, 7.45),
            0,
        ),
    ];
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// Every tier-1-sized scenario the differential suite sweeps: the hand-built
/// two-site scenarios plus randomized instances kept under the placer's
/// `exact_size_limit`.
fn exact_path_scenarios() -> Vec<PlacementProblem> {
    let mut scenarios = vec![
        green_and_dirty(30.0, true),
        green_and_dirty(30.0, false),
        green_and_dirty(8.0, true),
    ];
    for (seed, servers, apps) in [
        (1, 3, 2),
        (2, 4, 3),
        (3, 5, 4),
        (4, 8, 5),
        (5, 6, 6),
        (6, 8, 4),
        (7, 4, 4),
        (8, 5, 8),
    ] {
        scenarios.push(random_scenario(seed, servers, apps));
    }
    scenarios
}

fn policies() -> Vec<PlacementPolicy> {
    let mut policies = PlacementPolicy::BASELINE_SET.to_vec();
    policies.push(PlacementPolicy::CarbonEnergyTradeoff { alpha: 0.3 });
    policies
}

#[test]
fn scenarios_fit_the_exact_path() {
    let limit = IncrementalPlacer::new(PlacementPolicy::CarbonAware).exact_size_limit;
    for (k, problem) in exact_path_scenarios().iter().enumerate() {
        let (apps, servers) = problem.size();
        assert!(
            apps * servers <= limit,
            "scenario {k} ({apps} apps x {servers} servers) exceeds exact_size_limit {limit}"
        );
    }
}

/// The heuristic's objective is never better than the exact optimum on the
/// same scenario and policy (it minimizes the same cost function).
#[test]
fn heuristic_cost_never_beats_exact_cost() {
    for (k, problem) in exact_path_scenarios().iter().enumerate() {
        for policy in policies() {
            let exact_placer = IncrementalPlacer::new(policy);
            let Ok(exact) = exact_placer.place(problem) else {
                continue; // stranded-app scenarios are covered elsewhere
            };
            let heuristic = IncrementalPlacer::new(policy)
                .heuristic_only()
                .place(problem)
                .expect("feasible for exact implies feasible for heuristic");
            assert!(!heuristic.exact);
            if !exact.unplaced.is_empty() || !heuristic.unplaced.is_empty() {
                continue; // objectives are not comparable with unplaced apps
            }
            let exact_obj = exact_placer
                .objective_of(problem, &exact.assignment)
                .expect("exact assignment is feasible");
            let heuristic_obj = exact_placer
                .objective_of(problem, &heuristic.assignment)
                .expect("heuristic assignment is feasible");
            assert!(
                heuristic_obj >= exact_obj - TOL,
                "scenario {k}, policy {}: heuristic {heuristic_obj} beats exact {exact_obj}",
                policy.name()
            );
        }
    }
}

/// Branch-and-bound's optimum matches the objective of the assignment the
/// exact placement path commits.
#[test]
fn exact_decision_matches_branch_and_bound_objective() {
    for (k, problem) in exact_path_scenarios().iter().enumerate() {
        for policy in policies() {
            let placer = IncrementalPlacer::new(policy);
            let Ok(decision) = placer.place(problem) else {
                continue;
            };
            if !decision.exact || !decision.unplaced.is_empty() {
                continue;
            }
            let placement_model = placer.build_model(problem);
            let milp = placer.milp_solver.solve(&placement_model.model);
            assert!(milp.has_solution(), "scenario {k}: MILP should be solvable");
            let committed = placer
                .objective_of(problem, &decision.assignment)
                .expect("committed assignment feasible");
            assert!(
                (committed - milp.objective).abs() <= TOL * committed.abs().max(1.0),
                "scenario {k}, policy {}: committed {committed} vs MILP {}",
                policy.name(),
                milp.objective
            );
        }
    }
}

/// The simplex LP relaxation lower-bounds branch-and-bound, and when the
/// relaxation is already integral the two solvers agree on the optimum.
#[test]
fn simplex_and_branch_and_bound_agree_on_integral_optima() {
    let simplex = SimplexSolver::new();
    let bb = BranchBoundSolver::new();
    let mut integral_agreements = 0usize;
    for (k, problem) in exact_path_scenarios().iter().enumerate() {
        for policy in policies() {
            let placer = IncrementalPlacer::new(policy);
            let placement_model = placer.build_model(problem);
            let model = &placement_model.model;
            let lp = simplex.solve(model);
            if lp.outcome != LpOutcome::Optimal {
                continue;
            }
            let milp = bb.solve(model);
            if !milp.has_solution() {
                continue;
            }
            // The relaxation is a lower bound on any integer solution.
            assert!(
                lp.objective <= milp.objective + TOL * milp.objective.abs().max(1.0),
                "scenario {k}, policy {}: LP bound {} above MILP {}",
                policy.name(),
                lp.objective,
                milp.objective
            );
            let integral = model
                .vars()
                .iter()
                .enumerate()
                .filter(|(_, kind)| matches!(kind, VarKind::Binary))
                .all(|(i, _)| (lp.values[i] - lp.values[i].round()).abs() <= TOL);
            if integral {
                integral_agreements += 1;
                assert!(
                    (lp.objective - milp.objective).abs() <= TOL * milp.objective.abs().max(1.0),
                    "scenario {k}, policy {}: integral LP {} disagrees with B&B {}",
                    policy.name(),
                    lp.objective,
                    milp.objective
                );
                // The integral relaxation decodes to a feasible assignment
                // with the same objective under the policy's cost function.
                let assignment = placement_model.decode(&lp.values);
                if assignment.iter().all(|a| a.is_some()) {
                    let decoded = placer
                        .objective_of(problem, &assignment)
                        .expect("integral LP assignment is feasible");
                    assert!((decoded - milp.objective).abs() <= TOL * decoded.abs().max(1.0));
                }
            }
        }
    }
    assert!(
        integral_agreements >= 10,
        "expected many integral relaxations across the scenario set, got {integral_agreements}"
    );
}

/// Generates a random boxed LP/MILP in the shape family the placement
/// models live in (finite bounds, mixed senses, a handful of rows), plus
/// negative lower bounds, negative costs and occasional loose bounds, so
/// the cold start rests columns on either bound of wide and narrow boxes.
fn random_model(rng: &mut StdRng) -> Model {
    let mut m = Model::new();
    let n_vars = rng.gen_range(1..8);
    let vars: Vec<_> = (0..n_vars)
        .map(|_| {
            if rng.gen_bool(0.5) {
                m.add_binary()
            } else {
                let lo = if rng.gen_bool(0.25) {
                    rng.gen_range(-3.0..0.0)
                } else {
                    0.0
                };
                let hi = if rng.gen_bool(0.15) {
                    lo + 100.0
                } else {
                    lo + rng.gen_range(0.5..8.0)
                };
                m.add_continuous(lo, hi)
            }
        })
        .collect();
    for &v in &vars {
        if rng.gen_bool(0.8) {
            m.set_objective_term(v, rng.gen_range(-10.0..10.0));
        }
    }
    let rows = rng.gen_range(0..6);
    for _ in 0..rows {
        let mut expr = LinearExpr::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                expr.add(v, rng.gen_range(-5.0..5.0));
            }
        }
        if expr.terms.is_empty() {
            continue;
        }
        let cmp = match rng.gen_range(0..3) {
            0 => Comparison::LessEq,
            1 => Comparison::GreaterEq,
            _ => Comparison::Equal,
        };
        // Bias right-hand sides toward feasible magnitudes.
        let rhs = rng.gen_range(-4.0..8.0);
        m.add_constraint(expr, cmp, rhs);
    }
    m
}

/// Property test: the revised simplex agrees with the dense Big-M oracle on
/// outcome and objective across randomized LP relaxations.
#[test]
fn revised_simplex_matches_dense_oracle_on_random_models() {
    let revised = SimplexSolver::new();
    let oracle = DenseSimplexSolver::new();
    let mut rng = StdRng::seed_from_u64(2024);
    let mut optimal_cases = 0usize;
    for case in 0..300 {
        let model = random_model(&mut rng);
        let a = revised.solve(&model);
        let b = oracle.solve(&model);
        assert_eq!(a.outcome, b.outcome, "case {case}: revised vs oracle");
        if a.outcome == LpOutcome::Optimal {
            optimal_cases += 1;
            let scale = b.objective.abs().max(1.0);
            assert!(
                (a.objective - b.objective).abs() <= 1e-5 * scale,
                "case {case}: revised {} vs oracle {}",
                a.objective,
                b.objective
            );
            // The revised LP point must respect the relaxation: every
            // constraint satisfied and every value inside its (relaxed)
            // bounds.  Binaries may be fractional here, so `is_feasible`
            // (which checks integrality) is deliberately not used.
            for (r, c) in model.constraints().iter().enumerate() {
                assert!(
                    c.is_satisfied(&a.values, 1e-5),
                    "case {case}: constraint {r} violated by the revised LP point"
                );
            }
            for (i, kind) in model.vars().iter().enumerate() {
                let (lo, hi) = kind.bounds();
                assert!(
                    a.values[i] >= lo - 1e-6 && a.values[i] <= hi + 1e-6,
                    "case {case}: value {} of var {i} outside [{lo}, {hi}]",
                    a.values[i]
                );
            }
        }
    }
    assert!(
        optimal_cases >= 100,
        "generator should produce many solvable LPs, got {optimal_cases}"
    );
}

/// Property test: the warm-started best-first branch-and-bound agrees with
/// the cold-start reference branch-and-bound on outcome and objective, with
/// one shared (increasingly dirty) workspace across all cases.
#[test]
fn branch_and_bound_matches_reference_oracle_on_random_models() {
    let revised = BranchBoundSolver::new();
    let oracle = ReferenceBranchBound::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut solved = 0usize;
    for case in 0..150 {
        let model = random_model(&mut rng);
        let a = revised.solve(&model);
        let b = oracle.solve(&model);
        assert_eq!(
            a.outcome, b.outcome,
            "case {case}: revised {:?} vs oracle {:?}",
            a.outcome, b.outcome
        );
        if a.has_solution() {
            solved += 1;
            let scale = b.objective.abs().max(1.0);
            assert!(
                (a.objective - b.objective).abs() <= 1e-5 * scale,
                "case {case}: revised {} vs oracle {}",
                a.objective,
                b.objective
            );
            assert!(
                model.is_feasible(&a.values, 1e-5),
                "case {case}: revised incumbent infeasible"
            );
        }
    }
    assert!(
        solved >= 50,
        "generator should produce many solvable MILPs, got {solved}"
    );
}

/// Generates a *sparse* random model in the shape family the sparse-LU
/// basis is built for: more variables and rows than [`random_model`], low
/// per-row density, small-integer coefficients (so ratio-test ties and
/// degenerate optima are common), and variables drawing their column
/// pattern from a pool smaller than the variable count — guaranteeing
/// duplicate columns, the structurally singular bases the factorization's
/// rejection path and the eta-update stability guard must survive.
fn sparse_random_model(rng: &mut StdRng) -> Model {
    let n_vars = rng.gen_range(8..36);
    let n_rows = rng.gen_range(3..18);
    let pool_size = (n_vars / 2).max(2);
    let coeffs = [-2.0, -1.0, 1.0, 2.0, 3.0];
    // Column pattern pool: sparse rows hit with small integer coefficients.
    let pool: Vec<Vec<(usize, f64)>> = (0..pool_size)
        .map(|_| {
            let mut pattern = Vec::new();
            for r in 0..n_rows {
                if rng.gen_bool(0.25) {
                    pattern.push((r, coeffs[rng.gen_range(0..coeffs.len())]));
                }
            }
            pattern
        })
        .collect();
    let mut m = Model::new();
    let mut row_exprs: Vec<LinearExpr> = vec![LinearExpr::new(); n_rows];
    for _ in 0..n_vars {
        let v = if rng.gen_bool(0.5) {
            m.add_binary()
        } else {
            m.add_continuous(0.0, rng.gen_range(1..6) as f64)
        };
        if rng.gen_bool(0.8) {
            m.set_objective_term(v, rng.gen_range(-8..9) as f64);
        }
        for &(r, a) in &pool[rng.gen_range(0..pool_size)] {
            row_exprs[r].add(v, a);
        }
    }
    for expr in row_exprs {
        if expr.terms.is_empty() {
            continue;
        }
        let cmp = match rng.gen_range(0..4) {
            0 => Comparison::GreaterEq,
            1 => Comparison::Equal,
            _ => Comparison::LessEq,
        };
        // Integer right-hand sides keep degenerate ties frequent.
        m.add_constraint(expr, cmp, rng.gen_range(-2..8) as f64);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property test: the sparse-LU revised simplex agrees with the dense
    /// Big-M oracle on outcome and objective across the sparse model
    /// family (duplicate columns, degenerate ties and all).
    #[test]
    fn sparse_lu_simplex_matches_dense_oracle(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let revised = SimplexSolver::new();
        let oracle = DenseSimplexSolver::new();
        for _ in 0..4 {
            let model = sparse_random_model(&mut rng);
            let a = revised.solve(&model);
            let b = oracle.solve(&model);
            prop_assert!(
                a.outcome == b.outcome,
                "seed {}: revised {:?} vs oracle {:?}",
                seed, a.outcome, b.outcome
            );
            if a.outcome == LpOutcome::Optimal {
                let scale = b.objective.abs().max(1.0);
                prop_assert!(
                    (a.objective - b.objective).abs() <= 1e-5 * scale,
                    "seed {}: revised {} vs oracle {}",
                    seed, a.objective, b.objective
                );
                for (r, c) in model.constraints().iter().enumerate() {
                    prop_assert!(
                        c.is_satisfied(&a.values, 1e-5),
                        "seed {}: constraint {} violated",
                        seed, r
                    );
                }
            }
        }
    }

    /// Property test: branch-and-bound agrees with the cold reference
    /// oracle across the sparse model family, and its incumbent is feasible
    /// — duplicate columns and degenerate ties under branching.
    #[test]
    fn branch_and_bound_matches_reference_oracle_on_sparse_models(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let revised = BranchBoundSolver::new();
        let oracle = ReferenceBranchBound::new();
        for _ in 0..2 {
            let model = sparse_random_model(&mut rng);
            let a = revised.solve(&model);
            let b = oracle.solve(&model);
            prop_assert_eq!(a.outcome, b.outcome);
            if a.has_solution() {
                let scale = b.objective.abs().max(1.0);
                prop_assert!(
                    (a.objective - b.objective).abs() <= 1e-5 * scale,
                    "seed {}: revised {} vs oracle {}",
                    seed, a.objective, b.objective
                );
                prop_assert!(
                    model.is_feasible(&a.values, 1e-5),
                    "seed {}: revised incumbent infeasible",
                    seed
                );
            }
        }
    }
}

/// Generates a randomized assignment-shaped placement MILP in exactly the
/// block structure the Dantzig–Wolfe path targets: per-app assignment rows,
/// per-server capacity rows with an activation variable, `x ≤ y` linking
/// rows, and optional `y = 1` pins.  Costs draw from a small integer pool
/// (degenerate ties are common) and one server is frequently an exact clone
/// of another (duplicate columns), so the decomposition's deterministic
/// tie-breaking gets differential coverage, not just its happy path.
fn block_structured_model(rng: &mut StdRng) -> Model {
    let servers = rng.gen_range(2..5usize);
    let apps = rng.gen_range(2..7usize);
    let cost_pool = [1.0, 1.0, 2.0, 3.0, 5.0];
    let activation_pool = [0.0, 1.0, 1.0, 2.0];

    // Per-server capacity / per-app demand in small integers.
    let mut capacity: Vec<f64> = (0..servers).map(|_| rng.gen_range(2..7) as f64).collect();
    let demand: Vec<f64> = (0..apps).map(|_| rng.gen_range(1..3) as f64).collect();
    let mut feasible: Vec<Vec<bool>> = (0..apps)
        .map(|_| (0..servers).map(|_| rng.gen_bool(0.8)).collect())
        .collect();
    let mut costs: Vec<Vec<f64>> = (0..apps)
        .map(|_| {
            (0..servers)
                .map(|_| cost_pool[rng.gen_range(0..cost_pool.len())])
                .collect()
        })
        .collect();
    let mut activation: Vec<f64> = (0..servers)
        .map(|_| activation_pool[rng.gen_range(0..activation_pool.len())])
        .collect();
    // Clone server 0 into server 1 often: exact duplicate columns.
    if rng.gen_bool(0.4) {
        capacity[1] = capacity[0];
        activation[1] = activation[0];
        for i in 0..apps {
            feasible[i][1] = feasible[i][0];
            costs[i][1] = costs[i][0];
        }
    }
    // Every app needs at least one candidate server.
    for row in feasible.iter_mut() {
        if !row.iter().any(|&f| f) {
            let j = rng.gen_range(0..servers);
            row[j] = true;
        }
    }

    let mut m = Model::new();
    let mut x = vec![vec![None; servers]; apps];
    for i in 0..apps {
        for j in 0..servers {
            if feasible[i][j] {
                let v = m.add_binary();
                m.set_objective_term(v, costs[i][j]);
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
    for &yv in &y {
        if rng.gen_bool(0.3) {
            m.add_constraint(LinearExpr::new().with(yv, 1.0), Comparison::Equal, 1.0);
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
        for (i, row) in x.iter().enumerate() {
            if let Some(v) = row[j] {
                expr.add(v, demand[i]);
            }
        }
        if expr.terms.is_empty() {
            continue;
        }
        expr.add(yv, -capacity[j]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property test: on randomized block-structured placement models (with
    /// frequent degenerate ties and duplicate columns), the Dantzig–Wolfe
    /// decomposition, the monolithic branch-and-bound and the dense
    /// reference oracle agree on outcome and objective within 1e-6, the
    /// decomposition's incumbent is feasible for the *original* model
    /// (linking rows included), and repeated decomposition solves are
    /// bit-identical.
    #[test]
    fn decomposition_matches_monolithic_and_reference_on_block_models(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut decomp = BranchBoundSolver::new();
        decomp.decomp_min_vars = 0;
        let mut monolithic = BranchBoundSolver::new();
        monolithic.decomp_min_vars = usize::MAX;
        let oracle = ReferenceBranchBound::new();
        for _ in 0..3 {
            let model = block_structured_model(&mut rng);
            prop_assert!(
                BlockStructure::detect(&model).is_some(),
                "seed {}: generator left the detectable shape",
                seed
            );
            let d = decomp.solve(&model);
            let m = monolithic.solve(&model);
            let r = oracle.solve(&model);
            prop_assert!(
                d.decomp.is_some(),
                "seed {}: decomposition path did not run",
                seed
            );
            prop_assert_eq!(d.has_solution(), m.has_solution());
            prop_assert_eq!(d.has_solution(), r.has_solution());
            if d.has_solution() {
                let scale = r.objective.abs().max(1.0);
                prop_assert!(
                    (d.objective - m.objective).abs() <= 1e-6 * scale,
                    "seed {}: decomposition {} vs monolithic {}",
                    seed, d.objective, m.objective
                );
                prop_assert!(
                    (d.objective - r.objective).abs() <= 1e-6 * scale,
                    "seed {}: decomposition {} vs reference {}",
                    seed, d.objective, r.objective
                );
                prop_assert!(
                    model.is_feasible(&d.values, 1e-5),
                    "seed {}: decomposition incumbent violates the full model",
                    seed
                );
                // Determinism: a fresh decomposition solver reproduces the
                // incumbent bit-for-bit.
                let mut fresh = BranchBoundSolver::new();
                fresh.decomp_min_vars = 0;
                let again = fresh.solve(&model);
                prop_assert_eq!(again.objective, d.objective);
                prop_assert_eq!(again.values, d.values);
            }
        }
    }

    /// Property test: a *warm* decomposition solver fed a stream of
    /// cost-shifted variants of one block structure (the epoch re-solve
    /// pattern) agrees with a cold solver on every step.
    #[test]
    fn warm_decomposition_stream_matches_cold_solves(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = block_structured_model(&mut rng);
        prop_assume!(BlockStructure::detect(&base).is_some());
        let mut warm = BranchBoundSolver::new();
        warm.decomp_min_vars = 0;
        for step in 0..4 {
            let mut shifted = base.clone();
            let terms: Vec<_> = shifted
                .objective()
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != 0.0)
                .map(|(j, c)| (VarId(j), *c))
                .collect();
            for (k, (v, c)) in terms.into_iter().enumerate() {
                let bump = ((k + step) % 5) as f64 * 0.25;
                shifted.set_objective_term(v, c + bump);
            }
            let mut cold = BranchBoundSolver::new();
            cold.decomp_min_vars = 0;
            let w = warm.solve(&shifted);
            let c = cold.solve(&shifted);
            prop_assert_eq!(w.has_solution(), c.has_solution());
            if w.has_solution() {
                let scale = c.objective.abs().max(1.0);
                prop_assert!(
                    (w.objective - c.objective).abs() <= 1e-6 * scale,
                    "seed {} step {}: warm {} vs cold {}",
                    seed, step, w.objective, c.objective
                );
                prop_assert!(shifted.is_feasible(&w.values, 1e-5));
            }
        }
    }
}

/// Both routes a model of ≥256 variables can take.  The default solver
/// sends a block-structured placement to the decomposition path, and a
/// solver with decomposition disabled must find the same objective by
/// monolithic search.  The same placement plus one `≥` row falls outside
/// the block shape, so the default solver searches it monolithically and
/// must match the reference oracle.
#[test]
fn large_models_take_decomposition_or_monolithic_search() {
    // 32 apps x 10 servers, all pairs feasible: 330 binaries, above the
    // decomposition gate (256).
    let apps = 32usize;
    let servers = 10usize;
    let mut m = Model::new();
    let mut x = vec![vec![None; servers]; apps];
    for (i, row) in x.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let v = m.add_binary();
            // Deterministic varied costs with frequent ties.
            m.set_objective_term(v, 1.0 + ((i * 7 + j * 13) % 9) as f64);
            *cell = Some(v);
        }
    }
    let y: Vec<_> = (0..servers)
        .map(|j| {
            let v = m.add_binary();
            m.set_objective_term(v, ((j % 3) + 1) as f64);
            v
        })
        .collect();
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
                expr.add(v, 1.0);
            }
        }
        expr.add(yv, -4.0);
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
    assert!(
        m.num_vars() >= 256,
        "model must clear the decomposition gate"
    );
    assert!(BlockStructure::detect(&m).is_some());

    // Default solver: decomposition auto-routes (≥ DECOMP_MIN_VARS).
    let auto = BranchBoundSolver::new().solve(&m);
    assert!(auto.has_solution(), "large placement must be solvable");
    assert!(
        auto.decomp.is_some(),
        "≥256-var block-structured model must take the decomposition path"
    );
    assert!(m.is_feasible(&auto.values, 1e-5));

    // Forced monolithic search on the same model.
    let mut mono = BranchBoundSolver::new();
    mono.decomp_min_vars = usize::MAX;
    let full = mono.solve(&m);
    assert!(full.has_solution());
    assert_eq!(full.decomp, None);
    assert!(m.is_feasible(&full.values, 1e-5));
    let scale = full.objective.abs().max(1.0);
    assert!(
        (auto.objective - full.objective).abs() <= 1e-6 * scale,
        "decomposition {} vs monolithic {}",
        auto.objective,
        full.objective
    );

    // Fill server 4 to its capacity of 4 apps: a `≥` row the block
    // detection rejects, so the default solver takes monolithic search at
    // ≥256 variables.  The row binds (it raises the optimum), so the
    // search has to branch.
    let mut off_block = m.clone();
    let mut expr = LinearExpr::new();
    for v in x.iter().filter_map(|row| row[4]) {
        expr.add(v, 1.0);
    }
    off_block.add_constraint(expr, Comparison::GreaterEq, 4.0);
    assert!(BlockStructure::detect(&off_block).is_none());
    let searched = BranchBoundSolver::new().solve(&off_block);
    assert!(searched.has_solution(), "off-block model must be solvable");
    assert_eq!(searched.decomp, None);
    assert!(off_block.is_feasible(&searched.values, 1e-5));
    assert!(
        searched.objective > auto.objective + 0.5,
        "the `≥` row must bind"
    );
    let oracle = ReferenceBranchBound::new().solve(&off_block);
    assert!(oracle.has_solution());
    let scale = oracle.objective.abs().max(1.0);
    assert!(
        (searched.objective - oracle.objective).abs() <= 1e-6 * scale,
        "monolithic {} vs reference {}",
        searched.objective,
        oracle.objective
    );
}

/// Hand-built singular-basis and degenerate-optimum cases: exact duplicate
/// columns (a structurally singular basis candidate the factorization must
/// reject) and fully degenerate ratio-test ties, checked against the dense
/// oracle.
#[test]
fn duplicate_columns_and_degenerate_ties_match_the_oracle() {
    let revised = SimplexSolver::new();
    let oracle = DenseSimplexSolver::new();

    // Two identical columns competing for the basis.
    let mut twins = Model::new();
    let x1 = twins.add_continuous(0.0, 5.0);
    let x2 = twins.add_continuous(0.0, 5.0);
    let x3 = twins.add_continuous(0.0, 5.0);
    twins.set_objective_term(x1, -1.0);
    twins.set_objective_term(x2, -1.0);
    twins.set_objective_term(x3, -2.0);
    twins.add_constraint(
        LinearExpr::new().with(x1, 1.0).with(x2, 1.0).with(x3, 1.0),
        Comparison::LessEq,
        4.0,
    );
    twins.add_constraint(
        LinearExpr::new().with(x1, 2.0).with(x2, 2.0).with(x3, 1.0),
        Comparison::LessEq,
        6.0,
    );

    // A fully degenerate vertex: every ratio ties at zero.
    let mut degen = Model::new();
    let y1 = degen.add_continuous(0.0, 10.0);
    let y2 = degen.add_continuous(0.0, 10.0);
    degen.set_objective_term(y1, -1.0);
    degen.set_objective_term(y2, -1.0);
    for coef in [1.0, 2.0, 3.0] {
        degen.add_constraint(
            LinearExpr::new().with(y1, coef).with(y2, -1.0),
            Comparison::LessEq,
            0.0,
        );
    }
    degen.add_constraint(
        LinearExpr::new().with(y1, 1.0).with(y2, 1.0),
        Comparison::LessEq,
        3.0,
    );

    for (name, model) in [("twins", twins), ("degenerate", degen)] {
        let a = revised.solve(&model);
        let b = oracle.solve(&model);
        assert_eq!(a.outcome, b.outcome, "{name}");
        assert_eq!(a.outcome, LpOutcome::Optimal, "{name}");
        assert!(
            (a.objective - b.objective).abs() <= 1e-6 * b.objective.abs().max(1.0),
            "{name}: revised {} vs oracle {}",
            a.objective,
            b.objective
        );
    }
}

/// Warm-start-equals-cold-start: a single placer (whose solver workspace
/// stays warm across calls) must commit exactly the decision a fresh placer
/// commits, on every exact-path scenario and policy.
#[test]
fn warm_started_placer_matches_cold_started_placer_on_every_scenario() {
    for policy in policies() {
        // One shared placer; its milp workspace carries over between
        // scenarios and between repeated calls.
        let warm_placer = IncrementalPlacer::new(policy);
        for (k, problem) in exact_path_scenarios().iter().enumerate() {
            let cold_placer = IncrementalPlacer::new(policy);
            let cold = cold_placer.place(problem);
            let warm = warm_placer.place(problem);
            match (cold, warm) {
                (Ok(cold), Ok(warm)) => {
                    assert_eq!(
                        cold.assignment,
                        warm.assignment,
                        "scenario {k}, policy {}: warm and cold assignments differ",
                        policy.name()
                    );
                    assert_eq!(cold.exact, warm.exact);
                    // Re-solving the identical problem on the warm workspace
                    // must also be a fixed point.
                    let again = warm_placer.place(problem).expect("re-solve succeeds");
                    assert_eq!(warm.assignment, again.assignment);
                    assert!((warm.total_carbon_g - again.total_carbon_g).abs() < 1e-9);
                }
                (Err(cold_err), Err(warm_err)) => assert_eq!(cold_err, warm_err),
                (cold, warm) => panic!(
                    "scenario {k}, policy {}: cold {cold:?} vs warm {warm:?} diverge",
                    policy.name()
                ),
            }
        }
    }
}

/// Warm-start-equals-cold-start at the MILP layer: solving every scenario's
/// model twice through one solver (second solve warm) matches a fresh
/// solver's answer bit-for-bit in outcome and assignment decode.
#[test]
fn warm_milp_resolve_is_a_fixed_point_on_every_scenario() {
    let shared = BranchBoundSolver::new();
    for (k, problem) in exact_path_scenarios().iter().enumerate() {
        for policy in policies() {
            let placer = IncrementalPlacer::new(policy);
            let placement_model = placer.build_model(problem);
            let fresh = BranchBoundSolver::new().solve(&placement_model.model);
            let first = shared.solve(&placement_model.model);
            let second = shared.solve(&placement_model.model);
            assert_eq!(
                fresh.outcome,
                first.outcome,
                "scenario {k}, policy {}",
                policy.name()
            );
            assert_eq!(first.outcome, second.outcome);
            if fresh.has_solution() {
                let scale = fresh.objective.abs().max(1.0);
                assert!((first.objective - fresh.objective).abs() <= TOL * scale);
                assert!(
                    (second.objective - first.objective).abs() <= TOL * scale,
                    "scenario {k}, policy {}: warm re-solve drifted ({} vs {})",
                    policy.name(),
                    second.objective,
                    first.objective
                );
                assert_eq!(
                    placement_model.decode(&first.values),
                    placement_model.decode(&second.values),
                    "scenario {k}, policy {}: warm re-solve changed the assignment",
                    policy.name()
                );
                // When the search is a single (integral-root) node, the warm
                // re-solve restarts from the resident optimal basis and must
                // need no pivots at all.  (With branching, the different
                // starting bases can reshape the tree, so total pivots are
                // not comparable.)
                if first.nodes == 1 && second.nodes == 1 {
                    assert_eq!(
                        second.pivots,
                        0,
                        "scenario {k}, policy {}: warm single-node re-solve pivoted",
                        policy.name()
                    );
                }
            }
        }
    }
}
