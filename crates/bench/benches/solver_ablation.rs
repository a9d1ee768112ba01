//! Ablation: exact branch-and-bound MILP versus the assignment heuristic on
//! testbed-sized placement instances (the solver-choice ablation called out
//! in DESIGN.md), plus the revised-vs-reference exact-solver comparison
//! whose medians `BENCH_solver.json` snapshots.

use carbonedge_bench::bench_json::{regional_problem, scale_problem};
use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_datasets::StudyRegion;
use carbonedge_solver::ReferenceBranchBound;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_exact_vs_heuristic(c: &mut Criterion) {
    // One ResNet50 application (10 rps, 20 ms SLO) at every Central-EU
    // site, priced at hour 4000; the instances are `bench_json`'s, so the
    // criterion trend lines and the JSON snapshot measure the same models.
    let problem = regional_problem(StudyRegion::CentralEu, 4000, 10.0, usize::MAX, 1);
    let exact = IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(1_000);
    let heuristic = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();

    // Both paths must agree on the objective for this instance.
    let a = exact.place(&problem).unwrap();
    let b = heuristic.place(&problem).unwrap();
    assert!((a.total_carbon_g - b.total_carbon_g).abs() / a.total_carbon_g < 0.05);

    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    group.bench_function("exact_milp_5x5", |bench| {
        bench.iter(|| exact.place(&problem).unwrap())
    });
    // The pre-rewrite dense Big-M cold-start stack on the identical MILP:
    // the "before" side of the solver overhaul.
    let reference = ReferenceBranchBound::with_node_limit(20_000);
    group.bench_function("exact_reference_5x5", |bench| {
        bench.iter(|| {
            let model = exact.build_model(&problem);
            reference.solve(&model.model)
        })
    });
    group.bench_function("heuristic_5x5", |bench| {
        bench.iter(|| heuristic.place(&problem).unwrap())
    });
    let larger = regional_problem(StudyRegion::CentralEu, 4000, 10.0, usize::MAX, 6);
    group.bench_function("heuristic_30x5", |bench| {
        bench.iter(|| heuristic.place(&larger).unwrap())
    });
    group.finish();
}

fn bench_scale_corridor(c: &mut Criterion) {
    let scale_exact =
        IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(100_000);
    let mut group = c.benchmark_group("solver_scale");
    group.sample_size(10);
    // Cold solves: discarding the warm start each iteration times the
    // decomposition + sparse-LU + branch-and-bound stack rather than the
    // workspace's same-model memoization.
    for (label, problem) in [
        ("exact_60x15", scale_problem(15, 4)),
        ("exact_200x50", scale_problem(50, 4)),
        ("exact_400x100", scale_problem(100, 4)),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                scale_exact.milp_solver.discard_warm_start();
                scale_exact.place(&problem).unwrap()
            })
        });
    }
    // Decomposition versus forced-monolithic on the identical corridor
    // instances: the race the Dantzig-Wolfe path has to win.  The automatic
    // path (above) picks decomposition at these sizes; this arm disables it
    // and runs monolithic branch-and-bound on the full model.
    let mut monolithic =
        IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(100_000);
    monolithic.milp_solver.decomp_min_vars = usize::MAX;
    for (label, problem) in [
        ("monolithic_200x50", scale_problem(50, 4)),
        ("monolithic_400x100", scale_problem(100, 4)),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                monolithic.milp_solver.discard_warm_start();
                monolithic.place(&problem).unwrap()
            })
        });
    }
    // The dense Big-M reference on the small corridor only: at 200x50 its
    // dense tableau pays O(m^2) per pivot (~150 ms per solve), which is the
    // comparison BENCH_solver.json snapshots at a reduced sample count.
    let small = scale_problem(15, 4);
    let reference = ReferenceBranchBound::with_node_limit(20_000);
    group.bench_function("reference_60x15", |bench| {
        bench.iter(|| {
            let model = scale_exact.build_model(&small);
            reference.solve(&model.model)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exact_vs_heuristic, bench_scale_corridor);
criterion_main!(benches);
