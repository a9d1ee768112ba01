//! Ablation: exact branch-and-bound MILP versus the assignment heuristic on
//! testbed-sized placement instances (the solver-choice ablation called out
//! in DESIGN.md), plus the revised-vs-reference exact-solver comparison
//! whose medians `BENCH_solver.json` snapshots.

use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_geo::Coordinates;
use carbonedge_grid::{HourOfYear, ZoneId};
use carbonedge_net::LatencyModel;
use carbonedge_solver::ReferenceBranchBound;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, ResourceDemand};
use criterion::{criterion_group, criterion_main, Criterion};

fn regional_problem(apps_per_site: usize) -> PlacementProblem {
    let catalog = ZoneCatalog::worldwide();
    let region = MesoscaleRegion::resolve(StudyRegion::CentralEu, &catalog);
    let traces = catalog.generate_traces(42);
    let now = HourOfYear::new(4000);
    let servers: Vec<ServerSnapshot> = region
        .zones
        .iter()
        .zip(region.members.iter())
        .enumerate()
        .map(|(site, (zone, (_, loc)))| {
            ServerSnapshot::new(site, site, *zone, DeviceKind::A2, *loc)
                .with_carbon_intensity(traces[zone.index()].at(now))
        })
        .collect();
    let mut apps = Vec::new();
    for (_, loc) in &region.members {
        for _ in 0..apps_per_site {
            apps.push(Application::new(
                AppId(apps.len()),
                ModelKind::ResNet50,
                10.0,
                20.0,
                *loc,
                0,
            ));
        }
    }
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// The SLO-sparse corridor instance of the `solver_scale` snapshot cases:
/// one A2 server per site along the equator (150 km spacing), four ResNet50
/// applications arriving per site, and a 10 ms round-trip SLO that admits at
/// most the two neighbouring sites on either side.  Mirrors
/// `bench_json::scale_problem` so the criterion trend lines and the JSON
/// snapshot measure the same instances.
fn scale_problem(n_sites: usize, apps_per_site: usize) -> PlacementProblem {
    const SITE_SPACING_KM: f64 = 150.0;
    const EARTH_KM_PER_DEG: f64 = 111.195;
    let lon_step = SITE_SPACING_KM / EARTH_KM_PER_DEG;
    let servers: Vec<ServerSnapshot> = (0..n_sites)
        .map(|site| {
            let loc = Coordinates::new(0.0, site as f64 * lon_step);
            let intensity = 80.0 + ((site * 97) % 18) as f64 * 45.0;
            ServerSnapshot::new(site, site, ZoneId(site), DeviceKind::A2, loc)
                .with_carbon_intensity(intensity)
                .with_available(ResourceDemand::new(1280.0, 6.0 * 350.0, 1000.0))
        })
        .collect();
    let apps: Vec<Application> = (0..n_sites * apps_per_site)
        .map(|i| {
            let site = i / apps_per_site;
            Application::new(
                AppId(i),
                ModelKind::ResNet50,
                10.0,
                10.0,
                servers[site].location,
                site,
            )
        })
        .collect();
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

fn bench_exact_vs_heuristic(c: &mut Criterion) {
    let problem = regional_problem(1);
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
    let larger = regional_problem(6);
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
