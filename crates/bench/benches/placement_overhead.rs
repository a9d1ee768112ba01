//! Section 6.5: per-request placement decision overhead on a regional edge
//! deployment (the paper reports ~3.3 ms per placement decision), plus the
//! radius analysis used by the motivation study.

use carbonedge_analysis::RadiusAnalysis;
use carbonedge_bench::bench_json::regional_problem;
use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_datasets::{EdgeSiteCatalog, StudyRegion, ZoneCatalog};
use carbonedge_net::LatencyModel;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_decision_overhead(c: &mut Criterion) {
    // One ResNet50 application (15 rps, 20 ms SLO) at the first Florida
    // site, priced at hour 5000: the `BENCH_solver.json` instance.
    let problem = regional_problem(StudyRegion::Florida, 5000, 15.0, 1, 1);
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
    let mut group = c.benchmark_group("placement_overhead");
    group.sample_size(20);
    group.bench_function("single_app_regional_decision", |b| {
        b.iter(|| placer.place(&problem).unwrap())
    });
    group.finish();
}

fn bench_radius_analysis(c: &mut Criterion) {
    let catalog = ZoneCatalog::worldwide();
    let sites = EdgeSiteCatalog::akamai_like(&catalog);
    let traces = catalog.generate_traces(42);
    let model = LatencyModel::deterministic();
    let mut group = c.benchmark_group("radius_analysis");
    group.sample_size(10);
    group.bench_function("radius_500km_all_sites", |b| {
        b.iter(|| RadiusAnalysis::run(&sites, &traces, &model, 500.0))
    });
    group.finish();
}

criterion_group!(benches, bench_decision_overhead, bench_radius_analysis);
criterion_main!(benches);
