//! Machine-readable performance snapshots (`BENCH_solver.json`,
//! `BENCH_sweep.json`, `BENCH_serving.json`) behind
//! `experiments --bench-json <dir>`.
//!
//! The solver snapshot measures the median wall time of one placement
//! decision on the paper's regional instances (Section 6.5 reports ~3.3 ms
//! with OR-Tools) through four paths: the **automatic** exact path (the
//! branch-and-bound front door, which routes large block-structured models
//! through Dantzig–Wolfe decomposition and everything else through the
//! monolithic bounded-variable revised simplex), the **forced-monolithic**
//! exact path (decomposition disabled, so the race between the two is
//! explicit per case), the retained **reference** exact path (dense Big-M
//! tableau, cold-start branch-and-bound) and the assignment **heuristic**.
//! Every case emits one unified field set — sizes, medians with their
//! sample counts, speedups, branch-and-bound/simplex/factorization work,
//! the pricing anti-cycling ladder (devex resets, Bland fallback
//! activations) and the column-generation counters (`columns_generated`,
//! `pricing_rounds`, `master_pivots`, zero on monolithic solves) — so
//! trajectory tooling never special-cases entries.  The `solver_scale`
//! cases stretch the comparison to SLO-sparse corridor instances of up to
//! 800 applications × 100 servers (thousands of MILP rows); the dense
//! reference is impractical beyond 200×50 and is skipped there
//! (`reference_samples: 0`).
//!
//! The sweep snapshot measures cells/second of the quick scenario grid at
//! `--jobs 1` and `--jobs 0` (one worker per CPU; the auto measurement is
//! skipped when only one CPU is detected, because it would duplicate
//! `jobs_1`).
//!
//! The serving snapshot measures the batched event-level engine: a
//! year-long event-level run timed against the identical aggregate-mode run
//! in alternating pairs, and the stream-hour batches per second per core
//! each pair's difference implies, as a median with its fastest and slowest
//! pair.
//!
//! The JSON is hand-rendered (the workspace has no serialization library);
//! every field is a plain number or string, so any downstream tooling can
//! parse the snapshots without schema knowledge.

use carbonedge_core::{
    IncrementalPlacer, MigrationCostLevel, PlacementPolicy, PlacementProblem, ServerSnapshot,
};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{MesoscaleRegion, StudyRegion, ZoneCatalog};
use carbonedge_geo::Coordinates;
use carbonedge_grid::{HourOfYear, ZoneId};
use carbonedge_net::LatencyModel;
use carbonedge_sim::cdn::{CdnConfig, CdnSimulator};
use carbonedge_sim::ServingMode;
use carbonedge_solver::ReferenceBranchBound;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, ResourceDemand};
use std::time::Instant;

/// One measured placement instance.
struct SolverCase {
    name: &'static str,
    problem: PlacementProblem,
}

/// Builds a regional placement instance: one A2 server per mesoscale site
/// of `region`, priced at its zone's seed-42 reading at `hour`, and
/// `apps_per_site` ResNet50 applications (20 ms SLO, `rate_rps` each) at
/// each of the first `app_sites` sites.
fn regional_problem(
    region: StudyRegion,
    hour: usize,
    rate_rps: f64,
    app_sites: usize,
    apps_per_site: usize,
) -> PlacementProblem {
    let catalog = ZoneCatalog::worldwide();
    let region = MesoscaleRegion::resolve(region, &catalog);
    let traces = catalog.traces(42);
    let now = HourOfYear::new(hour);
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
    let apps: Vec<Application> = region
        .members
        .iter()
        .take(app_sites)
        .flat_map(|(_, loc)| std::iter::repeat_n(*loc, apps_per_site))
        .enumerate()
        .map(|(i, loc)| Application::new(AppId(i), ModelKind::ResNet50, rate_rps, 20.0, loc, 0))
        .collect();
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// Builds a corridor-scale instance for the `solver_scale` cases: one A2
/// server per site, sites strung 150 km apart along the equator, and
/// `apps_per_site` identical ResNet50 applications arriving at every site.
///
/// Under the deterministic latency model the round trip is
/// `3 ms + 0.018 ms/km × distance`, so the 10 ms SLO admits only servers
/// within ~390 km — the two neighbouring sites on either side.  The MILP
/// therefore stays SLO-sparse (≤5 feasible servers per application) no
/// matter how long the corridor grows, which is what lets the dense
/// reference solver remain runnable at 200×50 while the instance still
/// scales the constraint count into the thousands.  Memory sized for six
/// model images per server keeps capacity genuinely binding: with four
/// local applications per site, chasing a low-carbon neighbour competes
/// with its own arrivals.
fn scale_problem(n_sites: usize, apps_per_site: usize) -> PlacementProblem {
    scale_problem_with_slots(n_sites, apps_per_site, 6)
}

/// [`scale_problem`] with an explicit per-server memory-slot count: the
/// densest corridor case (eight local applications per site) needs twelve
/// slots per server to stay globally feasible while capacity remains
/// binding.
fn scale_problem_with_slots(
    n_sites: usize,
    apps_per_site: usize,
    slots: usize,
) -> PlacementProblem {
    const SITE_SPACING_KM: f64 = 150.0;
    const EARTH_KM_PER_DEG: f64 = 111.195;
    const SLO_MS: f64 = 10.0;
    let lon_step = SITE_SPACING_KM / EARTH_KM_PER_DEG;
    let servers: Vec<ServerSnapshot> = (0..n_sites)
        .map(|site| {
            let loc = Coordinates::new(0.0, site as f64 * lon_step);
            // Deterministic pseudo-random intensities spread over
            // 80..845 g/kWh so neighbouring sites genuinely compete.
            let intensity = 80.0 + ((site * 97) % 18) as f64 * 45.0;
            ServerSnapshot::new(site, site, ZoneId(site), DeviceKind::A2, loc)
                .with_carbon_intensity(intensity)
                .with_available(ResourceDemand::new(
                    slots as f64 * 1280.0 / 6.0,
                    slots as f64 * 350.0,
                    slots as f64 * 1000.0 / 6.0,
                ))
        })
        .collect();
    let apps: Vec<Application> = (0..n_sites * apps_per_site)
        .map(|i| {
            let site = i / apps_per_site;
            Application::new(
                AppId(i),
                ModelKind::ResNet50,
                10.0,
                SLO_MS,
                servers[site].location,
                site,
            )
        })
        .collect();
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// Median wall time of `f` over `samples` runs, in nanoseconds.
fn median_ns<F: FnMut()>(samples: usize, f: F) -> u64 {
    let times = sorted_ns(samples, f);
    times[times.len() / 2]
}

/// The wall time of each of `samples` calls of `f` (at least one), in
/// nanoseconds, ascending.
fn sorted_ns<F: FnMut()>(samples: usize, mut f: F) -> Vec<u64> {
    let mut times: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times
}

/// Per-case measurement protocol for [`solver_case_entry`].
struct CaseConfig {
    /// Samples for the automatic, forced-monolithic and heuristic paths.
    revised_samples: usize,
    /// Samples for the dense Big-M reference path; `0` skips it entirely
    /// (the corridor cases beyond 200×50, where dense O(m²)-per-pivot work
    /// is impractical) and reports zeroed reference fields.
    reference_samples: usize,
}

/// Measures one placement instance through every solver path and renders
/// the **unified** case schema: the automatic exact path (decomposition at
/// ≥ `BranchBoundSolver::DECOMP_MIN_VARS` variables on block-structured
/// models, monolithic below), the forced-monolithic path racing it, the
/// dense reference oracle (optional) and the assignment heuristic, plus the
/// branch-and-bound / simplex / factorization / pricing-ladder /
/// column-generation counters of one cold automatic solve on a fresh
/// workspace.  Every timed sample decides on a fresh placer (a clone keeps
/// the settings and nothing else), so each arm times a cold decision: no
/// memoized result, resident basis or resident deployment carries over from
/// the sample before.  The warm steady state is measured by the re-plan
/// cases (`replan_entry`).  On models below the decomposition threshold the
/// two exact paths coincide, so `speedup_vs_monolithic` hovers around 1 and
/// the column-generation counters are zero — the schema stays identical
/// either way.
fn solver_case_entry(name: &str, problem: &PlacementProblem, cfg: &CaseConfig) -> String {
    let (apps, servers) = problem.size();
    // `place()` only takes the exact path while `apps * servers` stays
    // under the limit; the 400x100 / 800x100 corridor cases sit at 40k and
    // 80k, so the limit must clear them or the medians silently time the
    // heuristic fallback on both arms.
    let exact = IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(100_000);
    let mut monolithic =
        IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(100_000);
    monolithic.milp_solver.decomp_min_vars = usize::MAX;
    let heuristic = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();

    // The automatic exact path, as the placement service runs it.
    let revised_ns = median_ns(cfg.revised_samples, || {
        let _ = exact.clone().place(problem).unwrap();
    });
    // The same protocol with decomposition disabled: the race the
    // decomposition path has to win at corridor scale.
    let monolithic_ns = median_ns(cfg.revised_samples, || {
        let _ = monolithic.clone().place(problem).unwrap();
    });
    let heuristic_ns = median_ns(cfg.revised_samples, || {
        let _ = heuristic.clone().place(problem).unwrap();
    });
    // The retained dense Big-M reference path on the identical MILP.
    let placement_model = exact.build_model(problem);
    let reference_solver = ReferenceBranchBound::with_node_limit(20_000);
    let reference_ns = if cfg.reference_samples > 0 {
        median_ns(cfg.reference_samples, || {
            let model = exact.clone().build_model(problem);
            let _ = reference_solver.solve(&model.model);
        })
    } else {
        0
    };

    // Algorithmic work of the exact paths on the same model: a fresh
    // workspace gives the cold-start counters, a second solve on the
    // now-warm workspace gives the steady-state (re-optimization) count.
    let cold_solver = exact.milp_solver.clone();
    let revised_stats = cold_solver.solve(&placement_model.model);
    let revised_warm_stats = cold_solver.solve(&placement_model.model);
    let mono_solver = monolithic.milp_solver.clone();
    let mono_stats = mono_solver.solve(&placement_model.model);
    assert!(
        (revised_stats.objective - mono_stats.objective).abs()
            <= 1e-6 * revised_stats.objective.abs().max(1.0),
        "automatic and forced-monolithic solvers disagree on the benchmark model"
    );
    let (reference_nodes, reference_pivots) = if cfg.reference_samples > 0 {
        let reference_stats = reference_solver.solve(&placement_model.model);
        assert!(
            (revised_stats.objective - reference_stats.objective).abs()
                <= 1e-6 * revised_stats.objective.abs().max(1.0),
            "revised and reference solvers disagree on the benchmark model"
        );
        (reference_stats.nodes, reference_stats.pivots)
    } else {
        (0, 0)
    };

    let decomp = revised_stats.decomp.unwrap_or_default();
    let speedup_vs_monolithic = monolithic_ns as f64 / revised_ns.max(1) as f64;
    let speedup_vs_reference = reference_ns as f64 / revised_ns.max(1) as f64;
    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"apps\": {},\n",
            "      \"servers\": {},\n",
            "      \"milp_vars\": {},\n",
            "      \"milp_rows\": {},\n",
            "      \"exact_revised_ns_median\": {},\n",
            "      \"exact_monolithic_ns_median\": {},\n",
            "      \"speedup_vs_monolithic\": {:.2},\n",
            "      \"exact_reference_ns_median\": {},\n",
            "      \"samples\": {},\n",
            "      \"reference_samples\": {},\n",
            "      \"speedup_vs_reference\": {:.2},\n",
            "      \"heuristic_ns_median\": {},\n",
            "      \"bb_nodes\": {},\n",
            "      \"simplex_pivots_cold\": {},\n",
            "      \"simplex_pivots_warm\": {},\n",
            "      \"refactorizations\": {},\n",
            "      \"peak_eta_len\": {},\n",
            "      \"fill_in_ratio\": {:.3},\n",
            "      \"devex_resets\": {},\n",
            "      \"bland_activations\": {},\n",
            "      \"columns_generated\": {},\n",
            "      \"pricing_rounds\": {},\n",
            "      \"master_pivots\": {},\n",
            "      \"reference_bb_nodes\": {},\n",
            "      \"reference_simplex_pivots\": {}\n",
            "    }}"
        ),
        name,
        apps,
        servers,
        placement_model.model.num_vars(),
        placement_model.model.num_constraints(),
        revised_ns,
        monolithic_ns,
        speedup_vs_monolithic,
        reference_ns,
        cfg.revised_samples,
        cfg.reference_samples,
        speedup_vs_reference,
        heuristic_ns,
        revised_stats.nodes,
        revised_stats.pivots,
        revised_warm_stats.pivots,
        revised_stats.factor.refactorizations,
        revised_stats.factor.peak_eta_len,
        revised_stats.factor.fill_in_ratio,
        revised_stats.pricing.devex_resets,
        revised_stats.pricing.bland_activations,
        decomp.columns_generated,
        decomp.pricing_rounds,
        decomp.master_pivots,
        reference_nodes,
        reference_pivots,
    )
}

/// Renders the solver snapshot.  `quick` reduces the sample count.
pub fn solver_bench_json(quick: bool) -> String {
    let samples = if quick { 11 } else { 31 };
    let small = CaseConfig {
        revised_samples: samples,
        reference_samples: samples,
    };
    let scale = CaseConfig {
        revised_samples: if quick { 3 } else { 7 },
        reference_samples: if quick { 1 } else { 3 },
    };
    // The dense reference pays O(m²) per pivot on the full model; beyond
    // 200×50 it is impractical and the corridor cases race the
    // decomposition against the monolithic cold path only.
    let scale_no_reference = CaseConfig {
        reference_samples: 0,
        ..scale
    };

    // The `placement_overhead/` and `solver_ablation/` prefixes stay so
    // that committed snapshots remain comparable.
    let cases = [
        // One application against the Florida sites: the per-request
        // decision overhead of Section 6.5.
        SolverCase {
            name: "placement_overhead/single_app_regional_decision",
            problem: regional_problem(StudyRegion::Florida, 5000, 15.0, 1, 1),
        },
        // One application per Central-EU site: exact against heuristic on a
        // testbed-sized MILP.
        SolverCase {
            name: "solver_ablation/exact_milp_5x5",
            problem: regional_problem(StudyRegion::CentralEu, 4000, 10.0, usize::MAX, 1),
        },
    ];

    let mut entries = Vec::new();
    for case in &cases {
        entries.push(solver_case_entry(case.name, &case.problem, &small));
    }

    let scale_cases = [
        ("solver_scale/exact_60x15", scale_problem(15, 4), &scale),
        ("solver_scale/exact_120x30", scale_problem(30, 4), &scale),
        ("solver_scale/exact_200x50", scale_problem(50, 4), &scale),
        (
            "solver_scale/exact_400x100",
            scale_problem(100, 4),
            &scale_no_reference,
        ),
        (
            "solver_scale/exact_800x100",
            scale_problem_with_slots(100, 8, 12),
            &scale_no_reference,
        ),
    ];
    for (name, problem, cfg) in &scale_cases {
        entries.push(solver_case_entry(name, problem, cfg));
    }

    entries.push(replan_entry(
        "epoch_replan/monthly_eu_3site_exact",
        MigrationCostLevel::Free,
        samples,
    ));
    entries.push(replan_entry(
        "migration_replan/monthly_eu_3site_exact_paper",
        MigrationCostLevel::Paper,
        samples,
    ));

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"solver\",\n",
            "  \"unit\": \"ns\",\n",
            "  \"cases\": [\n{}\n  ]\n",
            "}}\n"
        ),
        entries.join(",\n")
    )
}

/// Measures epoch-to-epoch re-placement through the warm-started exact
/// path: a small European deployment re-solved at every monthly epoch as
/// carbon intensities shift, charging `migration` per move.  Migration
/// terms are folded into the objective coefficients, so consecutive epochs
/// build structurally identical MILPs whose costs change, and each re-solve
/// restarts primal phase-2 from the previous basis instead of
/// cold-starting.  The pivot counts come from the placer's
/// accumulated-pivot counter via `CdnResult::solver_pivots`.
fn replan_entry(name: &str, migration: MigrationCostLevel, samples: usize) -> String {
    let mut config = CdnConfig::new(ZoneArea::Europe)
        .with_site_limit(3)
        .with_migration(migration);
    config.servers_per_site = 2;
    let simulator = CdnSimulator::new(config);
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);

    placer.milp_solver.discard_warm_start();
    let cold_run = simulator.run_with(&placer);
    let before = ReplanCounters::snapshot(&placer);
    let warm_run = simulator.run_with(&placer);
    let warm = before.diff(&placer);
    assert_eq!(
        cold_run.outcome, warm_run.outcome,
        "{name}: warm re-solves must stay exact"
    );
    let epochs = cold_run.epochs.len();
    let run_ns = median_ns(samples, || {
        let _ = simulator.run_with(&placer);
    });

    format!(
        concat!(
            "    {{\n",
            "      \"name\": \"{}\",\n",
            "      \"epochs\": {},\n",
            "      \"exact_decisions\": {},\n",
            "      \"moves\": {},\n",
            "      \"run_ns_median\": {},\n",
            "      \"samples\": {},\n",
            "      \"ns_per_epoch_median\": {},\n",
            "      \"pivots_cold_run\": {},\n",
            "      \"pivots_warm_run\": {},\n",
            "{}",
            "    }}"
        ),
        name,
        epochs,
        cold_run.exact_decisions,
        cold_run.moves,
        run_ns,
        samples,
        run_ns / epochs.max(1) as u64,
        cold_run.solver_pivots,
        warm_run.solver_pivots,
        warm.render(&placer),
    )
}

/// Snapshot/diff helper for the replan entries: captures the placer's
/// accumulated solver counters before the warm run, so the entry can report
/// the *warm-run* factorization, pricing-ladder and column-generation work
/// (all summable counters; the peak eta length and fill-in ratio are
/// running max/latest values and are reported as of the diff point).
struct ReplanCounters {
    refactorizations: usize,
    devex_resets: usize,
    bland_activations: usize,
    columns_generated: usize,
    pricing_rounds: usize,
    master_pivots: usize,
}

impl ReplanCounters {
    fn snapshot(placer: &IncrementalPlacer) -> Self {
        let factor = placer.milp_solver.accumulated_factor_stats();
        let pricing = placer.milp_solver.accumulated_pricing_stats();
        let decomp = placer.milp_solver.accumulated_decomp_stats();
        Self {
            refactorizations: factor.refactorizations,
            devex_resets: pricing.devex_resets,
            bland_activations: pricing.bland_activations,
            columns_generated: decomp.columns_generated,
            pricing_rounds: decomp.pricing_rounds,
            master_pivots: decomp.master_pivots,
        }
    }

    fn diff(&self, placer: &IncrementalPlacer) -> Self {
        let now = Self::snapshot(placer);
        Self {
            refactorizations: now.refactorizations - self.refactorizations,
            devex_resets: now.devex_resets - self.devex_resets,
            bland_activations: now.bland_activations - self.bland_activations,
            columns_generated: now.columns_generated - self.columns_generated,
            pricing_rounds: now.pricing_rounds - self.pricing_rounds,
            master_pivots: now.master_pivots - self.master_pivots,
        }
    }

    /// Renders the unified observability tail shared by both replan
    /// entries: model dimensions plus this counter diff.
    fn render(&self, placer: &IncrementalPlacer) -> String {
        let (vars, rows) = placer.milp_solver.last_model_dims();
        let factor = placer.milp_solver.accumulated_factor_stats();
        format!(
            concat!(
                "      \"milp_vars\": {},\n",
                "      \"milp_rows\": {},\n",
                "      \"refactorizations\": {},\n",
                "      \"peak_eta_len\": {},\n",
                "      \"fill_in_ratio\": {:.3},\n",
                "      \"devex_resets\": {},\n",
                "      \"bland_activations\": {},\n",
                "      \"columns_generated\": {},\n",
                "      \"pricing_rounds\": {},\n",
                "      \"master_pivots\": {}\n",
            ),
            vars,
            rows,
            self.refactorizations,
            factor.peak_eta_len,
            factor.fill_in_ratio,
            self.devex_resets,
            self.bland_activations,
            self.columns_generated,
            self.pricing_rounds,
            self.master_pivots,
        )
    }
}

/// Passes timed per worker mode in the sweep snapshot.
const SWEEP_SAMPLES: usize = 5;

/// Renders the sweep snapshot: grid cells/second at one worker and at one
/// worker per CPU, each from the median of `SWEEP_SAMPLES` passes, with the
/// fastest and slowest pass next to the median's seconds.  On a
/// single-CPU machine the automatic worker count resolves to the same
/// single worker as `jobs_1`, so the duplicate measurement is skipped rather
/// than snapshotted as a misleading "parallel" figure.
pub fn sweep_bench_json(quick: bool) -> String {
    let detected_cpus = rayon::current_num_threads();
    let mut modes = vec![("jobs_1", 1usize)];
    if detected_cpus > 1 {
        modes.push(("jobs_auto", 0usize));
    }
    let spec = crate::summary::sweep_spec(quick);
    let mut sections = Vec::new();
    let mut cells = 0usize;
    for (label, jobs) in modes {
        let mut workers = 0usize;
        let times = sorted_ns(SWEEP_SAMPLES, || {
            let report = crate::summary::run(&spec, jobs);
            cells = report.cells.len();
            workers = report.jobs;
        });
        let seconds = |ns: u64| ns as f64 / 1e9;
        let median = seconds(times[times.len() / 2]);
        let rate = cells as f64 / median.max(1e-9);
        sections.push(format!(
            concat!(
                "  \"{}\": {{\n",
                "    \"workers\": {},\n",
                "    \"samples\": {},\n",
                "    \"seconds\": {:.3},\n",
                "    \"seconds_min\": {:.3},\n",
                "    \"seconds_max\": {:.3},\n",
                "    \"cells_per_sec\": {:.2}\n",
                "  }}"
            ),
            label,
            workers,
            times.len(),
            median,
            seconds(times[0]),
            seconds(times[times.len() - 1]),
            rate
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sweep\",\n",
            "  \"grid\": \"{}\",\n",
            "  \"cells\": {},\n",
            "  \"detected_cpus\": {},\n",
            "{}\n",
            "}}\n"
        ),
        if quick { "quick" } else { "default" },
        cells,
        detected_cpus,
        sections.join(",\n")
    )
}

/// Renders the serving snapshot: the event-level engine's cost on top of
/// the identical aggregate run, and the throughput that overhead implies in
/// the unit of work the engine does.  The engine is batched — each
/// (stream, hour) batch is routed, queued and drained in O(1), whatever
/// number of requests it stands for — so `batches_per_sec_per_core` counts
/// stream-hour batches processed per second of serving time, and
/// `requests_total` stays a count of the requests they represent.  Both
/// runs are single-threaded, so the figure is per core.
///
/// The two runs are timed in alternating pairs, so a slow stretch of the
/// machine lands on both sides of a difference rather than on one median.
/// Each pair's difference gives one throughput; the snapshot reports their
/// median with the slowest and fastest pair (`_min`, `_max`) and the median
/// difference as `serving_overhead_ns`.  Each run keeps its own placer, so
/// a pair times two runs on resident deployments.
pub fn serving_bench_json(quick: bool) -> String {
    let samples = if quick { 3 } else { 7 };
    let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(if quick { 10 } else { 20 });
    let apps_per_site = config.apps_per_site;
    let aggregate = CdnSimulator::new(config.clone());
    let event = CdnSimulator::new(config.with_serving(ServingMode::EventLevel));
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let (aggregate_placer, event_placer) = (placer.clone(), placer);

    let _ = aggregate.run_with(&aggregate_placer);
    let result = event.run_with(&event_placer);
    let metrics = result
        .serving
        .expect("event-level runs record serving metrics");
    let time_ns = |run: &dyn Fn()| {
        let start = Instant::now();
        run();
        start.elapsed().as_nanos() as u64
    };
    let pairs: Vec<(u64, u64)> = (0..samples)
        .map(|_| {
            let aggregate_ns = time_ns(&|| {
                let _ = aggregate.run_with(&aggregate_placer);
            });
            let event_ns = time_ns(&|| {
                let _ = event.run_with(&event_placer);
            });
            (aggregate_ns, event_ns)
        })
        .collect();
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let aggregate_ns = median(pairs.iter().map(|p| p.0).collect());
    let event_ns = median(pairs.iter().map(|p| p.1).collect());
    let mut differences: Vec<u64> = pairs
        .iter()
        .map(|(a, e)| e.saturating_sub(*a).max(1))
        .collect();
    differences.sort_unstable();
    let serving_ns = differences[differences.len() / 2];
    // One request stream per application, one batch per stream and hour.
    let batches = event.site_count() * apps_per_site * metrics.hours;
    let per_sec = |ns: u64| batches as f64 * 1e9 / ns as f64;

    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serving\",\n",
            "  \"grid\": \"{}\",\n",
            "  \"samples_per_case\": {},\n",
            "  \"hours\": {},\n",
            "  \"requests_total\": {},\n",
            "  \"aggregate_run_ns_median\": {},\n",
            "  \"event_run_ns_median\": {},\n",
            "  \"serving_overhead_ns\": {},\n",
            "  \"batches_per_sec_per_core\": {:.0},\n",
            "  \"batches_per_sec_per_core_min\": {:.0},\n",
            "  \"batches_per_sec_per_core_max\": {:.0},\n",
            "  \"p99_ms\": {:.3},\n",
            "  \"drop_percent\": {:.4}\n",
            "}}\n"
        ),
        if quick {
            "eu_10site_quick"
        } else {
            "eu_20site_default"
        },
        samples,
        metrics.hours,
        metrics.requests_total,
        aggregate_ns,
        event_ns,
        serving_ns,
        per_sec(serving_ns),
        per_sec(differences[differences.len() - 1]),
        per_sec(differences[0]),
        metrics.p99_ms,
        metrics.drop_percent(),
    )
}

/// Runs the benches and writes `BENCH_solver.json`, `BENCH_sweep.json` and
/// `BENCH_serving.json` into `dir`, creating it if needed.  Returns the
/// written paths.
pub fn write_bench_json(
    dir: &std::path::Path,
    quick: bool,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let solver_path = dir.join("BENCH_solver.json");
    std::fs::write(&solver_path, solver_bench_json(quick))?;
    let sweep_path = dir.join("BENCH_sweep.json");
    std::fs::write(&sweep_path, sweep_bench_json(quick))?;
    let serving_path = dir.join("BENCH_serving.json");
    std::fs::write(&serving_path, serving_bench_json(quick))?;
    Ok(vec![solver_path, sweep_path, serving_path])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_bench_json_is_wellformed_and_reports_speedup() {
        let json = solver_bench_json(true);
        assert!(json.contains("\"bench\": \"solver\""));
        assert!(json.contains("placement_overhead/single_app_regional_decision"));
        assert!(json.contains("solver_ablation/exact_milp_5x5"));
        assert!(json.contains("\"speedup_vs_reference\""));
        assert!(json.contains("\"bb_nodes\""));
        assert!(json.contains("solver_scale/exact_60x15"));
        assert!(json.contains("solver_scale/exact_120x30"));
        assert!(json.contains("solver_scale/exact_200x50"));
        assert!(json.contains("solver_scale/exact_400x100"));
        assert!(json.contains("solver_scale/exact_800x100"));
        assert!(json.contains("\"refactorizations\""));
        assert!(json.contains("\"peak_eta_len\""));
        assert!(json.contains("\"fill_in_ratio\""));
        assert!(json.contains("\"milp_rows\""));
        assert!(json.contains("\"exact_monolithic_ns_median\""));
        assert!(json.contains("\"speedup_vs_monolithic\""));
        assert!(json.contains("\"devex_resets\""));
        assert!(json.contains("\"bland_activations\""));
        assert!(json.contains("\"columns_generated\""));
        assert!(json.contains("\"pricing_rounds\""));
        assert!(json.contains("\"master_pivots\""));
        assert!(json.contains("epoch_replan/monthly_eu_3site_exact"));
        assert!(json.contains("migration_replan/monthly_eu_3site_exact_paper"));
        assert!(json.contains("\"moves\""));
        assert!(json.contains("\"pivots_warm_run\""));
        // Unified schema: every case entry carries the full field set, so
        // the per-case fields appear once per case.
        let case_count = json.matches("\"name\":").count();
        for field in [
            "\"samples\":",
            "\"milp_vars\":",
            "\"milp_rows\":",
            "\"refactorizations\":",
            "\"devex_resets\":",
            "\"bland_activations\":",
            "\"columns_generated\":",
            "\"pricing_rounds\":",
            "\"master_pivots\":",
        ] {
            assert_eq!(
                json.matches(field).count(),
                case_count,
                "field {field} missing from some case entries"
            );
        }
        // Balanced braces — a cheap structural sanity check without a JSON
        // parser in the offline environment.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
    }

    #[test]
    fn serving_bench_json_is_wellformed_and_reports_throughput() {
        let json = serving_bench_json(true);
        assert!(json.contains("\"bench\": \"serving\""));
        assert!(json.contains("\"requests_total\""));
        assert!(json.contains("\"batches_per_sec_per_core\""));
        assert!(!json.contains("events_per_sec_per_core"));
        assert!(json.contains("\"serving_overhead_ns\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        // The throughput carries its spread: slowest <= median <= fastest
        // pair.
        let field = |name: &str| -> f64 {
            let key = format!("\"{name}\": ");
            let line = json.lines().find_map(|line| line.trim().strip_prefix(&key));
            line.expect(name)
                .trim_end_matches(',')
                .parse()
                .expect("a number")
        };
        let median = field("batches_per_sec_per_core");
        let (min, max) = (
            field("batches_per_sec_per_core_min"),
            field("batches_per_sec_per_core_max"),
        );
        assert!(
            min <= median && median <= max,
            "spread {min} / {median} / {max}"
        );
    }

    #[test]
    fn sweep_bench_json_records_cpus_and_never_duplicates_workers() {
        // Built on the quick grid this takes a few seconds; the structural
        // claims are what matter: the detected CPU count is recorded, and
        // `jobs_auto` appears only when it measures something `jobs_1`
        // does not.
        let json = sweep_bench_json(true);
        assert!(json.contains("\"detected_cpus\""));
        assert!(json.contains("\"jobs_1\""));
        assert!(json.contains(&format!("\"samples\": {SWEEP_SAMPLES}")));
        // Every mode carries its spread: fastest <= median <= slowest pass.
        let field = |name: &str| -> Vec<f64> {
            let key = format!("\"{name}\": ");
            json.lines()
                .filter_map(|line| line.trim().strip_prefix(&key))
                .map(|v| v.trim_end_matches(',').parse().expect("a number"))
                .collect()
        };
        let (median, min, max) = (field("seconds"), field("seconds_min"), field("seconds_max"));
        assert_eq!(median.len(), field("workers").len());
        assert_eq!((min.len(), max.len()), (median.len(), median.len()));
        for ((lo, mid), hi) in min.iter().zip(&median).zip(&max) {
            assert!(lo <= mid && mid <= hi, "spread {lo} / {mid} / {hi}");
        }
        let cpus = rayon::current_num_threads();
        assert_eq!(
            json.contains("\"jobs_auto\""),
            cpus > 1,
            "jobs_auto must appear exactly when more than one CPU is available"
        );
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
    }

    #[test]
    fn scale_problem_keeps_slo_sparsity_bounded() {
        let p = scale_problem(15, 4);
        let (apps, servers) = p.size();
        assert_eq!((apps, servers), (60, 15));
        for i in 0..apps {
            let feasible = (0..servers).filter(|&j| p.is_feasible_pair(i, j)).count();
            assert!(
                (3..=5).contains(&feasible),
                "app {i} has {feasible} feasible servers; the corridor \
                 spacing or SLO drifted"
            );
        }
    }

    #[test]
    fn median_ns_is_order_insensitive() {
        let mut calls = 0usize;
        let ns = median_ns(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(ns < 1_000_000_000);
    }
}
