//! `sweep_default`: the default grid of `experiments --sweep` run through
//! `SweepExecutor::run` at one worker.
//!
//! One op is one pass over the 36-cell grid, rendered report included —
//! what a `--sweep` invocation waits for.  Each pass builds its own shared
//! catalogs, traces and scenario preps, as every invocation does.  The
//! traced pass replays `SweepExecutor::run`'s single-worker sequence
//! through the same public calls (shared catalogs → per-seed traces → per
//! cell `CdnShared::simulator` and `CdnSimulator::run_with` on one placer
//! re-stamped with the cell's policy and its warm start discarded →
//! `SweepReport`), with a span around each call, and must render the same
//! report byte for byte.

use crate::report::{self, Budget, Report};
use crate::seed;
use crate::speed::SpeedProbe;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;
use carbonedge_sim::cdn::{CdnResult, CdnShared};
use carbonedge_sweep::{CellResult, SweepCell, SweepExecutor, SweepReport, SweepSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Passes per mode below which the run keeps going past its budget, so
/// the median has samples on both sides.
const MIN_PASSES: usize = 3;

/// Seed stream of the cell re-run through the cold-simulator oracle.
const ORACLE_STREAM: u64 = 1;

/// The `experiments --sweep` grid (`summary::sweep_spec(false)`: both
/// continents × 10/20/30 ms × three demand/capacity scenarios × both
/// policies on a 120-site cap), with `seed` as its trace and base seed.
pub fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "default-grid".into(),
        ..SweepSpec::quick_default().with_site_limit(Some(120))
    }
    .with_base_seed(seed)
    .with_seeds(vec![seed])
}

/// The run's inputs: the grid, and a shared environment with the seed's
/// traces for the output checks.
struct Inputs {
    spec: SweepSpec,
    shared: CdnShared,
}

fn setup(seed: u64) -> Inputs {
    let spec = spec(seed);
    spec.validate().expect("the default grid is valid");
    let shared = CdnShared::new();
    shared.traces(seed);
    Inputs { spec, shared }
}

/// Work counts of one traced pass.
#[derive(Default)]
struct PassCounts {
    epochs: usize,
    apps_placed: usize,
    exact_decisions: usize,
    preps_built: usize,
}

/// The `CellResult` `SweepExecutor::run_cell` assembles from a run.
fn cell_result(cell: &SweepCell, result: CdnResult, site_count: usize) -> CellResult {
    let mean_assigned_intensity = if result.assigned_intensity.is_empty() {
        0.0
    } else {
        result.assigned_intensity.iter().sum::<f64>() / result.assigned_intensity.len() as f64
    };
    CellResult {
        cell: cell.clone(),
        outcome: result.outcome,
        decision_carbon_g: result.decision_carbon_g,
        monthly_carbon_g: result.monthly.iter().map(|m| m.carbon_g).collect(),
        mean_assigned_intensity,
        site_count,
        moves: result.moves,
        migration_carbon_g: result.migration_carbon_g,
        serving: result.serving,
    }
}

/// Exact equality of two cell results, floats compared bit for bit.
fn same_cell(a: &CellResult, b: &CellResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.outcome == b.outcome
        && a.decision_carbon_g.to_bits() == b.decision_carbon_g.to_bits()
        && bits(&a.monthly_carbon_g) == bits(&b.monthly_carbon_g)
        && a.mean_assigned_intensity.to_bits() == b.mean_assigned_intensity.to_bits()
        && a.site_count == b.site_count
        && a.moves == b.moves
        && a.migration_carbon_g.to_bits() == b.migration_carbon_g.to_bits()
        && a.serving == b.serving
}

/// One untraced pass: the executor's run plus the rendering.
fn untraced_pass(executor: &SweepExecutor, spec: &SweepSpec) -> Option<(f64, SweepReport, String)> {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let report = executor.run(spec)?;
        let rendered = report.render();
        Ok::<_, String>((report, rendered))
    }));
    let ms = report::ms_since(started);
    match outcome {
        Ok(Ok((report, rendered))) => Some((ms, report, rendered)),
        Ok(Err(err)) => {
            eprintln!("perfbench: sweep failed: {err}");
            None
        }
        Err(_) => None,
    }
}

/// One traced pass: `SweepExecutor::run` at one worker, replayed call by
/// call with a span around each layer.
fn traced_pass(
    tracer: &mut Tracer,
    executor: &SweepExecutor,
    spec: &SweepSpec,
) -> Option<(String, PassCounts)> {
    tracer.op("sweep.pass", |t| {
        spec.validate().expect("the default grid is valid");
        let cells = spec.cells();
        let shared = t.span("datasets.catalog", |_| CdnShared::new());
        for seed in &spec.seeds {
            t.span("datasets.traces", |_| shared.traces(*seed));
        }
        let mut placer = executor.placer_template.clone();
        let mut counts = PassCounts::default();
        let mut results = Vec::with_capacity(cells.len());
        for cell in &cells {
            let simulator = t.span("sim.prep", |_| shared.simulator(cell.config()));
            placer.policy = cell.policy;
            placer.milp_solver.discard_warm_start();
            let result = t.span("sim.run", |_| simulator.run_with(&placer));
            counts.epochs += result.epochs.len();
            counts.apps_placed += result.outcome.placed_apps;
            counts.exact_decisions += result.exact_decisions;
            results.push(cell_result(cell, result, simulator.site_count()));
        }
        counts.preps_built = shared.cached_prep_count();
        let rendered = t.span("sweep.report", |_| {
            SweepReport::new(spec.clone(), results, 1).render()
        });
        (rendered, counts)
    })
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, tracer: Option<&mut Tracer>) {
    let mut builds = report::Setup::new(|| setup(args.seed));
    let inputs = builds.before();
    measure(args, &inputs, report, tracer);
    drop(inputs);
    builds.after(report);
}

/// The timed loop, the output checks and the metrics.
fn measure(args: &Args, inputs: &Inputs, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let executor = SweepExecutor::new().with_jobs(1);
    let traced = tracer.is_some();
    let min_passes = if traced { 2 * MIN_PASSES } else { MIN_PASSES };

    let mut probe = SpeedProbe::new();
    // Untraced pass times (ms) with the index of the probe taken before.
    let mut untraced: Vec<(f64, usize)> = Vec::new();
    let mut counts = Vec::new();
    let mut first: Option<(SweepReport, String)> = None;
    let budget = Budget::new(args.seconds, min_passes);
    let mut pass = 0;
    while budget.more(pass) {
        let traced_pass_now = traced && pass % 2 == 1;
        pass += 1;
        probe.measure();
        let rendered = if traced_pass_now {
            let tracer = tracer.as_deref_mut().expect("traced runs have a tracer");
            traced_pass(tracer, &executor, &inputs.spec).map(|(rendered, c)| {
                if c.exact_decisions != 0 {
                    report.fail(format!(
                        "{} exact decisions on the heuristic-only grid",
                        c.exact_decisions
                    ));
                }
                counts.push(c);
                rendered
            })
        } else {
            untraced_pass(&executor, &inputs.spec).map(|(ms, sweep, rendered)| {
                untraced.push((ms, probe.measured.len() - 1));
                if first.is_none() {
                    first = Some((sweep, rendered.clone()));
                }
                rendered
            })
        };
        // Every pass, traced or not, must render the first pass's report.
        let ok = match (&rendered, &first) {
            (Some(r), Some((_, reference))) => r == reference,
            _ => false,
        };
        report.op(ok);
    }

    probe.measure();
    let Some((first_report, _)) = first else {
        report.fail("no untraced pass completed");
        return;
    };
    check_cold_oracle(args.seed, inputs, &executor, &first_report, report);

    let untraced_ms: Vec<f64> = untraced.iter().map(|(ms, _)| *ms).collect();
    let normalized: Vec<f64> = untraced
        .iter()
        .map(|&(ms, before)| probe.normalize(ms, before, before + 1))
        .collect();
    let cells = first_report.cells.len() as f64;
    let pass_ms = stats::median(&normalized).unwrap_or(0.0);
    let cells_per_s = if pass_ms > 0.0 {
        cells / (pass_ms / 1e3)
    } else {
        0.0
    };
    report.headline("cells_per_s", cells_per_s, "1/s", normalized.len());
    report.headline("pass_ms_p50", pass_ms, "ms", normalized.len());
    report.headline(
        "pass_ms_p50_unnormalized",
        stats::median(&untraced_ms).unwrap_or(0.0),
        "ms",
        untraced_ms.len(),
    );
    report.speed(&probe);
    report.samples("pass_ms", &untraced_ms);
    let rows = first_report.savings_rows();
    let mean = |f: &dyn Fn(&carbonedge_sweep::SavingsRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
    };
    report.headline(
        "saving_pct",
        mean(&|r| r.savings.carbon_percent),
        "%",
        rows.len(),
    );
    report.headline(
        "latency_increase_ms",
        mean(&|r| r.savings.latency_increase_ms),
        "ms",
        rows.len(),
    );
    report.end_to_end("throughput_per_s", cells_per_s);
    report.end_to_end("latency_ms_p50", pass_ms);

    if let Some(tracer) = tracer {
        layers(tracer, &untraced_ms, &counts, report);
    }
}

/// Re-runs one seeded cell on the cold path (no scenario prep) and checks
/// it equals the executor's prepped result bit for bit.
fn check_cold_oracle(
    seed: u64,
    inputs: &Inputs,
    executor: &SweepExecutor,
    sweep: &SweepReport,
    report: &mut Report,
) {
    let index = seed::pick(seed, ORACLE_STREAM, 0, sweep.cells.len());
    let cell = &sweep.cells[index].cell;
    let mut placer = executor.placer_template.clone();
    placer.policy = cell.policy;
    placer.milp_solver.discard_warm_start();
    let simulator = inputs.shared.cold_simulator(cell.config());
    let cold = cell_result(cell, simulator.run_with(&placer), simulator.site_count());
    if !same_cell(&cold, &sweep.cells[index]) {
        report.fail(format!(
            "cell {index} ({}) differs from its cold-simulator re-run",
            cell.label()
        ));
    }
}

/// Per-layer metrics of the traced passes.
fn layers(tracer: &Tracer, untraced_ms: &[f64], counts: &[PassCounts], report: &mut Report) {
    let spans = tracer.spans();
    let by_op = trace::layer_self_by_op(spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    let traced_ms: Vec<f64> = trace::op_durations(spans)
        .values()
        .map(|ns| ms(*ns))
        .collect();
    report.trace_summary(untraced_ms, &traced_ms);
    for (metric, layer) in [
        ("datasets.catalog_ms", "datasets.catalog"),
        ("datasets.traces_ms", "datasets.traces"),
        ("sim.prep_ms", "sim.prep"),
        ("sim.run_ms", "sim.run"),
        ("sweep.report_ms", "sweep.report"),
        ("sweep.executor_ms", "sweep.pass"),
    ] {
        let per_pass: Vec<f64> = by_op
            .values()
            .map(|layers| ms(layers.get(layer).copied().unwrap_or(0)))
            .collect();
        report.layer(
            metric,
            stats::median(&per_pass).unwrap_or(0.0),
            per_pass.len(),
        );
    }
    let cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(|s| ms(s.duration_ns()))
        .collect();
    for (metric, q) in [("sim.cell_ms_p50", 50.0), ("sim.cell_ms_p90", 90.0)] {
        let p = stats::percentile(&cell_ms, q);
        let samples = p.map_or("0".to_string(), |p| {
            format!("{} beyond={}", p.samples, p.beyond)
        });
        report.layer(metric, p.map_or(0.0, |p| p.value), samples);
    }
    // Work counts repeat exactly from pass to pass; report the first.
    if let Some(c) = counts.first() {
        report.layer("sim.preps_built", c.preps_built as f64, counts.len());
        report.layer("sim.epochs", c.epochs as f64, counts.len());
        report.layer("sim.apps_placed", c.apps_placed as f64, counts.len());
        report.layer(
            "sim.exact_decisions",
            c.exact_decisions as f64,
            counts.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_the_seeded_default_sweep() {
        let spec = spec(7);
        assert_eq!(spec.cell_count(), 36);
        assert_eq!((spec.base_seed, spec.seeds.clone()), (7, vec![7]));
        let cells = spec.cells();
        assert!(cells
            .iter()
            .all(|c| c.site_limit == Some(120) && c.seed == 7));
        // The same seed gives the same cells; another seed other cell seeds.
        let again = super::spec(7).cells();
        let other = super::spec(8).cells();
        for ((a, b), c) in cells.iter().zip(&again).zip(&other) {
            assert_eq!((a.label(), a.cell_seed), (b.label(), b.cell_seed));
            assert_ne!(a.cell_seed, c.cell_seed);
        }
    }
}
