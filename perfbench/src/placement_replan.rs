//! `placement_replan`: the exact placement service at corridor scale, the
//! per-decision overhead of the paper's Section 6.5.
//!
//! The corridor has the shape of the `solver_scale` bench cases: 50 sites
//! 150 km apart, one A2 server each, four ResNet50 applications per site
//! and a 10 ms SLO, so 200 apps × 50 servers, about 1k MILP variables and
//! 1.4k rows.  An instance puts every site in a European zone drawn from
//! the seed and prices it at that zone's weekly mean intensity over one
//! quarter: 13 consecutive weekly inputs whose costs drift the way the
//! traces drift.  Instances are spread evenly over the four quarters.
//! `IncrementalPlacer::place` runs with the exact limit raised so every
//! decision is exact.  Each instance is solved twice: a cold phase (warm
//! start discarded before each decision), then a re-plan phase in week
//! order on the resident basis, whose first week is a cold start and is
//! left out of the re-plan figures.
//!
//! The run cycles through all instances until its time is up, measuring
//! the machine's speed before each instance; decision times are scaled to
//! the reference speed (`speed.rs`).  The traced run replays each decision
//! as `core.build_model` → `solver.solve` → decoding under one op span.

use crate::report::{self, Budget, Report};
use crate::seed;
use crate::speed::SpeedProbe;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::Args;
use carbonedge_core::{IncrementalPlacer, PlacementPolicy, PlacementProblem, ServerSnapshot};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::ZoneCatalog;
use carbonedge_geo::Coordinates;
use carbonedge_grid::{HourOfYear, TraceGenerator, ZoneId};
use carbonedge_net::LatencyModel;
use carbonedge_solver::{MilpOutcome, MilpSolution};
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, ResourceDemand};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Sites along the corridor, one server each.
const SITES: usize = 50;
/// Applications arriving at every site.
const APPS_PER_SITE: usize = 4;
/// Model images each server's memory holds: capacity binds, since chasing
/// a greener neighbour competes with the neighbour's own arrivals.
const MEMORY_SLOTS: f64 = 6.0;
/// Distance between neighbouring sites.
const SITE_SPACING_KM: f64 = 150.0;
/// Kilometres per degree of longitude at the equator.
const KM_PER_DEGREE: f64 = 111.195;
/// Round-trip latency limit: under the deterministic latency model it
/// admits the two neighbours on either side, so the MILP stays sparse.
const SLO_MS: f64 = 10.0;
/// Hours per weekly input.
const WEEK_HOURS: usize = 168;
/// Weekly inputs per instance: one quarter of the year.
const WEEKS: usize = 13;
/// Instances per run.  Zone maps differ widely in how hard they are to
/// solve, so the figures average over many of them to stay steady from
/// seed to seed; few enough that a run repeats each decision several
/// times.
const INSTANCES: usize = 48;
/// Trace sets per run.  Every instance draws its weekly intensities from
/// one of them; like zone maps, trace draws differ in how hard they make
/// the re-plans, so a run averages over several.
const TRACE_SETS: usize = 12;
/// Weeks of each trace set the instances draw their quarters from.
const YEAR_WEEKS: usize = 52;
/// `apps * servers` limit of the exact path, far above the corridor's 10k.
const EXACT_LIMIT: usize = 100_000;
/// Relative tolerance between the decomposition's cold optimum and the
/// forced-monolithic solve of the same input.
const OBJECTIVE_TOLERANCE: f64 = 1e-6;
/// Relative tolerance between a re-plan and the cold optimum of the same
/// input.  Warm re-plans land a few parts per million above it now and
/// then (`solver.replan_gap_max` reports by how much); a broken warm start
/// would miss by the weekly cost drift, orders of magnitude more.
const REPLAN_TOLERANCE: f64 = 1e-4;
/// Every this many instances, one week is re-solved on the monolithic path.
const MONOLITHIC_EVERY: usize = 8;
/// Seed stream of the zone maps.
const ZONE_STREAM: u64 = 2;
/// Seed stream of the weeks re-solved on the forced-monolithic path.
const CHECK_STREAM: u64 = 3;
/// Seed stream of the trace sets.
const TRACE_STREAM: u64 = 4;

/// The two phases every instance is solved in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Cold,
    Replan,
}

const PHASES: [Phase; 2] = [Phase::Cold, Phase::Replan];

impl Phase {
    fn index(self) -> usize {
        self as usize
    }

    /// Name of the op span a traced decision of this phase records.
    fn span(self) -> &'static str {
        match self {
            Phase::Cold => "decision.cold",
            Phase::Replan => "decision.replan",
        }
    }

    /// Whether a decision of this phase in `week` enters the phase's
    /// figures: re-plan figures leave out each instance's cold first week.
    fn counts(self, week: usize) -> bool {
        self == Phase::Cold || week > 0
    }
}

/// The corridor in the shape of the `solver_scale` bench cases.
fn corridor() -> PlacementProblem {
    let lon_step = SITE_SPACING_KM / KM_PER_DEGREE;
    let servers: Vec<ServerSnapshot> = (0..SITES)
        .map(|site| {
            let loc = Coordinates::new(0.0, site as f64 * lon_step);
            ServerSnapshot::new(site, site, ZoneId(site), DeviceKind::A2, loc).with_available(
                ResourceDemand::new(
                    MEMORY_SLOTS * 1280.0 / 6.0,
                    MEMORY_SLOTS * 350.0,
                    MEMORY_SLOTS * 1000.0 / 6.0,
                ),
            )
        })
        .collect();
    let apps: Vec<Application> = (0..SITES * APPS_PER_SITE)
        .map(|i| {
            let site = i / APPS_PER_SITE;
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

/// Every instance of the run, `[instance][week]`, generated from `seed`.
/// Instance `k` draws a zone map from `seed`, takes its intensities from
/// trace set `k / 4 % TRACE_SETS` (the European zones' traces, with a
/// trace seed derived from `seed`) and covers quarter `k % 4`, so every
/// trace set serves every quarter.
fn setup(seed: u64) -> Vec<Vec<PlacementProblem>> {
    let catalog = ZoneCatalog::worldwide();
    let europe = catalog.in_area(ZoneArea::Europe);
    // `[set][zone][week]`: weekly mean intensities over the year.
    let weekly: Vec<Vec<Vec<f64>>> = (0..TRACE_SETS)
        .map(|set| {
            let generator = TraceGenerator::new(seed::derive(seed, TRACE_STREAM, set as u64));
            europe
                .iter()
                .map(|zone| {
                    let trace = generator.generate(&zone.profile());
                    (0..YEAR_WEEKS)
                        .map(|w| trace.window_mean(HourOfYear::new(w * WEEK_HOURS), WEEK_HOURS))
                        .collect()
                })
                .collect()
        })
        .collect();
    let template = corridor();
    (0..INSTANCES)
        .map(|k| {
            let zones: Vec<usize> = (0..SITES)
                .map(|site| seed::pick(seed, ZONE_STREAM, (k * SITES + site) as u64, europe.len()))
                .collect();
            let means = &weekly[k / 4 % TRACE_SETS];
            let first_week = (k % 4) * WEEKS;
            (first_week..first_week + WEEKS)
                .map(|week| {
                    let mut problem = template.clone();
                    for (server, &zone) in problem.servers.iter_mut().zip(&zones) {
                        server.zone = europe[zone].id;
                        server.carbon_intensity = means[zone][week].max(0.0);
                    }
                    problem
                })
                .collect()
        })
        .collect()
}

/// Whether two consecutive weekly inputs price at least one server
/// differently — a re-plan on identical costs would be a memoized re-solve.
fn costs_differ(a: &PlacementProblem, b: &PlacementProblem) -> bool {
    a.servers
        .iter()
        .zip(&b.servers)
        .any(|(x, y)| x.carbon_intensity.to_bits() != y.carbon_intensity.to_bits())
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// The exact placer every timed decision goes through.
fn exact_placer() -> IncrementalPlacer {
    IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(EXACT_LIMIT)
}

/// The objective of every decision, per `[phase][instance * WEEKS + week]`,
/// set by the decision's first repeat.
struct Ledger {
    objective: [Vec<Option<f64>>; 2],
}

impl Ledger {
    fn new() -> Self {
        let slots = INSTANCES * WEEKS;
        Self {
            objective: [vec![None; slots], vec![None; slots]],
        }
    }

    /// The cold optimum of a decision's input, once solved.
    fn cold_objective(&self, slot: usize) -> Option<f64> {
        self.objective[Phase::Cold.index()][slot]
    }

    /// Checks a decision's objective.  Every repeat of a decision repeats
    /// the same deterministic solve, so it must reproduce the first
    /// repeat's objective bit for bit; a re-plan's first repeat must land
    /// within [`REPLAN_TOLERANCE`] of the same input's cold optimum.
    fn check(&mut self, phase: Phase, slot: usize, objective: Option<f64>) -> bool {
        let Some(objective) = objective else {
            return false;
        };
        if let Some(first) = self.objective[phase.index()][slot] {
            return objective.to_bits() == first.to_bits();
        }
        self.objective[phase.index()][slot] = Some(objective);
        match phase {
            Phase::Cold => true,
            Phase::Replan => self
                .cold_objective(slot)
                .is_some_and(|cold| relative_gap(objective, cold) <= REPLAN_TOLERANCE),
        }
    }
}

/// Solves one instance through `place`, cold phase then re-plan phase,
/// and returns the times (ms) of the decisions that enter each phase's
/// figures.
fn untraced_instance(
    placer: &IncrementalPlacer,
    k: usize,
    weeks: &[PlacementProblem],
    ledger: &mut Ledger,
    report: &mut Report,
) -> [Vec<f64>; 2] {
    let mut phase_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for phase in PHASES {
        placer.milp_solver.discard_warm_start();
        for (week, problem) in weeks.iter().enumerate() {
            if phase == Phase::Cold {
                placer.milp_solver.discard_warm_start();
            }
            let started = Instant::now();
            let decision = catch_unwind(AssertUnwindSafe(|| placer.place(problem)));
            let ms = report::ms_since(started);
            let objective = match decision {
                Ok(Ok(d))
                    if d.exact
                        && d.unplaced.is_empty()
                        && problem
                            .total_carbon_g(&d.assignment)
                            .is_some_and(f64::is_finite) =>
                {
                    placer.objective_of(problem, &d.assignment)
                }
                _ => None,
            };
            let slot = k * WEEKS + week;
            let ok = ledger.check(phase, slot, objective);
            if !ok {
                eprintln!(
                    "perfbench: instance {k} week {week} {phase:?}: objective {objective:?}, cold optimum {:?}",
                    ledger.cold_objective(slot)
                );
            }
            report.op(ok);
            if ok && phase.counts(week) {
                phase_ms[phase.index()].push(ms);
            }
        }
    }
    phase_ms
}

/// Sum of the two phase medians of one instance, in ms: the end-to-end
/// figure traced and untraced instances are compared on.
fn pair_ms(phase_ms: &[Vec<f64>; 2]) -> f64 {
    stats::median(&phase_ms[0]).unwrap_or(0.0) + stats::median(&phase_ms[1]).unwrap_or(0.0)
}

/// What one traced decision recorded.
struct TracedDecision {
    op: u32,
    phase: Phase,
    week: usize,
    solution: MilpSolution,
    /// Relative objective gap to the same input's cold optimum.
    gap: f64,
}

/// Solves one instance with each decision replayed as `build_model` →
/// `solve` → decode under one op span, cold phase then re-plan phase.
fn traced_instance(
    tracer: &mut Tracer,
    placer: &IncrementalPlacer,
    k: usize,
    weeks: &[PlacementProblem],
    ledger: &mut Ledger,
    report: &mut Report,
) -> Vec<TracedDecision> {
    let mut decisions = Vec::with_capacity(2 * WEEKS);
    for phase in PHASES {
        placer.milp_solver.discard_warm_start();
        for (week, problem) in weeks.iter().enumerate() {
            if phase == Phase::Cold {
                placer.milp_solver.discard_warm_start();
            }
            let op = tracer.next_op();
            let slot = k * WEEKS + week;
            let mut objective = None;
            let outcome = tracer.op(phase.span(), |t| {
                let model = t.span("core.build_model", |_| placer.build_model(problem));
                let solution = t.span("solver.solve", |_| placer.milp_solver.solve(&model.model));
                let assignment = model.decode(&solution.values);
                let carbon = problem.total_carbon_g(&assignment);
                let _ = std::hint::black_box((
                    problem.total_energy_j(&assignment),
                    problem.mean_latency_ms(&assignment),
                ));
                (solution, assignment, carbon)
            });
            let ok = match &outcome {
                Some((solution, assignment, carbon)) => {
                    let placed = solution.outcome == MilpOutcome::Optimal
                        && assignment.iter().all(Option::is_some)
                        && carbon.is_some_and(f64::is_finite);
                    objective = placed
                        .then(|| placer.objective_of(problem, assignment))
                        .flatten();
                    ledger.check(phase, slot, objective)
                }
                None => false,
            };
            report.op(ok);
            if let Some((solution, _, _)) = outcome {
                let gap = match (objective, ledger.cold_objective(slot)) {
                    (Some(obj), Some(cold)) => (obj - cold) / cold.abs().max(1.0),
                    _ => f64::INFINITY,
                };
                decisions.push(TracedDecision {
                    op,
                    phase,
                    week,
                    solution,
                    gap,
                });
            }
        }
    }
    decisions
}

/// Re-solves one seeded week of instance `k` on the forced-monolithic path
/// and checks the objective matches the decomposition's.
fn check_monolithic(
    seed: u64,
    k: usize,
    weeks: &[PlacementProblem],
    ledger: &Ledger,
    report: &mut Report,
) {
    let week = seed::pick(seed, CHECK_STREAM, k as u64, weeks.len());
    let mut monolithic = exact_placer();
    monolithic.milp_solver.decomp_min_vars = usize::MAX;
    let objective = monolithic
        .place(&weeks[week])
        .ok()
        .filter(|d| d.exact)
        .and_then(|d| monolithic.objective_of(&weeks[week], &d.assignment));
    match (objective, ledger.cold_objective(k * WEEKS + week)) {
        (Some(mono), Some(decomp)) if relative_gap(mono, decomp) <= OBJECTIVE_TOLERANCE => {}
        (mono, decomp) => report.fail(format!(
            "instance {k} week {week}: monolithic objective {mono:?} vs decomposition {decomp:?}"
        )),
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, tracer: Option<&mut Tracer>) {
    let mut builds = report::Setup::new(|| setup(args.seed));
    let instances = builds.before();
    measure(args, &instances, report, tracer);
    drop(instances);
    builds.after(report);
}

/// The timed loop, the output checks and the metrics.
fn measure(
    args: &Args,
    instances: &[Vec<PlacementProblem>],
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) {
    for (k, weeks) in instances.iter().enumerate() {
        for week in 1..weeks.len() {
            if !costs_differ(&weeks[week - 1], &weeks[week]) {
                report.fail(format!(
                    "instance {k}: weeks {} and {week} are priced identically",
                    week - 1
                ));
            }
        }
    }
    let placer = exact_placer();
    // At least one full cycle, so every decision is timed at least once.
    let budget = Budget::new(args.seconds, INSTANCES);

    let mut ledger = Ledger::new();
    let mut probe = SpeedProbe::new();
    // Per untraced instance: its decision times per phase, in ms, with the
    // index of the speed probe taken before it.
    let mut untraced: Vec<([Vec<f64>; 2], usize)> = Vec::new();
    let mut traced_pairs = Vec::new();
    let mut traced_decisions = Vec::new();
    let mut done = 0;
    while budget.more(done) {
        let k = done % INSTANCES;
        let weeks = &instances[k];
        probe.measure();
        let phase_ms = untraced_instance(&placer, k, weeks, &mut ledger, report);
        untraced.push((phase_ms, probe.measured.len() - 1));
        if done < INSTANCES && k.is_multiple_of(MONOLITHIC_EVERY) {
            check_monolithic(args.seed, k, weeks, &ledger, report);
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let decisions = traced_instance(tracer, &placer, k, weeks, &mut ledger, report);
            let op_ms = trace::op_durations(tracer.spans());
            let traced_ms = PHASES.map(|phase| {
                decisions
                    .iter()
                    .filter(|d| d.phase == phase && phase.counts(d.week))
                    .filter_map(|d| op_ms.get(&d.op).map(|ns| *ns as f64 / 1e6))
                    .collect()
            });
            traced_pairs.push(pair_ms(&traced_ms));
            traced_decisions.extend(decisions);
        }
        done += 1;
    }
    probe.measure();

    // Every decision's time scaled to the reference speed by the probes
    // around its instance, pooled per phase over all repeats.
    let normalized = PHASES.map(|phase| {
        untraced
            .iter()
            .flat_map(|(phase_ms, before)| {
                let probe = &probe;
                phase_ms[phase.index()]
                    .iter()
                    .map(move |ms| probe.normalize(*ms, *before, before + 1))
            })
            .collect::<Vec<f64>>()
    });
    let raw = PHASES.map(|phase| {
        untraced
            .iter()
            .flat_map(|(phase_ms, _)| phase_ms[phase.index()].iter().copied())
            .collect::<Vec<f64>>()
    });
    let [cold, replan] = &normalized;
    let cold_p50 = report.percentile("cold_ms_p50", stats::percentile(cold, 50.0), "ms");
    report.percentile("cold_ms_p90", stats::percentile(cold, 90.0), "ms");
    let replan_p50 = report.percentile("replan_ms_p50", stats::percentile(replan, 50.0), "ms");
    report.percentile("replan_ms_p90", stats::percentile(replan, 90.0), "ms");
    report.percentile(
        "cold_ms_p50_unnormalized",
        stats::percentile(&raw[0], 50.0),
        "ms",
    );
    report.percentile(
        "replan_ms_p50_unnormalized",
        stats::percentile(&raw[1], 50.0),
        "ms",
    );
    let decisions_per_s = if cold_p50 + replan_p50 > 0.0 {
        2e3 / (cold_p50 + replan_p50)
    } else {
        0.0
    };
    report.headline(
        "decisions_per_s",
        decisions_per_s,
        "1/s",
        format!(
            "{} over {:.2} cycles",
            cold.len() + replan.len(),
            done as f64 / INSTANCES as f64
        ),
    );
    report.speed(&probe);
    report.end_to_end("throughput_per_s", decisions_per_s);
    report.end_to_end("latency_ms_p50", replan_p50);

    if let Some(tracer) = tracer {
        let untraced_pairs: Vec<f64> = untraced.iter().map(|(ms, _)| pair_ms(ms)).collect();
        report.trace_summary(&untraced_pairs, &traced_pairs);
        layers(tracer, &traced_decisions, report);
    }
}

/// A per-decision solver counter: its metric prefix and how to read it.
type Counter = (&'static str, fn(&MilpSolution) -> usize);

/// Per-layer metrics of the traced decisions.
fn layers(tracer: &Tracer, decisions: &[TracedDecision], report: &mut Report) {
    let by_op = trace::layer_self_by_op(tracer.spans());
    let counted = |phase: Phase| {
        decisions
            .iter()
            .filter(move |d| d.phase == phase && phase.counts(d.week))
    };
    for (phase, suffix) in [(Phase::Cold, "cold"), (Phase::Replan, "replan")] {
        for (metric, layer) in [
            ("core.build_model_ms", "core.build_model"),
            ("solver.solve_ms", "solver.solve"),
            ("core.decode_ms", phase.span()),
        ] {
            let per_decision: Vec<f64> = counted(phase)
                .filter_map(|d| by_op.get(&d.op))
                .map(|layers| layers.get(layer).copied().unwrap_or(0) as f64 / 1e6)
                .collect();
            report.layer(
                metric_name(metric, suffix),
                stats::median(&per_decision).unwrap_or(0.0),
                per_decision.len(),
            );
        }
        let counters: [Counter; 9] = [
            ("solver.pivots", |s| s.pivots),
            ("solver.master_pivots", |s| {
                s.decomp.map_or(0, |d| d.master_pivots)
            }),
            ("solver.columns_generated", |s| {
                s.decomp.map_or(0, |d| d.columns_generated)
            }),
            ("solver.pricing_rounds", |s| {
                s.decomp.map_or(0, |d| d.pricing_rounds)
            }),
            ("solver.refactorizations", |s| s.factor.refactorizations),
            ("solver.peak_eta_len", |s| s.factor.peak_eta_len),
            ("solver.bb_nodes", |s| s.nodes),
            ("solver.devex_resets", |s| s.pricing.devex_resets),
            ("solver.bland_activations", |s| s.pricing.bland_activations),
        ];
        let n = counted(phase).count();
        for (metric, counter) in counters {
            let total: usize = counted(phase).map(|d| counter(&d.solution)).sum();
            report.layer(
                metric_name(metric, suffix),
                total as f64 / n.max(1) as f64,
                n,
            );
        }
    }

    let (vars, rows) = model_dims();
    report.layer("solver.milp_vars", vars as f64, 1);
    report.layer("solver.milp_rows", rows as f64, 1);

    // Re-plan pivots against the cold pivots of the same inputs.
    let cold_pivots: usize = counted(Phase::Cold)
        .filter(|d| Phase::Replan.counts(d.week))
        .map(|d| d.solution.pivots)
        .sum();
    let replans = counted(Phase::Replan).count();
    let replan_pivots: usize = counted(Phase::Replan).map(|d| d.solution.pivots).sum();
    report.layer(
        "solver.replan_pivot_ratio",
        replan_pivots as f64 / cold_pivots.max(1) as f64,
        replans,
    );
    report.layer(
        "solver.zero_pivot_decisions",
        counted(Phase::Replan)
            .filter(|d| d.solution.pivots == 0)
            .count() as f64,
        replans,
    );
    let replan_gaps: Vec<f64> = counted(Phase::Replan).map(|d| d.gap).collect();
    report.layer(
        "solver.replan_suboptimal",
        replan_gaps
            .iter()
            .filter(|g| **g > OBJECTIVE_TOLERANCE)
            .count() as f64,
        replans,
    );
    report.layer(
        "solver.replan_gap_max",
        replan_gaps.iter().copied().fold(0.0, f64::max),
        replans,
    );
    // A decision took the decomposition path when the solver reports
    // column-generation stats at all: a warm re-plan whose restricted
    // master already prices out generates no new columns on that path.
    let decomposed = decisions
        .iter()
        .filter(|d| d.solution.decomp.is_some())
        .count();
    report.layer(
        "solver.decomp_ratio",
        decomposed as f64 / decisions.len().max(1) as f64,
        decisions.len(),
    );
}

/// `(variables, rows)` of the corridor MILP, as `core` builds it.
fn model_dims() -> (usize, usize) {
    let model = exact_placer().build_model(&corridor()).model;
    (model.num_vars(), model.num_constraints())
}

/// The registered per-layer name `<metric>.<suffix>`.
fn metric_name(metric: &str, suffix: &str) -> &'static str {
    let full = format!("{metric}.{suffix}");
    report::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == full)
        .unwrap_or_else(|| panic!("{full} is not a per-layer metric"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corridor_has_the_solver_scale_shape() {
        let problem = corridor();
        assert_eq!(problem.size(), (200, 50));
        for app in 0..200 {
            let feasible = (0..50)
                .filter(|&j| problem.is_feasible_pair(app, j))
                .count();
            assert!((3..=5).contains(&feasible), "app {app}: {feasible} servers");
        }
        let (vars, rows) = model_dims();
        assert!((900..1200).contains(&vars), "{vars} variables");
        assert!((1200..1600).contains(&rows), "{rows} rows");
    }

    #[test]
    fn instances_are_seed_determined_and_drift_week_to_week() {
        let prices = |p: &PlacementProblem| -> Vec<u64> {
            p.servers
                .iter()
                .map(|s| s.carbon_intensity.to_bits())
                .collect()
        };
        let a = setup(5);
        let b = setup(5);
        assert_eq!(a.len(), INSTANCES);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(prices(x), prices(y));
        }
        for weeks in &a {
            assert_eq!(weeks.len(), WEEKS);
            assert!(weeks.windows(2).all(|w| costs_differ(&w[0], &w[1])));
        }
        // Instances draw different zone maps; another seed other ones.
        assert!(a[0][0]
            .servers
            .iter()
            .zip(&a[1][0].servers)
            .any(|(x, y)| x.zone != y.zone));
        let other = setup(6);
        assert!(costs_differ(&a[0][0], &other[0][0]));
    }
}
