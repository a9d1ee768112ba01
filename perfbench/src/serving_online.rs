//! `serving_online`: the `experiments --serving --quick` deployment run as
//! its online-replacement × CarbonEdge cell.
//!
//! Europe, 25 sites, a 30 ms limit, four applications on one server per
//! site (saturated, so queues fill and drops happen), diurnal-bursty
//! arrivals, heuristic placement.  One op is one simulated year through
//! `CdnSimulator::run_with`: the batched event loop of `sim::serving` plus
//! the drift-triggered mid-epoch re-placements.  The traced run simulates
//! the same configuration once per serving mode, so the differences
//! between the aggregate, event-level and online years attribute the time
//! to serving and to online re-placement.

use crate::report::{self, Budget, Report};
use crate::speed::SpeedProbe;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_sim::cdn::{CdnConfig, CdnResult, CdnShared, CdnSimulator};
use carbonedge_sim::{ServingMetrics, ServingMode};
use carbonedge_sweep::SweepSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Years per mode below which the run keeps going past its budget.
const MIN_YEARS: usize = 5;
/// Relative tolerance of the request-conservation check.
const CONSERVATION_TOLERANCE: f64 = 1e-9;

/// The online-replacement × CarbonEdge cell of the `--serving --quick`
/// grid (`summary::serving_spec(true)`), with `seed` as its trace seed.
pub fn config(seed: u64) -> CdnConfig {
    let spec = SweepSpec::new("serving-quick")
        .with_areas(vec![ZoneArea::Europe])
        .with_latency_limits(vec![30.0])
        .with_site_limit(Some(25))
        .with_demand(4, 1)
        .with_servings(vec![ServingMode::OnlineReplace])
        .with_policies(vec![PlacementPolicy::CarbonAware])
        .with_base_seed(seed)
        .with_seeds(vec![seed]);
    spec.cells()[0].config()
}

/// The run's inputs: one prepped simulator per serving mode, all on the
/// same shared traces and scenario prep.
struct Inputs {
    config: CdnConfig,
    online: CdnSimulator,
    event: CdnSimulator,
    aggregate: CdnSimulator,
}

fn setup(seed: u64) -> Inputs {
    let config = config(seed);
    let shared = CdnShared::new();
    let online = shared.simulator(config.clone());
    let event = shared.simulator(config.clone().with_serving(ServingMode::EventLevel));
    let aggregate = shared.simulator(config.clone().with_serving(ServingMode::Aggregate));
    Inputs {
        config,
        online,
        event,
        aggregate,
    }
}

/// Checks one event-level year: served plus dropped conserves the
/// requests, which number streams × rate × seconds exactly.
fn conserves_requests(inputs: &Inputs, m: &ServingMetrics) -> bool {
    let streams = (inputs.online.site_count() * inputs.config.apps_per_site) as f64;
    let expected = streams * inputs.config.request_rate_rps * 3600.0 * m.hours as f64;
    let total = m.requests_total as f64;
    total == expected && (m.served + m.dropped - total).abs() <= CONSERVATION_TOLERANCE * total
}

/// One year's output checks against the first year's.
fn year_ok(inputs: &Inputs, result: &CdnResult, first: Option<&CdnResult>) -> bool {
    let Some(m) = &result.serving else {
        return false;
    };
    conserves_requests(inputs, m)
        && result.exact_decisions == 0
        // Online re-placement is deterministic: every year repeats the
        // first one's replacements, drops and outcome exactly.
        && first.is_none_or(|f| f.serving == result.serving && f.outcome == result.outcome)
}

fn run_year(simulator: &CdnSimulator, placer: &IncrementalPlacer) -> Option<CdnResult> {
    catch_unwind(AssertUnwindSafe(|| simulator.run_with(placer))).ok()
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
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let traced = tracer.is_some();
    let min_years = if traced { 2 * MIN_YEARS } else { MIN_YEARS };

    let mut probe = SpeedProbe::new();
    let mut first: Option<CdnResult> = None;
    // Untraced year times (ms) with the index of the probe taken before.
    let mut years: Vec<(f64, usize)> = Vec::new();
    // Per traced op: aggregate, event-level and online year, in ms.
    let mut traced_years: Vec<[f64; 3]> = Vec::new();
    let budget = Budget::new(args.seconds, min_years);
    let mut done = 0;
    while budget.more(done) {
        let traced_now = traced && done % 2 == 1;
        done += 1;
        probe.measure();
        if traced_now {
            let tracer = tracer.as_deref_mut().expect("traced runs have a tracer");
            let years = tracer.op("serving.year", |t| {
                [
                    t.span("sim.aggregate_year", |_| {
                        run_year(&inputs.aggregate, &placer)
                    }),
                    t.span("serving.event_year", |_| run_year(&inputs.event, &placer)),
                    t.span("serving.online_year", |_| run_year(&inputs.online, &placer)),
                ]
            });
            let spans = tracer.spans();
            let child_ms: Vec<f64> = spans
                .iter()
                .rev()
                .take_while(|s| s.parent.is_some())
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect();
            let ok = match years {
                Some([Some(aggregate), Some(event), Some(online)]) => {
                    traced_years.push([child_ms[2], child_ms[1], child_ms[0]]);
                    aggregate.serving.is_none()
                        && event
                            .serving
                            .is_some_and(|m| conserves_requests(inputs, &m))
                        && year_ok(inputs, &online, first.as_ref())
                }
                _ => false,
            };
            report.op(ok);
        } else {
            let started = Instant::now();
            let result = run_year(&inputs.online, &placer);
            let ms = report::ms_since(started);
            let ok = result
                .as_ref()
                .is_some_and(|r| year_ok(inputs, r, first.as_ref()));
            if ok {
                years.push((ms, probe.measured.len() - 1));
            }
            report.op(ok);
            if first.is_none() && ok {
                first = result;
            }
        }
    }

    probe.measure();
    let Some(first) = first else {
        report.fail("no simulated year completed");
        return;
    };
    let year_ms: Vec<f64> = years.iter().map(|(ms, _)| *ms).collect();
    let normalized: Vec<f64> = years
        .iter()
        .map(|&(ms, before)| probe.normalize(ms, before, before + 1))
        .collect();
    let metrics = first.serving.expect("checked years carry serving metrics");
    let streams = inputs.online.site_count() * inputs.config.apps_per_site;
    let batches = (streams * metrics.hours) as f64;
    let year_p50 = stats::median(&normalized).unwrap_or(0.0);
    let batches_per_s = if year_p50 > 0.0 {
        batches / (year_p50 / 1e3)
    } else {
        0.0
    };
    report.headline("batches_per_s", batches_per_s, "1/s", normalized.len());
    report.headline("year_ms_p50", year_p50, "ms", normalized.len());
    report.headline(
        "year_ms_p50_unnormalized",
        stats::median(&year_ms).unwrap_or(0.0),
        "ms",
        year_ms.len(),
    );
    report.speed(&probe);
    report.samples("year_ms", &year_ms);
    // Every checked year repeats the first one's drops exactly.
    report.headline("drop_pct", metrics.drop_percent(), "%", year_ms.len());
    report.end_to_end("throughput_per_s", batches_per_s);
    report.end_to_end("latency_ms_p50", year_p50);

    if traced {
        let column = |i: usize| traced_years.iter().map(|y| y[i]).collect::<Vec<f64>>();
        let diff = |a: usize, b: usize| {
            traced_years
                .iter()
                .map(|y| y[a] - y[b])
                .collect::<Vec<f64>>()
        };
        let n = traced_years.len();
        report.trace_summary(&year_ms, &column(2));
        report.layer(
            "sim.aggregate_year_ms",
            stats::median(&column(0)).unwrap_or(0.0),
            n,
        );
        report.layer(
            "serving.event_ms",
            stats::median(&diff(1, 0)).unwrap_or(0.0),
            n,
        );
        report.layer(
            "serving.online_replan_ms",
            stats::median(&diff(2, 1)).unwrap_or(0.0),
            n,
        );
        report.layer(
            "serving.online_replacements",
            metrics.online_replacements as f64,
            1,
        );
        report.layer("serving.batches", batches, 1);
        report.layer("serving.requests_total", metrics.requests_total as f64, 1);
        report.layer(
            "serving.rerouted_ratio",
            metrics.rerouted / metrics.requests_total.max(1) as f64,
            1,
        );
        report.layer("sim.epochs", first.epochs.len() as f64, 1);
        report.layer("sim.apps_placed", first.outcome.placed_apps as f64, 1);
        report.layer("sim.exact_decisions", first.exact_decisions as f64, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cell_is_the_seeded_online_serving_deployment() {
        let c = config(9);
        assert_eq!(c.serving, ServingMode::OnlineReplace);
        assert_eq!((c.apps_per_site, c.servers_per_site), (4, 1));
        assert_eq!(
            (c.site_limit, c.latency_limit_ms, c.seed),
            (Some(25), 30.0, 9)
        );
        assert_eq!(c.area, ZoneArea::Europe);
    }
}
