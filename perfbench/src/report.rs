//! The run's bookkeeping: metric registries, op and failure accounting,
//! set-up timing, the measurement budget, and the output lines.

use crate::speed::SpeedProbe;
use crate::stats::{self, Percentile};
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, with their units —
/// the `end_to_end` list of `BENCHMARK.json`.  Each workload maps its own
/// headline numbers onto them (see `README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units — the
/// `per_layer` list of `BENCHMARK.json`.  A workload that bypasses a layer
/// reports its metrics as 0: no time spent and no work done there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("trace.overhead_pct", "%"),
    ("trace.e2e_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.spread_pct", "%"),
    ("trace.sum_within_spread", "flag"),
    ("datasets.catalog_ms", "ms"),
    ("datasets.traces_ms", "ms"),
    ("sim.prep_ms", "ms"),
    ("sim.preps_built", "count"),
    ("sim.run_ms", "ms"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_p90", "ms"),
    ("sweep.report_ms", "ms"),
    ("sweep.executor_ms", "ms"),
    ("sim.epochs", "count"),
    ("sim.apps_placed", "count"),
    ("sim.exact_decisions", "count"),
    ("core.build_model_ms.cold", "ms"),
    ("core.build_model_ms.replan", "ms"),
    ("solver.solve_ms.cold", "ms"),
    ("solver.solve_ms.replan", "ms"),
    ("core.decode_ms.cold", "ms"),
    ("core.decode_ms.replan", "ms"),
    ("solver.pivots.cold", "count"),
    ("solver.pivots.replan", "count"),
    ("solver.master_pivots.cold", "count"),
    ("solver.master_pivots.replan", "count"),
    ("solver.columns_generated.cold", "count"),
    ("solver.columns_generated.replan", "count"),
    ("solver.pricing_rounds.cold", "count"),
    ("solver.pricing_rounds.replan", "count"),
    ("solver.refactorizations.cold", "count"),
    ("solver.refactorizations.replan", "count"),
    ("solver.peak_eta_len.cold", "count"),
    ("solver.peak_eta_len.replan", "count"),
    ("solver.bb_nodes.cold", "count"),
    ("solver.bb_nodes.replan", "count"),
    ("solver.devex_resets.cold", "count"),
    ("solver.devex_resets.replan", "count"),
    ("solver.bland_activations.cold", "count"),
    ("solver.bland_activations.replan", "count"),
    ("solver.milp_vars", "count"),
    ("solver.milp_rows", "count"),
    ("solver.replan_pivot_ratio", "ratio"),
    ("solver.zero_pivot_decisions", "count"),
    ("solver.replan_suboptimal", "count"),
    ("solver.replan_gap_max", "ratio"),
    ("solver.decomp_ratio", "ratio"),
    ("sim.aggregate_year_ms", "ms"),
    ("serving.event_ms", "ms"),
    ("serving.online_replan_ms", "ms"),
    ("serving.online_replacements", "count"),
    ("serving.batches", "count"),
    ("serving.requests_total", "count"),
    ("serving.rerouted_ratio", "ratio"),
];

/// Input builds before each run's timed loop; `setup_s` is the median of
/// these and the [`SETUP_AFTER`] builds after it.
pub const SETUP_BEFORE: usize = 3;
/// Input builds after each run's timed loop.
pub const SETUP_AFTER: usize = 2;

fn unit_of(registry: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    registry.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Accumulates one run's results and renders its output.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Starts a run and prints its header: what runs, and on which machine.
    pub fn new(args: &Args) -> Self {
        println!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\"",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model()
        );
        Self {
            trace: args.trace,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Counts one attempted op, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed output check against the ops it covers.
    pub fn fail(&mut self, what: impl Display) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
    }

    /// Prints a named end-to-end result with its unit and sample count.
    pub fn headline(&mut self, name: &str, value: f64, unit: &str, samples: impl Display) {
        println!("e2e   {name:<32} {value:>16.6} {unit:<6} n={samples}");
    }

    /// Prints a percentile with its sample count and tail size; a tail
    /// percentile with fewer than ten samples beyond it is flagged.
    pub fn percentile(&mut self, name: &str, p: Option<Percentile>, unit: &str) -> f64 {
        let Some(p) = p else {
            println!("e2e   {name:<32} {:>16} {unit:<6} n=0", "-");
            return 0.0;
        };
        let flag = if p.has_tail() || name.ends_with("p50") {
            ""
        } else {
            " (tail under 10 samples)"
        };
        println!(
            "e2e   {name:<32} {:>16.6} {unit:<6} n={} beyond={}{flag}",
            p.value, p.samples, p.beyond
        );
        p.value
    }

    /// Sets one of the [`END_TO_END`] metrics of the JSON line.
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(&END_TO_END, name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.insert(name, value);
    }

    /// Sets and prints one of the [`PER_LAYER`] metrics.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: impl Display) {
        let unit =
            unit_of(&PER_LAYER, name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        println!("layer {name:<32} {value:>16.6} {unit:<6} n={samples}");
        self.layers.insert(name, value);
    }

    /// Prints how fast the machine ran during the run: the median speed
    /// probe time and the factor op times were scaled by.
    pub fn speed(&mut self, probe: &SpeedProbe) {
        let probe_ms = stats::median(&probe.measured).unwrap_or(0.0);
        self.headline("speed_probe_ms_p50", probe_ms, "ms", probe.measured.len());
        self.headline(
            "speed_factor_p50",
            crate::speed::REFERENCE_MS / probe_ms,
            "ratio",
            probe.measured.len(),
        );
    }

    /// Prints the individual op times behind a median, for eyeballing
    /// drift and outliers within a run.
    pub fn samples(&mut self, name: &str, values: &[f64]) {
        let listed: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        println!("ops   {name:<32} {}", listed.join(" "));
    }

    /// Records the untraced-versus-traced comparison shared by every
    /// workload.  The runs alternate, so `untraced[i]` and `traced[i]` are
    /// the end-to-end times (ms) of one pair of neighbouring ops on the same
    /// inputs; a traced time is the sum of its layers' self times.  The
    /// tracing overhead is the median traced/untraced ratio, and its spread
    /// is the ratio's quartile distance: the layer shares sum to the
    /// untraced result within the measured spread when the overhead is no
    /// larger than that distance.
    pub fn trace_summary(&mut self, untraced: &[f64], traced: &[f64]) {
        let ratios: Vec<f64> = untraced
            .iter()
            .zip(traced)
            .filter(|(u, _)| **u > 0.0)
            .map(|(u, t)| t / u)
            .collect();
        let ratio = stats::median(&ratios).unwrap_or(1.0);
        let (q1, q3) = stats::quartiles(&ratios).unwrap_or((ratio, ratio));
        self.layer(
            "trace.e2e_ms",
            stats::median(untraced).unwrap_or(0.0),
            untraced.len(),
        );
        self.layer(
            "trace.layer_sum_ms",
            stats::median(traced).unwrap_or(0.0),
            traced.len(),
        );
        let overhead_pct = (ratio - 1.0) * 100.0;
        let spread_pct = (q3 - q1) / ratio * 100.0;
        self.layer("trace.overhead_pct", overhead_pct, ratios.len());
        self.layer("trace.spread_pct", spread_pct, ratios.len());
        let within = overhead_pct.abs() <= spread_pct;
        self.layer(
            "trace.sum_within_spread",
            f64::from(u8::from(within)),
            ratios.len(),
        );
    }

    /// Records the set-up times of the run's repeated input builds:
    /// `normalized` to the reference speed, and as measured.
    pub fn setup(&mut self, normalized: &[f64], measured: &[f64]) {
        let median = stats::median(normalized).unwrap_or(0.0);
        self.headline("setup_s", median, "s", normalized.len());
        self.headline(
            "setup_s_unnormalized",
            stats::median(measured).unwrap_or(0.0),
            "s",
            measured.len(),
        );
        self.end_to_end("setup_s", median);
    }

    /// Prints the closing lines and renders the final JSON line.
    pub fn finish(mut self) -> Result<String, String> {
        let rss = peak_rss_mb()?;
        self.headline("peak_rss_mb", rss, "MB", 1);
        self.end_to_end("peak_rss_mb", rss);
        let attempted = self.attempted.max(1);
        let failed = self.failed.min(attempted);
        self.headline(
            "failed_ratio",
            failed as f64 / attempted as f64,
            "ratio",
            attempted,
        );

        let mut fields = Vec::new();
        let mut finite = true;
        let registry: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in registry {
            let value = if self.trace {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                *self
                    .end_to_end
                    .get(name)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?
            };
            finite &= value.is_finite();
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = failed == 0 && finite && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// Stops a closed loop once `seconds` have passed and at least `min_ops`
/// ops have completed.
pub struct Budget {
    deadline: Instant,
    min_ops: usize,
}

impl Budget {
    /// A budget starting now.
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Self {
            deadline: Instant::now() + std::time::Duration::from_secs_f64(seconds),
            min_ops,
        }
    }

    /// Whether another op should start after `done` completed ones.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || Instant::now() < self.deadline
    }
}

/// Times the builds of a run's inputs.  `setup_s` is the median of
/// [`SETUP_BEFORE`] builds before the timed loop and [`SETUP_AFTER`] after
/// it, so the median samples the machine at both ends of the run rather
/// than at one moment.  Like op times, each build's time is scaled to the
/// reference speed by speed probes taken right before and after it.
pub struct Setup<F> {
    build: F,
    probe: SpeedProbe,
    measured: Vec<f64>,
    normalized: Vec<f64>,
}

impl<F> Setup<F> {
    /// Wraps the function that builds the run's inputs.
    pub fn new(build: F) -> Self {
        Self {
            build,
            probe: SpeedProbe::new(),
            measured: Vec::with_capacity(SETUP_BEFORE + SETUP_AFTER),
            normalized: Vec::with_capacity(SETUP_BEFORE + SETUP_AFTER),
        }
    }

    fn timed<T>(&mut self) -> T
    where
        F: Fn() -> T,
    {
        self.probe.measure();
        let started = Instant::now();
        let built = std::hint::black_box((self.build)());
        let seconds = started.elapsed().as_secs_f64();
        self.probe.measure();
        let after = self.probe.measured.len() - 1;
        self.measured.push(seconds);
        self.normalized
            .push(self.probe.normalize(seconds, after - 1, after));
        built
    }

    /// Builds the inputs [`SETUP_BEFORE`] times and returns the last build.
    pub fn before<T>(&mut self) -> T
    where
        F: Fn() -> T,
    {
        let mut built = self.timed();
        for _ in 1..SETUP_BEFORE {
            // Drop the previous build first so memory holds one copy.
            drop(built);
            built = self.timed();
        }
        built
    }

    /// Builds the inputs [`SETUP_AFTER`] more times, discarding them, and
    /// records `setup_s`.  Call it once the run's inputs are dropped.
    pub fn after<T>(mut self, report: &mut Report)
    where
        F: Fn() -> T,
    {
        for _ in 0..SETUP_AFTER {
            drop(self.timed());
        }
        report.setup(&self.normalized, &self.measured);
    }
}

/// Milliseconds elapsed since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Where a traced run writes its spans: next to the benchmark binary, in
/// the build directory.
pub fn spans_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    dir.join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

/// Peak resident memory of this process, from the kernel's `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
        let body = &json[start..];
        let end = body.find(']').expect("the list is closed");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| chunk.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn registries_match_benchmark_json() {
        let json = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits at the repository root");
        let listed = |registry: &[(&str, &str)]| -> Vec<String> {
            registry.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_in(&json, "end_to_end"), listed(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), listed(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with another unit than {unit}"
            );
        }
    }

    #[test]
    fn setup_builds_before_and_after_the_loop() {
        let mut report = Report {
            trace: false,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
        };
        let calls = std::cell::Cell::new(0);
        let mut setup = Setup::new(|| {
            calls.set(calls.get() + 1);
            calls.get()
        });
        assert_eq!(setup.before(), SETUP_BEFORE);
        setup.after(&mut report);
        assert_eq!(calls.get(), SETUP_BEFORE + SETUP_AFTER);
        assert!(report.end_to_end["setup_s"] >= 0.0);
    }

    #[test]
    fn budget_honours_the_minimum_op_count() {
        let budget = Budget::new(1e-9, 3);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(budget.more(2));
        assert!(!budget.more(3));
    }

    #[test]
    fn peak_rss_is_read_from_the_kernel() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.0 && mb < 1e6, "{mb}");
    }
}
