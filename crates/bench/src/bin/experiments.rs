//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--sweep] [--forecast] [--migration] [--serving]
//!             [--jobs N] [--bench-json DIR] [--all --out DIR]
//!             [all | fig1 | fig2 | fig3 | fig4 | fig5 | table1 |
//!              fig7 | fig8 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 |
//!              fig15 | fig16 | fig17]
//! ```
//!
//! Each experiment prints the rows/series the paper reports.  `--quick`
//! restricts the CDN-scale simulations to a subset of edge sites so the full
//! suite finishes quickly; without it the full 496-site catalog is simulated.
//!
//! `--sweep` runs the declarative scenario grid (area × demand scenario ×
//! latency limit × policy) through the parallel sweep engine; with no
//! experiment names it replaces the figure suite, while named figures still
//! run after the sweep.  `--jobs N` sets the sweep engine's worker count
//! (default: one per CPU), for these grids and for Figs. 11, 12 and 14,
//! which run through the same engine.  Their output is identical for any
//! job count.
//!
//! `--forecast` runs the forecaster × epoch-schedule grid and prints the
//! forecast-regret table (realized carbon versus the oracle replay per
//! policy × forecaster × epoch); it composes with `--quick`, `--jobs` and
//! named figures exactly like `--sweep`.
//!
//! `--migration` runs the epoch-schedule × migration-cost grid and prints
//! the churn-vs-savings table (moves, migration carbon and net savings per
//! policy × epoch × migration level); it composes with `--quick`, `--jobs`
//! and named figures exactly like `--sweep`.
//!
//! `--serving` runs the serving-mode × policy grid and prints the serving
//! table (tail latency, drop rate and utilization next to carbon savings
//! per policy × serving mode); it composes with `--quick`, `--jobs` and
//! named figures exactly like `--sweep`.
//!
//! `--bench-json DIR` measures the solver, sweep and serving performance
//! snapshots and writes `BENCH_solver.json` / `BENCH_sweep.json` /
//! `BENCH_serving.json` into `DIR`; like `--sweep` it replaces the figure
//! suite unless figures are named explicitly.
//!
//! `--all --out DIR` is the one-command artifact pipeline: every figure and
//! table of the suite plus all four sweep-engine tables and the three
//! `BENCH_*.json` snapshots are written into `DIR` as individual files
//! (figures run in child processes so each one's stdout lands in its own
//! file).  It composes with `--quick` and `--jobs`.

use carbonedge_analysis::mesoscale::{
    region_latency_table, RegionSnapshot, RegionYearly, TemporalProfile,
};
use carbonedge_analysis::RadiusAnalysis;
use carbonedge_bench::summary;
use carbonedge_core::{
    IncrementalPlacer, PlacementPolicy, PlacementProblem, PlacementSkeleton, ServerSnapshot,
};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, MesoscaleRegion, StudyRegion};
use carbonedge_grid::{EnergySource, HourOfYear};
use carbonedge_net::LatencyModel;
use carbonedge_sim::cdn::{CdnScenario, CdnShared};
use carbonedge_sim::hetero::{run_heterogeneity, HeterogeneityConfig};
use carbonedge_sim::metrics::Savings;
use carbonedge_sim::testbed::{run_testbed, TestbedConfig, TestbedWorkload};
use carbonedge_sim::TradeoffSweep;
use carbonedge_sweep::spec::area_name;
use carbonedge_sweep::{CellResult, SavingsRow, SweepReport, SweepSpec};
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, WorkloadProfile};
use std::time::Instant;

const SEED: u64 = 42;

const EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
];

fn print_usage() {
    println!("experiments: regenerate the tables and figures of the CarbonEdge paper");
    println!();
    println!(
        "usage: experiments [--quick] [--sweep] [--forecast] [--migration] [--serving] \
         [--jobs N] [--bench-json DIR] [--all --out DIR] [all | {}]",
        EXPERIMENTS.join(" | ")
    );
    println!();
    println!("  --quick           restrict CDN-scale simulations to a subset of edge sites");
    println!("  --sweep           run the declarative scenario grid through the parallel");
    println!("                    sweep engine (replaces the figure suite unless figures");
    println!("                    are named explicitly, which then run after the sweep)");
    println!("  --forecast        run the forecaster x epoch grid and print the");
    println!("                    forecast-regret table (realized carbon vs the oracle");
    println!("                    replay; composes with --quick/--jobs like --sweep)");
    println!("  --migration       run the epoch x migration-cost grid and print the");
    println!("                    churn-vs-savings table (moves, migration carbon and net");
    println!("                    savings; composes with --quick/--jobs like --sweep)");
    println!("  --serving         run the serving-mode x policy grid and print the");
    println!("                    serving table (tail latency and drops vs carbon");
    println!("                    savings; composes with --quick/--jobs like --sweep)");
    println!("  --jobs N          worker threads for --sweep/--forecast/--migration/");
    println!("                    --serving and figs 11, 12, 14 (default: one per CPU)");
    println!("  --bench-json DIR  measure solver/sweep/serving perf and write");
    println!("                    BENCH_solver.json, BENCH_sweep.json and");
    println!("                    BENCH_serving.json into DIR (replaces the figure");
    println!("                    suite unless figures are named explicitly)");
    println!("  --all --out DIR   write every figure, every sweep-engine table and all");
    println!("                    BENCH_*.json snapshots into DIR as individual files");
    println!("  (no experiment names runs the full suite)");
}

/// Prints `error: {message}` and a blank line on stderr and the usage on
/// stdout, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!();
    print_usage();
    std::process::exit(2);
}

/// Parses a `--<name> DIR` / `--<name>=DIR` flag out of the argument list,
/// removing the consumed tokens.  Shared by `--bench-json` and `--out`.  A
/// missing or empty directory, one starting with `-` (the next flag, most
/// likely) and a repeated flag are errors.
fn take_dir_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut dir = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == flag {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            args.drain(i..args.len().min(i + 2));
            value
        } else if let Some(value) = args[i].strip_prefix(&prefix) {
            let value = value.to_string();
            args.remove(i);
            value
        } else {
            i += 1;
            continue;
        };
        if value.is_empty() || value.starts_with('-') {
            return Err(format!("{flag} requires a directory"));
        }
        if dir.is_some() {
            return Err(format!("{flag} given more than once"));
        }
        dir = Some(value);
    }
    Ok(dir)
}

/// Measures the solver and sweep perf snapshots and writes them into `dir`.
fn run_bench_json(dir: &str, quick: bool) {
    header(&format!(
        "Perf snapshots ({} sampling)",
        if quick { "quick" } else { "full" }
    ));
    match carbonedge_bench::bench_json::write_bench_json(std::path::Path::new(dir), quick) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {}", path.display());
            }
        }
        Err(err) => {
            eprintln!("error: could not write bench snapshots to `{dir}`: {err}");
            std::process::exit(1);
        }
    }
}

/// The table a sweep-engine grid prints (`SweepReport::render` or one of
/// its `render_*` siblings).
type Render = fn(&SweepReport) -> String;

/// Runs one sweep-engine grid and prints `render` of its report under
/// `title`, with the run's footer on stderr.
fn print_grid(title: &str, spec: &SweepSpec, jobs: usize, render: Render) {
    header(title);
    let report = summary::run(spec, jobs);
    print!("{}", render(&report));
    eprintln!("\n{}", report.footer());
}

/// Writes one artifact file, exiting with a diagnostic on failure.
fn write_artifact(dir: &std::path::Path, name: &str, contents: &[u8]) {
    let path = dir.join(name);
    if let Err(err) = std::fs::write(&path, contents) {
        eprintln!("error: could not write `{}`: {err}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// The `--all --out DIR` artifact pipeline: every figure of the suite (each
/// captured from a child process into its own file), the four sweep-engine
/// tables, and the three `BENCH_*.json` snapshots.
fn run_all_artifacts(dir: &str, quick: bool, jobs: usize) {
    let out = std::path::Path::new(dir);
    if let Err(err) = std::fs::create_dir_all(out) {
        eprintln!("error: could not create `{dir}`: {err}");
        std::process::exit(1);
    }
    header(&format!(
        "Artifact pipeline ({} mode) -> {}",
        if quick { "quick" } else { "full" },
        out.display()
    ));

    // Figures re-run in child processes so each one's stdout lands in its
    // own file without re-plumbing every figure through a writer.
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("error: could not locate the experiments binary: {err}");
            std::process::exit(1);
        }
    };
    for name in EXPERIMENTS {
        let mut command = std::process::Command::new(&exe);
        if quick {
            command.arg("--quick");
        }
        // Figs. 11, 12 and 14 run on the sweep engine's workers.
        if jobs != 0 {
            command.arg(format!("--jobs={jobs}"));
        }
        match command.arg(name).output() {
            Ok(output) if output.status.success() => {
                write_artifact(out, &format!("{name}.txt"), &output.stdout);
            }
            Ok(output) => {
                eprintln!(
                    "error: `{name}` exited with {}:\n{}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                );
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("error: could not run `{name}`: {err}");
                std::process::exit(1);
            }
        }
    }

    // The sweep-engine tables run in-process so they honor `--jobs`.
    let tables: [(&str, SweepSpec, Render); 4] = [
        ("sweep.txt", summary::sweep_spec(quick), SweepReport::render),
        (
            "forecast.txt",
            summary::forecast_spec(quick),
            SweepReport::render_forecast_regret,
        ),
        (
            "migration.txt",
            summary::migration_spec(quick),
            SweepReport::render_migration,
        ),
        (
            "serving.txt",
            summary::serving_spec(quick),
            SweepReport::render_serving,
        ),
    ];
    for (name, spec, render) in tables {
        write_artifact(out, name, render(&summary::run(&spec, jobs)).as_bytes());
    }

    run_bench_json(dir, quick);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let jobs = carbonedge_sweep::take_jobs_flag(&mut args).unwrap_or_else(|e| usage_error(&e));
    let bench_json = take_dir_flag(&mut args, "bench-json").unwrap_or_else(|e| usage_error(&e));
    let out_dir = take_dir_flag(&mut args, "out").unwrap_or_else(|e| usage_error(&e));
    let quick = args.iter().any(|a| a == "--quick");
    let sweep = args.iter().any(|a| a == "--sweep");
    let forecast = args.iter().any(|a| a == "--forecast");
    let migration = args.iter().any(|a| a == "--migration");
    let serving = args.iter().any(|a| a == "--serving");
    let all_flag = args.iter().any(|a| a == "--all" || a == "all");
    if let Some(dir) = &out_dir {
        if !all_flag {
            usage_error("--out only applies to the `--all` artifact pipeline");
        }
        run_all_artifacts(dir, quick, jobs);
        return;
    }
    if args.iter().any(|a| a == "--all") {
        usage_error("--all requires --out DIR (use `all` to print the full suite)");
    }
    let which: Vec<&str> = args
        .iter()
        .filter(|a| {
            *a != "--quick"
                && *a != "--sweep"
                && *a != "--forecast"
                && *a != "--migration"
                && *a != "--serving"
        })
        .map(|s| s.as_str())
        .collect();
    if let Some(unknown) = which
        .iter()
        .find(|a| **a != "all" && !EXPERIMENTS.contains(a))
    {
        usage_error(&format!("unknown experiment `{unknown}`"));
    }
    let preamble = Instant::now();
    let grid = if quick { "quick grid" } else { "full grid" };
    if sweep {
        print_grid(
            &format!(
                "Scenario sweep ({})",
                if quick { "quick grid" } else { "default grid" }
            ),
            &summary::sweep_spec(quick),
            jobs,
            SweepReport::render,
        );
    }
    if forecast {
        print_grid(
            &format!("Forecast regret ({grid})"),
            &summary::forecast_spec(quick),
            jobs,
            SweepReport::render_forecast_regret,
        );
    }
    if migration {
        print_grid(
            &format!("Migration churn ({grid})"),
            &summary::migration_spec(quick),
            jobs,
            SweepReport::render_migration,
        );
    }
    if serving {
        print_grid(
            &format!("Event-level serving ({grid})"),
            &summary::serving_spec(quick),
            jobs,
            SweepReport::render_serving,
        );
    }
    if let Some(dir) = &bench_json {
        run_bench_json(dir, quick);
    }
    if (sweep || forecast || migration || serving || bench_json.is_some()) && which.is_empty() {
        eprintln!(
            "\n[experiments completed in {:.1} s]",
            preamble.elapsed().as_secs_f64()
        );
        return;
    }
    let run_all = which.is_empty() || which.contains(&"all");
    let should = |name: &str| run_all || which.contains(&name);

    let started = Instant::now();
    // The seed-42 world the figures outside the sweep engine read: one zone
    // catalog, and one trace year generated on first use.
    let world = CdnShared::new();
    if should("fig1") {
        fig1(&world);
    }
    if should("fig2") {
        fig2(&world);
    }
    if should("fig3") {
        fig3(&world);
    }
    if should("fig4") {
        fig4(&world);
    }
    if should("fig5") {
        fig5(&world);
    }
    if should("table1") {
        table1(&world);
    }
    if should("fig7") {
        fig7();
    }
    if should("fig8") || should("fig9") || should("fig10") {
        testbed_figures(should("fig8"), should("fig9"), should("fig10"));
    }
    if should("fig11") {
        fig11(quick, jobs);
    }
    if should("fig12") {
        fig12(quick, jobs);
    }
    if should("fig13") {
        fig13(&world, quick);
    }
    if should("fig14") {
        fig14(quick, jobs);
    }
    if should("fig15") {
        fig15();
    }
    if should("fig16") {
        fig16();
    }
    if should("fig17") {
        fig17(&world);
    }
    eprintln!(
        "\n[experiments completed in {:.1} s]",
        started.elapsed().as_secs_f64()
    );
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Figure 1: energy mix and carbon intensity of four reference zones.
fn fig1(world: &CdnShared) {
    header("Figure 1: energy mix and carbon intensity of four reference zones");
    let catalog = world.catalog();
    let traces = world.traces(SEED);
    let zones = ["Ontario", "California North", "New York", "Warsaw, PL"];
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>14}",
        "zone", "hydro", "solar", "wind", "nuclear", "fossil", "mean gCO2/kWh"
    );
    for name in zones {
        let record = catalog.by_name(name).unwrap();
        let mix = record.profile().mix;
        let trace = &traces[record.id.index()];
        println!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>14.1}",
            name,
            mix.share(EnergySource::Hydro),
            mix.share(EnergySource::Solar),
            mix.share(EnergySource::Wind),
            mix.share(EnergySource::Nuclear),
            mix.fossil_share(),
            trace.mean(),
        );
    }
    println!("\nhourly carbon intensity, July 15-18 (6-hour samples):");
    for name in zones {
        let record = catalog.by_name(name).unwrap();
        let trace = &traces[record.id.index()];
        let series: Vec<String> = (0..16)
            .map(|k| format!("{:.0}", trace.at(HourOfYear::new((195 * 24) + k * 6))))
            .collect();
        println!("  {:<18} {}", name, series.join(" "));
    }
}

/// Figure 2: single-hour carbon-intensity snapshots of the mesoscale regions.
fn fig2(world: &CdnShared) {
    header("Figure 2: mesoscale region snapshots (inter-zone variation)");
    let regions = MesoscaleRegion::all(world.catalog());
    let traces = world.traces(SEED);
    println!(
        "{:<12} {:>10} | per-zone intensity (g CO2eq/kWh)",
        "region", "variation"
    );
    for region in &regions {
        let (_, snap) = RegionSnapshot::most_varied_hour(region, &traces);
        let zones: Vec<String> = snap
            .intensities
            .iter()
            .map(|(n, v)| format!("{n}={v:.0}"))
            .collect();
        println!(
            "{:<12} {:>9.1}x | {}",
            snap.region,
            snap.variation_factor,
            zones.join(", ")
        );
    }
    println!("(paper reports 2.5x Florida, 7.9x West US, 2.2x Italy, 19.5x Central EU)");
}

/// Figure 3: yearly mean carbon intensity per zone of two regions.
fn fig3(world: &CdnShared) {
    header("Figure 3: yearly mean carbon intensity (West US and Central EU)");
    let regions = MesoscaleRegion::all(world.catalog());
    let traces = world.traces(SEED);
    for region in &regions {
        if region.region != StudyRegion::WestUs && region.region != StudyRegion::CentralEu {
            continue;
        }
        let yearly = RegionYearly::compute(region, &traces);
        println!(
            "{} (spread {:.1}x; paper: {}):",
            yearly.region,
            yearly.spread,
            if region.region == StudyRegion::WestUs {
                "2.7x"
            } else {
                "10.8x"
            }
        );
        for (name, mean) in &yearly.means {
            println!("  {:<16} {:>8.1} g/kWh", name, mean);
        }
    }
}

/// Figure 4: two-day and monthly carbon-intensity variation in the West US.
fn fig4(world: &CdnShared) {
    header("Figure 4: spatial-temporal variation, West US");
    let regions = MesoscaleRegion::all(world.catalog());
    let traces = world.traces(SEED);
    let west = regions
        .iter()
        .find(|r| r.region == StudyRegion::WestUs)
        .unwrap();
    let profile = TemporalProfile::compute(west, &traces, 358);
    println!("two-day series (Dec 25-27), 4-hour samples:");
    for (name, series) in &profile.two_day {
        let samples: Vec<String> = series
            .iter()
            .step_by(4)
            .map(|v| format!("{v:.0}"))
            .collect();
        println!("  {:<12} {}", name, samples.join(" "));
    }
    println!("\nmonthly means:");
    for (name, series) in &profile.monthly {
        let samples: Vec<String> = series.iter().map(|v| format!("{v:.0}")).collect();
        println!("  {:<12} {}", name, samples.join(" "));
    }
    println!(
        "max monthly swing: {:.0} g/kWh (paper: ~200 g for Kingman)",
        profile.max_monthly_swing()
    );
}

/// Figure 5: carbon savings within a search radius, across the CDN sites.
fn fig5(world: &CdnShared) {
    header("Figure 5: best carbon saving within radius D across edge sites");
    let sites = EdgeSiteCatalog::akamai_like(world.catalog());
    let traces = world.traces(SEED);
    let model = LatencyModel::deterministic();
    println!(
        "{:>8} {:>14} {:>14} {:>18}",
        "radius", "saving<20%", "saving>40%", "median latency ms"
    );
    for radius in [200.0, 500.0, 1000.0] {
        let analysis = RadiusAnalysis::run(&sites, &traces, &model, radius);
        println!(
            "{:>6}km {:>14.2} {:>14.2} {:>18.1}",
            radius,
            analysis.fraction_below(20.0),
            analysis.fraction_above(40.0),
            analysis.median_latency_ms()
        );
    }
    println!("(paper: <20% fractions 0.68/0.43/0.22, >40% fractions 0.12/0.27/0.45, median latency 5.3-14.3 ms)");
}

/// Table 1: one-way latency between edge data centers in Florida and Central EU.
fn table1(world: &CdnShared) {
    header("Table 1: one-way network latency (ms)");
    let regions = MesoscaleRegion::all(world.catalog());
    let model = LatencyModel::deterministic();
    for region in &regions {
        if region.region != StudyRegion::Florida && region.region != StudyRegion::CentralEu {
            continue;
        }
        let table = region_latency_table(region, &model);
        println!("\n{}:", region.region.name());
        print!("{:<16}", "");
        for name in table.names() {
            print!("{:>14}", name.split(',').next().unwrap());
        }
        println!();
        for i in 0..table.len() {
            print!("{:<16}", table.names()[i].split(',').next().unwrap());
            for j in 0..table.len() {
                if i == j {
                    print!("{:>14}", "-");
                } else {
                    print!("{:>14.2}", table.one_way(i, j));
                }
            }
            println!();
        }
    }
}

/// Figure 7: profiled energy, memory, and inference time of the ML workloads.
fn fig7() {
    header("Figure 7: workload profiles across devices");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>14}",
        "model", "device", "energy J", "memory MB", "inference ms"
    );
    for p in WorkloadProfile::all() {
        println!(
            "{:<16} {:<12} {:>12.3} {:>12.0} {:>14.1}",
            p.model.name(),
            p.device.name(),
            p.energy_per_request_j,
            p.memory_mb,
            p.processing_time_ms
        );
    }
}

/// Figures 8-10: the regional testbed experiments.
fn testbed_figures(fig8: bool, fig9: bool, fig10: bool) {
    let configs = [
        (StudyRegion::Florida, TestbedWorkload::SciCpu),
        (StudyRegion::Florida, TestbedWorkload::ResNet50),
        (StudyRegion::CentralEu, TestbedWorkload::SciCpu),
        (StudyRegion::CentralEu, TestbedWorkload::ResNet50),
    ];
    let results: Vec<_> = configs
        .iter()
        .map(|(r, w)| run_testbed(&TestbedConfig::new(*r, *w)))
        .collect();

    if fig8 {
        header("Figure 8: carbon intensity and emissions across Florida zones (Sci)");
        let fl = &results[0];
        println!("hourly carbon intensity (4-hour samples):");
        for (name, series) in &fl.hourly_intensity {
            let s: Vec<String> = series
                .iter()
                .step_by(4)
                .map(|v| format!("{v:.0}"))
                .collect();
            println!("  {:<14} {}", name, s.join(" "));
        }
        for policy in ["Latency-aware", "CarbonEdge"] {
            let p = fl.policy(policy).unwrap();
            println!("\n{policy} hourly emissions per origin zone (g, 4-hour samples):");
            for (name, series) in &p.hourly_emissions {
                let s: Vec<String> = series
                    .iter()
                    .step_by(4)
                    .map(|v| format!("{v:.1}"))
                    .collect();
                println!("  {:<14} {}", name, s.join(" "));
            }
        }
    }
    if fig9 {
        header("Figure 9: end-to-end response times across Florida zones (ResNet50)");
        let fl = &results[1];
        println!(
            "{:<14} {:>16} {:>16}",
            "origin", "Latency-aware ms", "CarbonEdge ms"
        );
        let la = fl.policy("Latency-aware").unwrap();
        let ce = fl.policy("CarbonEdge").unwrap();
        for ((name, rt_la), (_, rt_ce)) in
            la.response_time_ms.iter().zip(ce.response_time_ms.iter())
        {
            println!("{:<14} {:>16.1} {:>16.1}", name, rt_la, rt_ce);
        }
    }
    if fig10 {
        header("Figure 10: aggregate emissions and latency increases (testbed)");
        println!(
            "{:<12} {:<10} {:>18} {:>16} {:>14} {:>18}",
            "region", "workload", "Latency-aware g", "CarbonEdge g", "saving %", "latency +ms"
        );
        for ((region, workload), result) in configs.iter().zip(results.iter()) {
            let la = result.policy("Latency-aware").unwrap().outcome.carbon_g;
            let ce = result.policy("CarbonEdge").unwrap().outcome.carbon_g;
            println!(
                "{:<12} {:<10} {:>18.1} {:>16.1} {:>14.1} {:>18.1}",
                region.name(),
                workload.name(),
                la,
                ce,
                result.savings.carbon_percent,
                result.savings.latency_increase_ms
            );
        }
        println!("(paper: 39.4% Florida / 78.7% Central EU savings; +6.6 / +10.5 ms)");
    }
}

/// The deployment of Figs. 11–14: both continents at `SweepSpec::new`'s
/// defaults (the paper's CDN setup), on 80 sites each under `--quick`.
fn cdn_spec(name: &str, quick: bool) -> SweepSpec {
    SweepSpec::new(name)
        .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
        .with_site_limit(quick.then_some(80))
}

/// The figures' continent label: `area_name`, but "Europe" for "EU".
fn area_label(area: ZoneArea) -> &'static str {
    match area {
        ZoneArea::Europe => "Europe",
        _ => area_name(area),
    }
}

/// Each CarbonEdge cell of `report` in cell order (area, then scenario, then
/// latency limit), with its Latency-aware cell and the savings between them.
fn compared(report: &SweepReport) -> Vec<(&CellResult, &CellResult, Savings)> {
    let pair = |row: SavingsRow| {
        let cells = &report.cells;
        (
            &cells[row.cell_index],
            &cells[row.baseline_index],
            row.savings,
        )
    };
    report.savings_rows().into_iter().map(pair).collect()
}

/// Figure 11: year-long CDN savings, latency increases and load distribution.
fn fig11(quick: bool, jobs: usize) {
    header("Figure 11: year-long CDN-scale savings (20 ms RTT limit)");
    println!(
        "{:<8} {:>12} {:>16} {:>22} {:>22}",
        "area", "saving %", "latency +ms", "mean assigned g/kWh", "(Latency-aware g/kWh)"
    );
    for (cell, la, savings) in compared(&summary::run(&cdn_spec("fig11", quick), jobs)) {
        println!(
            "{:<8} {:>12.1} {:>16.1} {:>22.1} {:>22.1}",
            area_label(cell.cell.area),
            savings.carbon_percent,
            savings.latency_increase_ms,
            cell.mean_assigned_intensity,
            la.mean_assigned_intensity
        );
    }
    println!("(paper: 49.5% US / 67.8% Europe, ~+10.8 / +10.5 ms)");
}

/// Figure 12: effect of the latency limit on savings and latency increase.
fn fig12(quick: bool, jobs: usize) {
    header("Figure 12: effect of latency tolerance (RTT limit sweep)");
    println!(
        "{:<8} {:>10} {:>12} {:>14}",
        "area", "limit ms", "saving %", "latency +ms"
    );
    let spec =
        cdn_spec("fig12", quick).with_latency_limits(vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]);
    for (cell, _, savings) in compared(&summary::run(&spec, jobs)) {
        println!(
            "{:<8} {:>10.0} {:>12.1} {:>14.1}",
            area_label(cell.cell.area),
            cell.cell.latency_limit_ms,
            savings.carbon_percent,
            savings.latency_increase_ms
        );
    }
    println!("(paper: 28% US / 44.8% EU at 10 ms; diminishing returns beyond ~25 ms)");
}

/// Figure 13: seasonality of savings, latency, intensity and placements.
fn fig13(world: &CdnShared, quick: bool) {
    header("Figure 13: seasonality (monthly savings, latency, intensity, placements)");
    // One cell per continent; `compare` runs both policies on it.
    let spec = cdn_spec("fig13", quick).with_policies(vec![PlacementPolicy::CarbonAware]);
    for cell in spec.cells() {
        let sim = world.simulator(cell.config());
        let (ce, la, _) = sim.compare();
        let savings: Vec<String> = ce
            .monthly
            .iter()
            .zip(la.monthly.iter())
            .map(|(c, l)| format!("{:.0}", (1.0 - c.carbon_g / l.carbon_g) * 100.0))
            .collect();
        let latency: Vec<String> = ce
            .monthly
            .iter()
            .zip(la.monthly.iter())
            .map(|(c, l)| format!("{:.1}", c.mean_latency_ms - l.mean_latency_ms))
            .collect();
        let label = area_label(cell.area);
        println!("{label} monthly savings %:   {}", savings.join(" "));
        println!("{label} monthly latency +ms: {}", latency.join(" "));
        if cell.area == ZoneArea::Europe {
            println!("\nmonthly carbon intensity of reference zones (g/kWh):");
            for zone in ["Paris, FR", "Oslo, NO", "Vienna, AT", "Zagreb, HR"] {
                if let Some(series) = sim.monthly_intensity_of(zone) {
                    let s: Vec<String> = series.iter().map(|v| format!("{v:.0}")).collect();
                    println!("  {:<12} {}", zone, s.join(" "));
                }
            }
            println!("\nmonthly applications placed at reference sites:");
            for site in ["Paris, FR", "Oslo, NO", "Vienna, AT", "Zagreb, HR"] {
                if let Some(series) = ce.monthly_placements_for(site) {
                    let s: Vec<String> = series.iter().map(|v| v.to_string()).collect();
                    println!("  {:<12} {}", site, s.join(" "));
                }
            }
        }
    }
}

/// Figure 14: effect of population-skewed demand and capacity.
fn fig14(quick: bool, jobs: usize) {
    header("Figure 14: effect of demand and capacity skew");
    println!(
        "{:<8} {:<10} {:>12} {:>14}",
        "area", "scenario", "saving %", "latency +ms"
    );
    let spec = cdn_spec("fig14", quick).with_scenarios(vec![
        CdnScenario::Homogeneous,
        CdnScenario::PopulationDemand,
        CdnScenario::PopulationCapacity,
    ]);
    for (cell, _, savings) in compared(&summary::run(&spec, jobs)) {
        println!(
            "{:<8} {:<10} {:>12.1} {:>14.1}",
            area_label(cell.cell.area),
            cell.cell.scenario.name(),
            savings.carbon_percent,
            savings.latency_increase_ms
        );
    }
    println!("(paper: skew changes US savings by up to ~6%, EU by <1.6%)");
}

/// Figure 15: heterogeneity across devices and policies.
fn fig15() {
    header("Figure 15: carbon and energy across heterogeneous resources");
    let results = run_heterogeneity(&HeterogeneityConfig::default());
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>12}",
        "cluster", "policy", "carbon g", "energy kJ", "latency ms"
    );
    for r in &results {
        println!(
            "{:<12} {:<16} {:>14.1} {:>14.1} {:>12.1}",
            r.cluster,
            r.policy,
            r.outcome.carbon_g,
            r.outcome.energy_j / 1000.0,
            r.outcome.mean_latency_ms
        );
    }
    println!("(paper: CarbonEdge cuts carbon by 98%/79%/63% vs Latency-/Intensity-/Energy-aware on the heterogeneous cluster)");
}

/// Figure 16: carbon-energy trade-off (alpha sweep).
fn fig16() {
    header("Figure 16: carbon-energy trade-off (alpha sweep)");
    for high in [false, true] {
        let sweep = TradeoffSweep::run(high, &TradeoffSweep::default_alphas());
        println!(
            "\n{} utilization (Latency-aware: {:.1} g, {:.1} kJ):",
            if high { "high" } else { "low" },
            sweep.latency_aware.carbon_g,
            sweep.latency_aware.energy_j / 1000.0
        );
        println!(
            "{:>6} {:>14} {:>14} {:>18}",
            "alpha", "carbon g", "energy kJ", "savings retained"
        );
        for p in &sweep.points {
            let retained = sweep.retained_savings_fraction(p.alpha).unwrap_or(f64::NAN);
            println!(
                "{:>6.1} {:>14.1} {:>14.1} {:>17.0}%",
                p.alpha,
                p.outcome.carbon_g,
                p.outcome.energy_j / 1000.0,
                retained * 100.0
            );
        }
    }
    println!(
        "(paper: alpha=0.1 retains 97.5% of savings while cutting energy 67% at low utilization)"
    );
}

/// Figure 17 / Section 6.5: placement runtime and memory scalability.
fn fig17(world: &CdnShared) {
    header("Figure 17: placement runtime vs number of servers and applications");
    let catalog = world.catalog();
    let traces = world.traces(SEED);
    let build_problem = |apps: usize, servers: usize| -> PlacementProblem {
        let zone_count = catalog.len();
        let server_list: Vec<ServerSnapshot> = (0..servers)
            .map(|j| {
                let zone = &catalog.records()[j % zone_count];
                ServerSnapshot::new(j, j, zone.id, DeviceKind::A2, zone.location)
                    .with_carbon_intensity(traces[zone.id.index()].mean())
            })
            .collect();
        let app_list: Vec<Application> = (0..apps)
            .map(|i| {
                // Applications originate at zones that host a server, so every
                // application has at least one latency-feasible candidate.
                let zone = &catalog.records()[(i * 7) % servers.min(zone_count)];
                Application::new(AppId(i), ModelKind::ResNet50, 10.0, 40.0, zone.location, 0)
            })
            .collect();
        PlacementProblem::new(server_list, app_list, 1.0)
            .with_latency_model(LatencyModel::deterministic())
    };
    let sizes: Vec<(usize, usize)> = [100, 200, 300, 400]
        .map(|servers| (servers, 50))
        .into_iter()
        .chain([20, 60, 100, 140].map(|apps| (400, apps)))
        .collect();
    let problems: Vec<PlacementProblem> = sizes
        .iter()
        .map(|&(servers, apps)| build_problem(apps, servers))
        .collect();
    let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
    let placer_small = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
    let single_app = build_problem(1, 5);
    let mut cases: Vec<(&IncrementalPlacer, &PlacementProblem)> =
        problems.iter().map(|problem| (&placer, problem)).collect();
    cases.push((&placer_small, &single_app));
    let timings = cold_decision_ms(&cases);

    println!(
        "{:>10} {:>8} {:>10} {:>15} {:>4} {:>16}",
        "servers", "apps", "median ms", "min-max ms", "n", "approx mem MB"
    );
    for ((&(servers, apps), problem), &(median, min, max)) in
        sizes.iter().zip(&problems).zip(&timings)
    {
        println!(
            "{:>10} {:>8} {:>10.2} {:>15} {:>4} {:>16.1}",
            servers,
            apps,
            median,
            format!("{min:.2}-{max:.2}"),
            FIG17_SAMPLES,
            approx_problem_memory_mb(problem)
        );
    }
    println!("(paper: 50 apps x 400 servers completes within ~3 s and <200 MB with OR-Tools)");

    let (median, min, max) = timings[problems.len()];
    println!(
        "single-application decision on a 5-server regional edge: median {median:.3} ms \
         (min-max {min:.3}-{max:.3} ms, n = {FIG17_SAMPLES}) (paper: ~3.3 ms)"
    );
}

/// Decisions Fig. 17 times per size.
const FIG17_SAMPLES: usize = 11;

/// The median, minimum and maximum wall time (ms) of [`FIG17_SAMPLES`]
/// decisions per `(placer, problem)` case.  The samples are taken in
/// rounds, one decision per case per round, so a slow stretch of the
/// machine lands on every case alike.  Each sample decides on a fresh clone
/// of its placer, so none reuses the deployment an earlier sample left
/// resident.
fn cold_decision_ms(cases: &[(&IncrementalPlacer, &PlacementProblem)]) -> Vec<(f64, f64, f64)> {
    let mut times = vec![Vec::with_capacity(FIG17_SAMPLES); cases.len()];
    for _ in 0..FIG17_SAMPLES {
        for (case_times, &(placer, problem)) in times.iter_mut().zip(cases) {
            let cold = placer.clone();
            let start = Instant::now();
            cold.place(problem)
                .expect("Fig. 17's instances are feasible");
            case_times.push(start.elapsed().as_secs_f64() * 1000.0);
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_unstable_by(f64::total_cmp);
            (t[t.len() / 2], t[0], t[t.len() - 1])
        })
        .collect()
}

/// Rough memory a heuristic placement decision holds, in MB.  Its dominant
/// allocations are per feasible (app, server) pair: the placement
/// skeleton's entries (server, demand, per-hour energy, latency and one
/// entry of the per-server `(app, slot)` index) and the decision's own pair
/// cost and cached marginal cost.  Building the skeleton runs the pair pass
/// once more, so callers keep it out of any timed region.
fn approx_problem_memory_mb(problem: &PlacementProblem) -> f64 {
    let skeleton = PlacementSkeleton::new(problem);
    let per_decision = skeleton.pairs().len() * 2 * std::mem::size_of::<f64>();
    let servers = problem.servers.len();
    ((skeleton.bytes() + per_decision) as f64 + servers as f64 * 128.0) / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::take_dir_flag;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn dir_flag_takes_its_value_and_leaves_the_other_arguments() {
        let mut spaced = args(&["--quick", "--out", "artifacts", "all"]);
        assert_eq!(
            take_dir_flag(&mut spaced, "out"),
            Ok(Some("artifacts".to_string()))
        );
        assert_eq!(spaced, args(&["--quick", "all"]));
        let mut joined = args(&["fig7", "--bench-json=bench-out"]);
        assert_eq!(
            take_dir_flag(&mut joined, "bench-json"),
            Ok(Some("bench-out".to_string()))
        );
        assert_eq!(joined, args(&["fig7"]));
        let mut absent = args(&["--quick"]);
        assert_eq!(take_dir_flag(&mut absent, "out"), Ok(None));
        assert_eq!(absent, args(&["--quick"]));
    }

    #[test]
    fn a_flag_is_not_a_directory() {
        for list in [
            &["--bench-json", "--quick", "fig7"][..],
            &["--bench-json", "-q"],
            &["fig7", "--bench-json"],
            &["--bench-json="],
            &["--bench-json", ""],
        ] {
            assert!(
                take_dir_flag(&mut args(list), "bench-json").is_err(),
                "{list:?}"
            );
        }
    }

    #[test]
    fn a_repeated_dir_flag_is_an_error() {
        for list in [
            &["--out", "a", "--out", "b"][..],
            &["--out=a", "--out", "b"],
            &["--out", "a", "--out=a"],
        ] {
            assert!(take_dir_flag(&mut args(list), "out").is_err(), "{list:?}");
        }
    }
}
