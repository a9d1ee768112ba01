#![forbid(unsafe_code)]
//! The repository benchmark: three seeded workloads driven through the
//! public entry points of `sweep`, `core`/`solver` and `sim`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_default --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run makes its inputs from `--seed`, sets them up several times
//! (the median is `setup_s`), measures closed-loop operations for
//! `--seconds`, checks the outputs outside the timed region, prints each
//! metric by name with its unit and sample count, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced operations and reports the per-layer metrics, including the cost
//! of tracing itself.  See `perfbench/README.md` for what each workload
//! loads and bypasses.

mod placement_replan;
mod report;
mod seed;
mod serving_online;
mod speed;
mod stats;
mod sweep_default;
mod trace;

use report::Report;
use std::process::ExitCode;

/// The benchmark's workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["sweep_default", "placement_replan", "serving_online"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Measurement time.  A traced run spends it alternating untraced and
    /// traced ops, so the tracing overhead is measured in the same run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut tokens: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = tokens.next() {
            let value = tokens
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let slot_taken = match flag.as_str() {
                "--workload" => workload.replace(value.clone()).is_some(),
                "--seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed `{value}`"))?,
                    )
                    .is_some(),
                "--seconds" => seconds
                    .replace(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                    )
                    .is_some(),
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                    })
                    .is_some(),
                _ => return Err(format!("unknown argument `{flag}`")),
            };
            if slot_taken {
                return Err(format!("{flag} given more than once"));
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args);
    let mut tracer = args.trace.then(trace::Tracer::new);
    match args.workload.as_str() {
        "sweep_default" => sweep_default::run(&args, &mut report, tracer.as_mut()),
        "placement_replan" => placement_replan::run(&args, &mut report, tracer.as_mut()),
        "serving_online" => serving_online::run(&args, &mut report, tracer.as_mut()),
        _ => unreachable!("workload names are validated by Args::parse"),
    }
    if let Some(tracer) = &tracer {
        let path = report::spans_path(&args);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("perfbench: could not write spans: {err}"),
        }
    }
    match report.finish() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse("--workload placement_replan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: "placement_replan".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload sweep_default").is_err());
        assert!(parse("--workload sweep_default --seed x").is_err());
        assert!(parse("--workload sweep_default --seed 1 --seconds 0").is_err());
        assert!(parse("--workload sweep_default --seed 1 --trace 2").is_err());
        assert!(parse("--workload sweep_default --seed 1 --seed 2").is_err());
        assert!(parse("--workload sweep_default --seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
