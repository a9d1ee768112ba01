//! Parallel evaluation of a sweep grid.
//!
//! The executor walks the cell list with a shared atomic cursor and a fixed
//! worker pool (`std::thread::scope`), the same work-distribution shape a
//! rayon `par_iter` would compile to — workers pull the next unclaimed block
//! of one scenario's policy cells, simulate them, and write each result into
//! its cell's own slot.  Because every cell is seeded deterministically by
//! the spec and results are collected by cell index, the aggregated report
//! is identical for any worker count or scheduling order; catalogs and
//! per-seed carbon traces are shared across workers through [`CdnShared`].

use crate::report::{CellResult, SweepReport};
use crate::spec::{SweepCell, SweepSpec};
use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_sim::cdn::CdnShared;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `--jobs N` / `--jobs=N` flag out of a CLI argument list,
/// removing the consumed tokens.  Returns the parsed count (`0` when the
/// flag is absent, meaning automatic parallelism) or an error message for a
/// missing or non-numeric value.  Shared by every binary that fronts a
/// [`SweepExecutor`] so the flag behaves identically everywhere.
pub fn take_jobs_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--jobs" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| "--jobs requires a value".to_string())?
                .clone();
            args.drain(i..=i + 1);
            value
        } else if let Some(value) = args[i].strip_prefix("--jobs=") {
            let value = value.to_string();
            args.remove(i);
            value
        } else {
            i += 1;
            continue;
        };
        // A repeated flag is ambiguous (which count did the caller mean?)
        // — reject it instead of silently letting the last one win.
        if jobs.is_some() {
            return Err("--jobs given more than once".to_string());
        }
        jobs = Some(
            value
                .parse()
                .map_err(|_| format!("invalid --jobs value `{value}`"))?,
        );
    }
    Ok(jobs.unwrap_or(0))
}

/// Runs every cell of a [`SweepSpec`] and aggregates a [`SweepReport`].
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    /// Number of worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// The placer template each worker clones once; a cell assigns its
    /// policy to the clone's `policy` field.  Heuristic-only by default, as
    /// in the CDN-scale experiments.
    pub placer_template: IncrementalPlacer,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self {
            jobs: 0,
            placer_template: IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        }
    }
}

impl SweepExecutor {
    /// Creates an executor with automatic parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (`0` = one per available CPU).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The effective worker count for a grid of `cells` cells.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        // lint:allow(wall-clock): only `--jobs 0` reads the CPU count; cells are collected by index, so results do not depend on the worker count
        let auto = rayon::current_num_threads();
        let requested = if self.jobs == 0 { auto } else { self.jobs };
        requested.clamp(1, cells.max(1))
    }

    /// Evaluates one cell against the shared environment with a per-worker
    /// placer.  The placer is cloned once per worker (not per cell) and
    /// re-stamped with each cell's policy, so its solver workspace — basis
    /// buffers, node arena — keeps its allocations across every cell the
    /// worker runs.  Any resident warm-start basis is discarded at the cell
    /// boundary: a neighbor cell's basis is a *cost-only* change away on
    /// the exact path, but degenerate optima make the simplex's final
    /// vertex depend on its starting basis (equal carbon, different
    /// latency), so carrying it would break the bit-identical contract
    /// `tests/sweep_delta.rs` pins against the cold per-cell oracle.
    /// Epoch-to-epoch warm starts *within* the cell's run are unaffected.
    /// The placer's resident deployment (skeleton, MILP rows, heuristic
    /// memo) does carry over: each part is reused only for bit-identical
    /// inputs, where it equals what a fresh build would produce.
    fn run_cell(
        &self,
        shared: &CdnShared,
        cell: &SweepCell,
        placer: &mut IncrementalPlacer,
    ) -> CellResult {
        let simulator = shared.simulator(cell.config());
        placer.policy = cell.policy;
        placer.milp_solver.discard_warm_start();
        let result = simulator.run_with(placer);
        let mean_assigned = if result.assigned_intensity.is_empty() {
            0.0
        } else {
            result.assigned_intensity.iter().sum::<f64>() / result.assigned_intensity.len() as f64
        };
        CellResult {
            cell: cell.clone(),
            outcome: result.outcome,
            decision_carbon_g: result.decision_carbon_g,
            monthly_carbon_g: result.monthly.iter().map(|m| m.carbon_g).collect(),
            mean_assigned_intensity: mean_assigned,
            site_count: simulator.site_count(),
            moves: result.moves,
            migration_carbon_g: result.migration_carbon_g,
            serving: result.serving,
        }
    }

    /// Runs the full grid.  Returns an error, before any cell runs, for a
    /// spec that [`SweepSpec::validate`] rejects.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, String> {
        spec.validate()?;
        let cells = spec.cells();
        let jobs = self.effective_jobs(cells.len());
        let shared = CdnShared::new();

        let slots: Vec<Mutex<Option<CellResult>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        // The policy axis is innermost, so each block of `policies.len()`
        // adjacent cells holds every policy variant of one scenario (`validate`
        // rejects an empty axis).  Workers claim whole blocks, not single
        // cells: one worker builds the scenario's [`ScenarioPrep`] and every
        // neighbor cell reuses it from that worker's cache-warm state instead
        // of rendezvousing on the `OnceLock` mid-build, and the schedule stays
        // deterministic at the block level.  Solver state still never crosses
        // a cell boundary (see [`Self::run_cell`]), so the report is
        // bit-identical for any job count — pinned by `tests/sweep_delta.rs`
        // against the cold per-cell oracle.
        let blocks: Vec<&[SweepCell]> = cells.chunks(spec.policies.len()).collect();
        // A worker clones the placer once, then claims blocks off the shared
        // cursor until none are left.  A single worker runs on this thread.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut placer = self.placer_template.clone();
            while let Some(block) = blocks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                for cell in *block {
                    let result = self.run_cell(&shared, cell, &mut placer);
                    *slots[cell.index].lock().expect("result slot poisoned") = Some(result);
                }
            }
        };
        if jobs <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(worker);
                }
            });
        }

        let results: Vec<CellResult> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every cell produces a result")
            })
            .collect();
        // Deliberately no clock read here: the executor stays wall-clock
        // free (enforced by carbonedge-lint's `wall-clock` rule) and callers
        // that want timing stamp `report.wall_seconds` around this call.
        Ok(SweepReport::new(spec.clone(), results, jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SweepSpec, WorkloadSpec};
    use carbonedge_datasets::zones::ZoneArea;
    use carbonedge_workload::{DeviceKind, ModelKind};

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("tiny")
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![10.0, 20.0])
            .with_site_limit(Some(12))
    }

    /// A 5-site European grid that `validate` must reject, naming `culprit`,
    /// before the executor runs a cell (each panicked inside a cell when
    /// `validate` let it through).
    fn assert_rejected_before_running(spec: SweepSpec, culprit: &str) {
        let spec = spec
            .with_areas(vec![ZoneArea::Europe])
            .with_site_limit(Some(5));
        let run = SweepExecutor::new().with_jobs(1).run(&spec);
        let err = spec.validate().expect_err("validate accepts the spec");
        assert!(err.contains(culprit), "`{err}` does not name `{culprit}`");
        assert_eq!(run.err(), Some(err));
    }

    #[test]
    fn a_nan_tradeoff_alpha_is_rejected_before_running() {
        let policy = PlacementPolicy::CarbonEnergyTradeoff { alpha: f64::NAN };
        let spec = SweepSpec::new("t").with_policies(vec![PlacementPolicy::LatencyAware, policy]);
        assert_rejected_before_running(spec, &policy.name());
    }

    #[test]
    fn a_workload_without_a_profile_is_rejected_before_running() {
        let workload = WorkloadSpec::new(ModelKind::SciCpu, DeviceKind::A2, 15.0);
        let name = workload.name.clone();
        assert_rejected_before_running(SweepSpec::new("t").with_workloads(vec![workload]), &name);
    }

    #[test]
    fn a_nan_request_rate_is_rejected_before_running() {
        let workload = WorkloadSpec::new(ModelKind::ResNet50, DeviceKind::A2, f64::NAN);
        let name = workload.name.clone();
        assert_rejected_before_running(SweepSpec::new("t").with_workloads(vec![workload]), &name);
    }

    #[test]
    fn executor_fills_every_cell_in_spec_order() {
        let spec = tiny_spec();
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert_eq!(report.cells.len(), spec.cell_count());
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.cell.index, i);
            assert!(cell.outcome.carbon_g > 0.0);
            assert_eq!(cell.monthly_carbon_g.len(), 12);
            assert_eq!(cell.site_count, 12);
        }
    }

    #[test]
    fn the_default_grid_generates_only_its_sites_zones() {
        // `experiments --sweep`'s grid: 120 sites per continent, which sit
        // in 23 US and 26 European zones of the 148.
        let spec = SweepSpec::quick_default().with_site_limit(Some(120));
        let executor = SweepExecutor::new();
        let shared = CdnShared::new();
        let mut placer = executor.placer_template.clone();
        for cell in spec.cells() {
            executor.run_cell(&shared, &cell, &mut placer);
        }
        for seed in &spec.seeds {
            assert_eq!(shared.traces(*seed).generated_count(), 49);
        }
    }

    #[test]
    fn parallel_and_sequential_runs_agree_exactly() {
        let spec = tiny_spec();
        let sequential = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        let parallel = SweepExecutor::new().with_jobs(4).run(&spec).unwrap();
        assert_eq!(parallel.jobs, 4);
        for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.outcome, b.outcome, "cell {}", a.cell.index);
            assert_eq!(a.monthly_carbon_g, b.monthly_carbon_g);
        }
        assert_eq!(sequential.render(), parallel.render());
    }

    #[test]
    fn jobs_flag_parsing_accepts_both_forms_and_rejects_garbage() {
        let mut args = vec!["--sweep".to_string(), "--jobs".to_string(), "4".to_string()];
        assert_eq!(take_jobs_flag(&mut args), Ok(4));
        assert_eq!(args, vec!["--sweep".to_string()]);

        let mut eq_form = vec!["--jobs=7".to_string(), "fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut eq_form), Ok(7));
        assert_eq!(eq_form, vec!["fig1".to_string()]);

        let mut absent = vec!["fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut absent), Ok(0));

        assert!(take_jobs_flag(&mut vec!["--jobs".to_string()]).is_err());
        assert!(take_jobs_flag(&mut vec!["--jobs".to_string(), "abc".to_string()]).is_err());
        assert!(take_jobs_flag(&mut vec!["--jobs=nope".to_string()]).is_err());
    }

    #[test]
    fn duplicate_jobs_flags_are_rejected() {
        let mut twice = vec![
            "--jobs".to_string(),
            "4".to_string(),
            "fig1".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
        ];
        assert_eq!(
            take_jobs_flag(&mut twice),
            Err("--jobs given more than once".to_string())
        );

        let mut mixed = vec![
            "--jobs=1".to_string(),
            "--jobs".to_string(),
            "1".to_string(),
        ];
        assert!(take_jobs_flag(&mut mixed).is_err());

        // A single flag still parses even when other arguments follow.
        let mut single = vec!["--jobs=3".to_string(), "fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut single), Ok(3));
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let empty = SweepSpec::new("empty").with_policies(vec![]);
        assert!(SweepExecutor::new().run(&empty).is_err());
    }

    #[test]
    fn effective_jobs_clamps_to_grid_and_cpus() {
        let ex = SweepExecutor::new().with_jobs(64);
        assert_eq!(ex.effective_jobs(3), 3);
        assert_eq!(ex.effective_jobs(0), 1);
        let auto = SweepExecutor::new();
        assert!(auto.effective_jobs(1000) >= 1);
    }
}
