//! Property tests for placement invariants over randomly generated
//! `PlacementProblem`s: capacity is never exceeded in any resource
//! dimension, every application is either placed or explicitly reported
//! (in-band via `unplaced` or out-of-band via `PlacementError`), placement
//! is deterministic under a fixed seed, every policy's sparse pair costs
//! equal the per-pair methods of `PlacementProblem` bit for bit, and a
//! placer that reuses the deployment it decided last decides exactly like
//! one that rebuilds it.

use carbonedge_core::{
    IncrementalPlacer, MigrationCost, PairLatencyCache, PlacementDecision, PlacementError,
    PlacementPolicy, PlacementProblem, PlacementSkeleton, PlacementState, ServerSnapshot,
};
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;
use carbonedge_net::LatencyModel;
use carbonedge_workload::{
    AppId, Application, DeviceKind, ModelKind, ResourceDemand, WorkloadProfile,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A randomized placement problem: mixed devices, some servers powered off,
/// varied SLOs and request rates, origins scattered around the sites.  Tight
/// SLOs and heavy rates are allowed on purpose so that both `Ok` decisions
/// with unplaced apps and `NoFeasibleServer` errors are exercised.
fn random_problem(seed: u64, n_servers: usize, n_apps: usize) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = Coordinates::new(44.0, 7.0);
    let devices = [DeviceKind::OrinNano, DeviceKind::A2, DeviceKind::Gtx1080];
    let servers: Vec<ServerSnapshot> = (0..n_servers)
        .map(|j| {
            let loc = Coordinates::new(
                base.lat + rng.gen_range(-2.0..2.0),
                base.lon + rng.gen_range(-3.0..3.0),
            );
            ServerSnapshot::new(j, j, ZoneId(j), devices[j % devices.len()], loc)
                .with_carbon_intensity(rng.gen_range(20.0..800.0))
                .with_powered_on(rng.gen_bool(0.75))
        })
        .collect();
    let apps: Vec<Application> = (0..n_apps)
        .map(|i| {
            let origin = Coordinates::new(
                base.lat + rng.gen_range(-2.0..2.0),
                base.lon + rng.gen_range(-3.0..3.0),
            );
            apps_entry(i, &mut rng, origin)
        })
        .collect();
    PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
}

/// A problem for the sparse-cost property: A2, Gtx1080 and XeonCpu servers
/// interleaved at random (so a run of one device ends mid-row), some powered
/// off, and applications of every model — SciCpu runs on XeonCpu only — with
/// SLOs tight enough that latency removes pairs too.
fn mixed_device_problem(seed: u64, n_servers: usize, n_apps: usize) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = Coordinates::new(44.0, 7.0);
    let devices = [DeviceKind::A2, DeviceKind::Gtx1080, DeviceKind::XeonCpu];
    let servers: Vec<ServerSnapshot> = (0..n_servers)
        .map(|j| {
            let loc = Coordinates::new(
                base.lat + rng.gen_range(-2.0..2.0),
                base.lon + rng.gen_range(-3.0..3.0),
            );
            let device = devices[rng.gen_range(0..devices.len())];
            ServerSnapshot::new(j, j / 2, ZoneId(j), device, loc)
                .with_carbon_intensity(rng.gen_range(20.0..800.0))
                .with_powered_on(rng.gen_bool(0.6))
        })
        .collect();
    let apps: Vec<Application> = (0..n_apps)
        .map(|i| {
            let origin = Coordinates::new(
                base.lat + rng.gen_range(-2.0..2.0),
                base.lon + rng.gen_range(-3.0..3.0),
            );
            Application::new(
                AppId(i),
                ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())],
                rng.gen_range(2.0..30.0),
                rng.gen_range(4.0..45.0),
                origin,
                0,
            )
        })
        .collect();
    PlacementProblem::new(servers, apps, 1.5).with_latency_model(LatencyModel::deterministic())
}

fn apps_entry(i: usize, rng: &mut StdRng, origin: Coordinates) -> Application {
    let models = ModelKind::GPU_MODELS;
    Application::new(
        AppId(i),
        models[rng.gen_range(0..models.len())],
        rng.gen_range(2.0..30.0),
        rng.gen_range(4.0..45.0),
        origin,
        0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No placement ever exceeds a server's capacity in any of the three
    /// resource dimensions (compute, memory, bandwidth).
    #[test]
    fn capacity_is_never_exceeded_in_any_dimension(seed in 0u64..10_000, servers in 2usize..7, apps in 1usize..12) {
        let problem = random_problem(seed, servers, apps);
        for policy in PlacementPolicy::BASELINE_SET {
            for placer in [
                IncrementalPlacer::new(policy),
                IncrementalPlacer::new(policy).heuristic_only(),
            ] {
                let Ok(decision) = placer.place(&problem) else { continue };
                let mut compute = vec![0.0f64; problem.servers.len()];
                let mut memory = vec![0.0f64; problem.servers.len()];
                let mut bandwidth = vec![0.0f64; problem.servers.len()];
                for (i, a) in decision.assignment.iter().enumerate() {
                    if let Some(j) = a {
                        let d = problem.demand(i, *j).expect("placed pair is compatible");
                        compute[*j] += d.compute;
                        memory[*j] += d.memory_mb;
                        bandwidth[*j] += d.bandwidth_mbps;
                    }
                }
                for (j, server) in problem.servers.iter().enumerate() {
                    prop_assert!(compute[j] <= server.available.compute + 1e-6,
                        "server {j} compute {} over {}", compute[j], server.available.compute);
                    prop_assert!(memory[j] <= server.available.memory_mb + 1e-6,
                        "server {j} memory {} over {}", memory[j], server.available.memory_mb);
                    prop_assert!(bandwidth[j] <= server.available.bandwidth_mbps + 1e-6,
                        "server {j} bandwidth {} over {}", bandwidth[j], server.available.bandwidth_mbps);
                }
            }
        }
    }

    /// Every application is accounted for: placed, listed in `unplaced`, or
    /// the whole batch fails with an explicit, truthful `PlacementError`.
    #[test]
    fn every_app_is_placed_or_explicitly_reported(seed in 0u64..10_000, servers in 2usize..7, apps in 1usize..12) {
        let problem = random_problem(seed, servers, apps);
        for policy in PlacementPolicy::BASELINE_SET {
            match IncrementalPlacer::new(policy).place(&problem) {
                Ok(decision) => {
                    prop_assert_eq!(decision.assignment.len(), problem.apps.len());
                    let nones: Vec<usize> = decision
                        .assignment
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(&nones, &decision.unplaced);
                    for (i, a) in decision.assignment.iter().enumerate() {
                        if let Some(j) = a {
                            prop_assert!(problem.is_feasible_pair(i, *j),
                                "app {i} placed on infeasible server {j}");
                        }
                    }
                }
                Err(PlacementError::NoFeasibleServer(stranded)) => {
                    prop_assert!(!stranded.is_empty());
                    for i in &stranded {
                        let feasible = (0..problem.servers.len())
                            .any(|j| problem.is_feasible_pair(*i, j));
                        prop_assert!(!feasible, "app {i} reported stranded but has a feasible server");
                    }
                }
                Err(other) => {
                    // Empty batches / server lists are not generated here.
                    prop_assert!(matches!(other, PlacementError::NoFeasibleServer(_)),
                        "unexpected error {other:?}");
                }
            }
        }
    }

    /// Placement is a pure function of the problem: the same seed produces
    /// the same problem, and solving it twice produces identical decisions.
    /// A second heuristic decision reuses the first's construction, and
    /// only its `memoized` flag says so.
    #[test]
    fn placement_is_deterministic_under_fixed_seed(seed in 0u64..10_000, servers in 2usize..6, apps in 1usize..10) {
        let problem_a = random_problem(seed, servers, apps);
        let problem_b = random_problem(seed, servers, apps);
        prop_assert_eq!(&problem_a.servers, &problem_b.servers);
        prop_assert_eq!(&problem_a.apps, &problem_b.apps);
        for policy in [PlacementPolicy::CarbonAware, PlacementPolicy::LatencyAware] {
            for placer in [
                IncrementalPlacer::new(policy),
                IncrementalPlacer::new(policy).heuristic_only(),
            ] {
                let first = placer.place(&problem_a);
                let second = placer.place(&problem_b);
                match (first, second) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(!a.memoized);
                        prop_assert_eq!(b.memoized, !b.exact);
                        prop_assert_eq!(a, PlacementDecision { memoized: false, ..b });
                    }
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a, b);
                    }
                    (a, b) => {
                        prop_assert!(false, "diverging outcomes: {a:?} vs {b:?}");
                    }
                }
            }
        }
    }

    /// The skeleton lists exactly the pairs `is_feasible_pair` accepts,
    /// servers ascending, and `PlacementPolicy::costs` prices each, for
    /// every policy, by the per-pair method it stands for (for the
    /// trade-off, the min-max normalization of those methods' values),
    /// equal by `to_bits`.
    #[test]
    fn sparse_costs_match_the_per_pair_methods(
        seed in 0u64..10_000, servers in 1usize..16, apps in 1usize..10, alpha in 0.0f64..1.0,
    ) {
        let problem = mixed_device_problem(seed, servers, apps);
        let feasible: Vec<Vec<usize>> = (0..apps)
            .map(|i| (0..servers).filter(|&j| problem.is_feasible_pair(i, j)).collect())
            .collect();
        let carbon = |i: usize, j: usize| problem.operational_carbon_g(i, j).unwrap();
        let energy = |i: usize, j: usize| problem.energy_j(i, j).unwrap();
        let min_span = |values: &[f64]| {
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (min, (max - min).max(1e-12))
        };
        let pairs: Vec<(usize, usize)> = feasible
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&j| (i, j)))
            .collect();
        let carbons: Vec<f64> = pairs.iter().map(|&(i, j)| carbon(i, j)).collect();
        let energies: Vec<f64> = pairs.iter().map(|&(i, j)| energy(i, j)).collect();
        let (cmin, cspan) = min_span(&carbons);
        let (emin, espan) = min_span(&energies);
        let policies = [
            PlacementPolicy::CarbonAware,
            PlacementPolicy::LatencyAware,
            PlacementPolicy::EnergyAware,
            PlacementPolicy::IntensityAware,
            PlacementPolicy::CarbonEnergyTradeoff { alpha },
        ];
        let skeleton = PlacementSkeleton::new(&problem);
        let listed = skeleton.pairs();
        prop_assert_eq!(listed.num_apps(), apps);
        prop_assert_eq!(listed.len(), pairs.len());
        for policy in policies {
            let (costs, _) = policy.costs(&problem, &skeleton);
            prop_assert_eq!(costs.len(), pairs.len());
            for (i, row_servers) in feasible.iter().enumerate() {
                let row = listed.row(i);
                let servers = &listed.servers()[row.clone()];
                prop_assert!(servers == row_servers.as_slice(),
                    "{policy:?} app {i} lists {servers:?}, feasible {row_servers:?}");
                for (&j, &cost) in servers.iter().zip(&costs[row]) {
                    let expected = match policy {
                        PlacementPolicy::CarbonAware => carbon(i, j),
                        PlacementPolicy::LatencyAware => problem.latency_ms(i, j),
                        PlacementPolicy::EnergyAware => energy(i, j),
                        PlacementPolicy::IntensityAware => problem.servers[j].carbon_intensity,
                        PlacementPolicy::CarbonEnergyTradeoff { alpha } => {
                            alpha * (energy(i, j) - emin) / espan
                                + (1.0 - alpha) * (carbon(i, j) - cmin) / cspan
                        }
                    };
                    prop_assert!(cost.to_bits() == expected.to_bits(),
                        "{policy:?} pair ({i}, {j}): {cost} vs {expected}");
                    let found = listed.find(i, j).map(|k| costs[k].to_bits());
                    prop_assert_eq!(found, Some(cost.to_bits()));
                }
            }
        }
    }

    /// Explicit errors for degenerate batches: no applications or no servers.
    #[test]
    fn degenerate_batches_fail_explicitly(seed in 0u64..10_000) {
        let problem = random_problem(seed, 3, 4);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let empty_apps = PlacementProblem::new(problem.servers.clone(), vec![], 1.0);
        prop_assert_eq!(placer.place(&empty_apps).unwrap_err(), PlacementError::EmptyBatch);
        let no_servers = PlacementProblem::new(vec![], problem.apps.clone(), 1.0);
        prop_assert_eq!(placer.place(&no_servers).unwrap_err(), PlacementError::NoServers);
    }
}

/// A decision with every float as its bits: the assignment; the carbon,
/// energy, mean latency and migration carbon; the moves; and whether the
/// exact path decided and whether it fell back.
type DecisionKey = (Vec<Option<usize>>, [u64; 4], usize, bool, bool);

/// The key of one placement call's outcome, so that two calls agree
/// exactly when their keys are equal.
fn decision_key(
    outcome: &Result<PlacementDecision, PlacementError>,
) -> Result<DecisionKey, PlacementError> {
    outcome.clone().map(|d| {
        let bits = [
            d.total_carbon_g.to_bits(),
            d.total_energy_j.to_bits(),
            d.mean_latency_ms.to_bits(),
            d.migration_carbon_g.to_bits(),
        ];
        (d.assignment, bits, d.moves, d.exact, d.exact_fallback)
    })
}

/// A deployment for the skeleton differential: A2, Gtx1080 and XeonCpu
/// servers (GPU models cannot run on the Xeon, SciCpu runs nowhere else),
/// each application starting next to a server it can run on, on some seeds
/// an application whose SLO empties its row, and on others capacities
/// close to the batch's total demand.
fn skeleton_problem(seed: u64) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_servers = rng.gen_range(2..7);
    let n_apps = rng.gen_range(1..6);
    let base = Coordinates::new(44.0, 7.0);
    let devices = [DeviceKind::A2, DeviceKind::Gtx1080, DeviceKind::XeonCpu];
    let servers: Vec<ServerSnapshot> = (0..n_servers)
        .map(|j| {
            let loc = Coordinates::new(
                base.lat + rng.gen_range(-1.0..1.0),
                base.lon + rng.gen_range(-1.5..1.5),
            );
            // Servers 0 and 1 are an A2 and a Xeon, so every model runs
            // somewhere.
            let device = match j {
                0 => DeviceKind::A2,
                1 => DeviceKind::XeonCpu,
                _ => devices[rng.gen_range(0..devices.len())],
            };
            ServerSnapshot::new(j, j / 2, ZoneId(j), device, loc).with_powered_on(rng.gen_bool(0.6))
        })
        .collect();
    let apps: Vec<Application> = (0..n_apps)
        .map(|i| {
            let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
            let hosts: Vec<&ServerSnapshot> = servers
                .iter()
                .filter(|s| WorkloadProfile::lookup(model, s.device).is_some())
                .collect();
            let home = hosts[rng.gen_range(0..hosts.len())].location;
            let slo = if seed % 10 == 3 && i == n_apps - 1 {
                0.0
            } else {
                rng.gen_range(4.0..30.0)
            };
            Application::new(AppId(i), model, rng.gen_range(2.0..30.0), slo, home, 0)
        })
        .collect();
    let mut problem =
        PlacementProblem::new(servers, apps, 1.5).with_latency_model(LatencyModel::deterministic());
    if seed.is_multiple_of(3) {
        for j in 0..n_servers {
            let device = problem.servers[j].device;
            let mut total = [0.0; 3];
            for app in &problem.apps {
                if let Some(d) = app.demand_on(device) {
                    for (t, v) in total.iter_mut().zip(d.to_array()) {
                        *t += v;
                    }
                }
            }
            let share = rng.gen_range(0.8..1.6) / n_servers as f64;
            let [compute, memory, bandwidth] = total.map(|t| t * share);
            problem.servers[j].available = ResourceDemand::new(compute, memory, bandwidth);
        }
    }
    problem
}

/// A latency cache holding every pair latency of `problem`, one class per
/// application and per server, so a problem carrying it decides exactly
/// like one without.
fn pair_latency_cache(problem: &PlacementProblem) -> PairLatencyCache {
    let (apps, servers) = problem.size();
    let rtt_ms = (0..apps)
        .flat_map(|i| (0..servers).map(move |j| problem.latency_ms(i, j)))
        .collect();
    let classes = |n: usize| (0..n).map(|c| c as u32).collect();
    PairLatencyCache::new(classes(apps), classes(servers), rtt_ms, servers)
}

/// A placer that keeps the deployment it decided last decides exactly like
/// one made to rebuild it on every decision, for every policy, stateless
/// and with paid migration, on the exact and the heuristic path, over three
/// decisions that re-price the intensities and the epoch length and carry
/// the previous assignment as the state.  The rebuilding side gets an equal
/// latency cache in a new `Arc` on every decision: the placer compares
/// caches by address, so it cannot recognise the deployment, while the
/// pairs it builds are the same.
#[test]
fn a_resident_deployment_decides_like_a_rebuilt_one() {
    let (mut decided, mut exact, mut fallbacks, mut moves) = (0usize, 0usize, 0usize, 0usize);
    for seed in 0..500u64 {
        let base = skeleton_problem(seed);
        let cache = pair_latency_cache(&base);
        let base = base.with_latency_cache(Arc::new(cache.clone()));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let alpha = rng.gen_range(0.0..1.0);
        let policies = [
            PlacementPolicy::CarbonAware,
            PlacementPolicy::LatencyAware,
            PlacementPolicy::EnergyAware,
            PlacementPolicy::IntensityAware,
            PlacementPolicy::CarbonEnergyTradeoff { alpha },
        ];
        let (apps, servers) = base.size();
        for policy in policies {
            for paid in [false, true] {
                for heuristic in [false, true] {
                    let placer = || {
                        let p = IncrementalPlacer::new(policy).with_exact_size_limit(usize::MAX);
                        if heuristic {
                            p.heuristic_only()
                        } else {
                            p
                        }
                    };
                    let (resident_placer, rebuilt_placer) = (placer(), placer());
                    let mut resident = base.clone();
                    let mut rebuilt = base.clone();
                    let migration: Vec<MigrationCost> = (0..apps)
                        .map(|_| MigrationCost::new(rng.gen_range(0.0..2.0), 0.0))
                        .collect();
                    let mut previous: Vec<Option<usize>> = (0..apps)
                        .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0..servers)))
                        .collect();
                    for _ in 0..3 {
                        let intensities: Vec<f64> =
                            (0..servers).map(|_| rng.gen_range(20.0..800.0)).collect();
                        let epoch_hours = rng.gen_range(0.5..800.0);
                        let state =
                            paid.then(|| PlacementState::new(previous.clone(), migration.clone()));
                        for p in [&mut resident, &mut rebuilt] {
                            for (server, &intensity) in p.servers.iter_mut().zip(&intensities) {
                                server.carbon_intensity = intensity;
                            }
                            p.epoch_hours = epoch_hours;
                            p.state = state.clone();
                        }
                        rebuilt.latency_cache = Some(Arc::new(cache.clone()));
                        let r = resident_placer.place(&resident);
                        let b = rebuilt_placer.place(&rebuilt);
                        assert_eq!(
                            decision_key(&r),
                            decision_key(&b),
                            "seed {seed}, {policy:?}, paid {paid}, heuristic {heuristic}"
                        );
                        if let Ok(decision) = r {
                            let objective = |placer: &IncrementalPlacer, p| {
                                placer
                                    .objective_of(p, &decision.assignment)
                                    .map(f64::to_bits)
                            };
                            assert_eq!(
                                objective(&resident_placer, &resident),
                                objective(&rebuilt_placer, &rebuilt),
                                "seed {seed}, {policy:?}, paid {paid}, heuristic {heuristic}"
                            );
                            decided += 1;
                            exact += usize::from(decision.exact);
                            fallbacks += usize::from(decision.exact_fallback);
                            moves += decision.moves;
                            previous = decision.assignment;
                        }
                    }
                }
            }
        }
    }
    // Only the emptied rows fail; the tight capacities send some exact
    // decisions back to the heuristic, and paid migration still moves
    // applications.
    assert!(decided > 25_000, "{decided} decisions");
    assert!(exact > 5_000, "{exact} exact decisions");
    assert!(fallbacks > 1_000, "{fallbacks} exact fallbacks");
    assert!(moves > 1_000, "{moves} moves");
}
