//! Property tests for placement invariants over randomly generated
//! `PlacementProblem`s: capacity is never exceeded in any resource
//! dimension, every application is either placed or explicitly reported
//! (in-band via `unplaced` or out-of-band via `PlacementError`), placement
//! is deterministic under a fixed seed, and every policy's sparse pair costs
//! equal the per-pair methods of `PlacementProblem` bit for bit.

use carbonedge_core::{
    IncrementalPlacer, PlacementError, PlacementPolicy, PlacementProblem, ServerSnapshot,
};
use carbonedge_geo::Coordinates;
use carbonedge_grid::ZoneId;
use carbonedge_net::LatencyModel;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
                        prop_assert_eq!(a, b);
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

    /// `PlacementPolicy::costs` lists, for every policy, exactly the pairs
    /// `is_feasible_pair` accepts, servers ascending, each priced by the
    /// per-pair method it stands for (for the trade-off, the min-max
    /// normalization of those methods' values), equal by `to_bits`.
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
        for policy in policies {
            let (costs, _) = policy.costs(&problem);
            prop_assert_eq!(costs.num_apps(), apps);
            prop_assert_eq!(costs.num_pairs(), pairs.len());
            for (i, row_servers) in feasible.iter().enumerate() {
                let listed: Vec<usize> = costs.row(i).iter().map(|&(j, _)| j).collect();
                prop_assert!(&listed == row_servers,
                    "{policy:?} app {i} lists {listed:?}, feasible {row_servers:?}");
                for &(j, cost) in costs.row(i) {
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
                    prop_assert_eq!(costs.get(i, j).map(f64::to_bits), Some(cost.to_bits()));
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
