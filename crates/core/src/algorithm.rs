//! The CarbonEdge incremental placement algorithm (Algorithm 1).
//!
//! The algorithm processes a batch of newly arriving applications:
//!
//! 1. compute the application-to-server latency matrix,
//! 2. filter out servers violating each application's latency constraint,
//! 3. fetch server telemetry (capacities, base power, power state, mean
//!    forecast carbon intensity),
//! 4. solve the placement optimization (Eq. 7) for the chosen policy,
//! 5. commit the placement and power decisions and update server state.
//!
//! Steps 1–3 are embodied in [`crate::problem::PlacementProblem`]; this
//! module performs steps 4–5.  Small instances are solved exactly by the
//! generic branch-and-bound MILP; large instances use the regret-greedy
//! assignment heuristic, which is how the framework scales to CDN-sized
//! batches (Figure 17).
//!
//! A decision walks its feasible pairs only.  A [`PlacementSkeleton`]
//! lists each application's latency- and hardware-feasible servers with
//! their demands and the per-server column index; [`PlacementPolicy::costs`]
//! prices those pairs into one cost vector aligned with them, migration
//! costs are folded into that vector, the heuristic reads the skeleton's
//! pairs with it, and the MILP builder creates one `x` variable per pair and
//! gathers each server's capacity and linking terms from the column index.
//! A mesoscale latency limit keeps a row to the servers a few hundred
//! kilometres away, so this is a fraction of the applications × servers
//! grid.
//!
//! The placer is built for **repeated** decisions on one deployment, and it
//! recognises the deployment itself.  It keeps the deployment it decided
//! last: the skeleton, after an exact decision the MILP rows built on it,
//! and after a heuristic decision that decision's instance and assignment.
//! When a new problem's applications, server devices and locations,
//! latency model and latency cache are bit-identical to that deployment's,
//! the skeleton is reused; when every server's capacity and power state
//! match as well, so are the rows, and the decision only rewrites their
//! objective; and when the priced heuristic instance matches bit for bit,
//! so is its assignment.  Anything else builds afresh, so callers attach
//! nothing.
//! The placer's [`BranchBoundSolver`] in turn keeps the block structure of
//! the last model it classified and a scratch workspace (basis, basis
//! inverse, node arena) that persists across successive
//! [`IncrementalPlacer::place`] calls: a structurally identical MILP —
//! which is exactly what re-optimizing one deployment epoch after epoch as
//! carbon intensities shift builds — skips classification and warm-starts
//! from the previous optimal basis (dual simplex for bound changes, primal
//! phase-2 for cost changes) instead of cold-starting, cutting the
//! per-decision latency well below the paper's ~3.3 ms OR-Tools budget.

use crate::policy::PlacementPolicy;
use crate::problem::{PairLatencyCache, PlacementProblem, PlacementSkeleton, PlacementState};
use carbonedge_net::LatencyModel;
use carbonedge_solver::{
    AssignmentProblem, BranchBoundSolver, Comparison, LinearExpr, Model, VarId,
};
use carbonedge_workload::Application;
use std::sync::{Arc, Mutex, MutexGuard};

/// Errors returned by the placer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The problem contains no applications.
    EmptyBatch,
    /// The problem contains no servers.
    NoServers,
    /// No feasible server exists for the listed applications.
    NoFeasibleServer(Vec<usize>),
    /// The attached [`PlacementState`] does not fit the problem: its vectors
    /// differ in length from the batch, or an incumbent names a server
    /// outside the problem.
    InvalidState,
    /// The listed applications have a feasible pair whose folded cost, or
    /// whose server's activation cost, is NaN or infinite (for example a
    /// server's `carbon_intensity` set to NaN directly, or a NaN tradeoff
    /// `alpha`).
    NonFiniteCost(Vec<usize>),
    /// The listed applications have a negative or non-finite energy or
    /// resource demand on some compatible device (for example a negative or
    /// infinite `request_rate_rps`).
    InvalidDemand(Vec<usize>),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::EmptyBatch => write!(f, "placement batch is empty"),
            PlacementError::NoServers => write!(f, "no servers available"),
            PlacementError::NoFeasibleServer(apps) => {
                write!(f, "no feasible server for applications {apps:?}")
            }
            PlacementError::InvalidState => write!(
                f,
                "placement state does not fit the batch or names an unknown server"
            ),
            PlacementError::NonFiniteCost(apps) => {
                write!(f, "non-finite placement cost for applications {apps:?}")
            }
            PlacementError::InvalidDemand(apps) => write!(
                f,
                "negative or non-finite energy or demand for applications {apps:?}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// The outcome of one incremental placement round.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// Chosen server index per application (`None` if the solver could not
    /// place the application within capacity).
    pub assignment: Vec<Option<usize>>,
    /// Servers that must be newly powered on.
    pub newly_activated: Vec<usize>,
    /// Applications the solver failed to place.
    pub unplaced: Vec<usize>,
    /// Total carbon of the decision over one epoch (Eq. 6), grams CO2eq.
    pub total_carbon_g: f64,
    /// Total energy of the decision over one epoch, joules.
    pub total_energy_j: f64,
    /// Mean round-trip latency of the placed applications, ms.
    pub mean_latency_ms: f64,
    /// Which policy produced the decision.
    pub policy: String,
    /// Whether the exact MILP solver produced the decision (vs. the
    /// assignment heuristic).
    pub exact: bool,
    /// Whether the exact path ran but returned no assignment — an
    /// infeasible MILP, or the node limit reached without an incumbent — so
    /// the heuristic decided instead (`exact` is then `false`).
    pub exact_fallback: bool,
    /// Whether the heuristic reused the assignment it constructed for the
    /// previous heuristic decision on this deployment, whose instance was
    /// bit-identical.  It records the placer's history, not the problem:
    /// the decision is the one a fresh placer makes.
    pub memoized: bool,
    /// Applications moved off their incumbent server (0 for stateless
    /// problems).
    pub moves: usize,
    /// Migration carbon charged for those moves (and any evictions), grams
    /// — *on top of* `total_carbon_g`, which stays the Eq. 6 operational +
    /// activation total.
    pub migration_carbon_g: f64,
}

/// The MILP form of one placement problem (Eq. 7), exposed so that callers —
/// the differential solver tests, the benches, external tools — can run the
/// exact same model through different solvers (LP relaxation via simplex,
/// exact branch-and-bound) and compare outcomes.
#[derive(Debug, Clone)]
pub struct PlacementModel {
    /// The minimization model.
    pub model: Model,
    /// `x[i][j]`: the binary assignment variable for a feasible
    /// `(application, server)` pair, `None` when the pair is infeasible.
    pub x: Vec<Vec<Option<VarId>>>,
    /// `y[j]`: the binary power-state variable of each server.
    pub y: Vec<VarId>,
}

impl PlacementModel {
    /// Decodes a solver value vector back into a per-application assignment.
    pub fn decode(&self, values: &[f64]) -> Vec<Option<usize>> {
        let mut assignment = vec![None; self.x.len()];
        for (i, x_row) in self.x.iter().enumerate() {
            for (j, v) in x_row.iter().enumerate() {
                if let Some(v) = v {
                    if values.get(v.index()).is_some_and(|val| *val > 0.5) {
                        assignment[i] = Some(j);
                    }
                }
            }
        }
        assignment
    }
}

/// The incremental placement service.
#[derive(Debug)]
pub struct IncrementalPlacer {
    /// The placement policy to optimize.
    pub policy: PlacementPolicy,
    /// Use the exact branch-and-bound MILP when the instance is small enough
    /// (`apps * servers <= exact_size_limit`).
    pub exact_size_limit: usize,
    /// Branch-and-bound configuration for the exact path.
    pub milp_solver: BranchBoundSolver,
    /// The deployment decided last, reused by the next decision on the same
    /// deployment.
    resident: Mutex<Option<Resident>>,
}

impl Clone for IncrementalPlacer {
    /// Clones the configuration; the clone starts without a resident
    /// deployment, and its solver with a fresh workspace.
    fn clone(&self) -> Self {
        Self {
            policy: self.policy,
            exact_size_limit: self.exact_size_limit,
            milp_solver: self.milp_solver.clone(),
            resident: Mutex::default(),
        }
    }
}

/// The deployment an [`IncrementalPlacer`] decided last: its
/// [`deployment_words`] and latency cache, the skeleton built from them
/// and, after an exact decision, the MILP rows built on that skeleton, and
/// after a heuristic one, its instance.  The cache is compared by address
/// and held here, so that its address cannot be reused while a comparison
/// depends on it.
#[derive(Debug)]
struct Resident {
    words: Vec<u64>,
    latency_cache: Option<Arc<PairLatencyCache>>,
    skeleton: Arc<PlacementSkeleton>,
    rows: Option<ResidentRows>,
    heuristic: Option<HeuristicMemo>,
}

impl Resident {
    /// Whether `problem` has exactly this deployment's structural inputs.
    fn matches(&self, problem: &PlacementProblem) -> bool {
        let same_cache = match (&self.latency_cache, &problem.latency_cache) {
            (Some(kept), Some(cache)) => Arc::ptr_eq(kept, cache),
            (None, None) => true,
            _ => false,
        };
        same_cache && self.words.iter().copied().eq(deployment_words(problem))
    }
}

/// The MILP rows kept with the resident skeleton, with the
/// [`row_words`] they were built for.
#[derive(Debug)]
struct ResidentRows {
    words: Vec<u64>,
    model: PlacementModel,
}

/// The last heuristic instance decided on the resident skeleton: the
/// vectors an [`AssignmentProblem`] adds to the skeleton's pairs, and the
/// assignment the construction returned for them, before hysteresis.  The
/// construction is a pure function of those vectors and the pairs, so an
/// instance that matches them bit for bit has this assignment.
#[derive(Debug)]
struct HeuristicMemo {
    cost: Vec<f64>,
    activation_cost: Vec<f64>,
    capacity: Vec<[f64; 3]>,
    open: Vec<bool>,
    assignment: Vec<Option<usize>>,
}

impl HeuristicMemo {
    /// Whether `instance` has exactly these vectors.  Floats compare as
    /// bits, and the cost vector first: it is the one that changes between
    /// decisions, so a miss usually ends on its first pair.
    fn matches(&self, instance: &AssignmentProblem) -> bool {
        fn same_bits(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        same_bits(&self.cost, instance.cost)
            && same_bits(&self.activation_cost, instance.activation_cost)
            && same_bits(
                self.capacity.as_flattened(),
                instance.capacity.as_flattened(),
            )
            && self.open == instance.open
    }
}

/// Everything [`PlacementSkeleton::new`] reads from `problem` apart from
/// the latency cache, as words: the application and server counts, the
/// latency model, every application field, and each server's device and
/// location.  Floats are their bits, so `0.0` and `-0.0` differ and a NaN
/// matches only its own bits.
fn deployment_words(problem: &PlacementProblem) -> impl Iterator<Item = u64> + '_ {
    let LatencyModel {
        access_delay_ms,
        routing_inflation,
    } = &problem.latency_model;
    let head = [
        problem.apps.len() as u64,
        problem.servers.len() as u64,
        access_delay_ms.to_bits(),
        routing_inflation.to_bits(),
    ];
    let apps = problem.apps.iter().flat_map(|app| {
        let Application {
            id,
            model,
            request_rate_rps,
            latency_slo_ms,
            origin,
            origin_site,
        } = app;
        [
            id.0 as u64,
            *model as u64,
            request_rate_rps.to_bits(),
            latency_slo_ms.to_bits(),
            origin.lat.to_bits(),
            origin.lon.to_bits(),
            *origin_site as u64,
        ]
    });
    let servers = problem.servers.iter().flat_map(|server| {
        [
            server.device as u64,
            server.location.lat.to_bits(),
            server.location.lon.to_bits(),
        ]
    });
    head.into_iter().chain(apps).chain(servers)
}

/// What the MILP rows read beyond the skeleton, as words: each server's
/// capacity bits and power state.
fn row_words(problem: &PlacementProblem) -> impl Iterator<Item = u64> + '_ {
    problem.servers.iter().flat_map(|server| {
        let [compute, memory, bandwidth] = server.available.to_array();
        [
            compute.to_bits(),
            memory.to_bits(),
            bandwidth.to_bits(),
            u64::from(server.powered_on),
        ]
    })
}

impl IncrementalPlacer {
    /// Creates a placer for a policy with default solver settings: exact
    /// solving for instances up to 5 applications × 8 servers (the regional
    /// testbed scale), heuristic beyond that.
    pub fn new(policy: PlacementPolicy) -> Self {
        Self {
            policy,
            exact_size_limit: 40,
            milp_solver: BranchBoundSolver::with_node_limit(20_000),
            resident: Mutex::default(),
        }
    }

    /// Locks the resident deployment, recovering the guard if an earlier
    /// decision panicked while holding it.
    fn lock(&self) -> MutexGuard<'_, Option<Resident>> {
        self.resident
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` on the resident deployment when its skeleton is `skeleton`,
    /// the one a decision started with.
    fn on_resident<R>(
        &self,
        skeleton: &Arc<PlacementSkeleton>,
        f: impl FnOnce(&mut Resident) -> R,
    ) -> Option<R> {
        self.lock()
            .as_mut()
            .filter(|resident| Arc::ptr_eq(&resident.skeleton, skeleton))
            .map(f)
    }

    /// The skeleton of `problem`'s deployment: the resident one when the
    /// problem has the resident deployment's structural inputs, else a
    /// fresh one that becomes resident.  The old deployment is dropped
    /// first, so two skeletons are never alive at once.
    fn skeleton_of(&self, problem: &PlacementProblem) -> Arc<PlacementSkeleton> {
        let mut resident = self.lock();
        if let Some(kept) = resident.as_ref().filter(|kept| kept.matches(problem)) {
            return Arc::clone(&kept.skeleton);
        }
        *resident = None;
        let skeleton = Arc::new(PlacementSkeleton::new(problem));
        *resident = Some(Resident {
            words: deployment_words(problem).collect(),
            latency_cache: problem.latency_cache.clone(),
            skeleton: Arc::clone(&skeleton),
            rows: None,
            heuristic: None,
        });
        skeleton
    }

    /// Forces the heuristic path regardless of instance size.
    pub fn heuristic_only(mut self) -> Self {
        self.exact_size_limit = 0;
        self
    }

    /// Sets the exact-MILP size threshold (`apps * servers`).
    pub fn with_exact_size_limit(mut self, limit: usize) -> Self {
        self.exact_size_limit = limit;
        self
    }

    /// Objective value of an assignment under this placer's policy: the sum
    /// of the per-pair policy costs plus activation costs of newly powered-on
    /// servers.  Returns `None` when the assignment uses an infeasible pair.
    /// This is the quantity the exact and heuristic paths both minimize, so
    /// differential tests compare it rather than raw carbon.
    pub fn objective_of(
        &self,
        problem: &PlacementProblem,
        assignment: &[Option<usize>],
    ) -> Option<f64> {
        let skeleton = self.skeleton_of(problem);
        let (pair_cost, activation_cost) = self.policy.costs(problem, &skeleton);
        let mut total = 0.0;
        if let Some(state) = self.active_migration_state(problem) {
            total += state.migration_carbon_g(assignment);
        }
        let mut newly_on = vec![false; problem.servers.len()];
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = a else { continue };
            total += pair_cost[skeleton.pairs().find(i, *j)?];
            if !problem.servers[*j].powered_on {
                newly_on[*j] = true;
            }
        }
        for (j, on) in newly_on.iter().enumerate() {
            if *on {
                total += activation_cost[j];
            }
        }
        Some(total)
    }

    /// Builds the MILP of Eq. 7 for this placer's policy: binary `x_ij` per
    /// feasible pair, binary `y_j` per server, assignment / capacity /
    /// power-consistency / linking constraints — with the migration terms of
    /// the attached [`PlacementState`] folded into the pair costs (see
    /// `Self::fold_migration_costs`).
    pub fn build_model(&self, problem: &PlacementProblem) -> PlacementModel {
        let skeleton = self.skeleton_of(problem);
        let (mut pair_cost, activation_cost) = self.policy.costs(problem, &skeleton);
        self.fold_migration_costs(problem, &skeleton, &mut pair_cost);
        build_model_from_costs(problem, &skeleton, &pair_cost, &activation_cost)
    }

    /// The migration state that should influence this placer's decisions:
    /// present, carbon-commensurate with the policy, and not all-free.
    /// Free or unit-incompatible states still drive move *accounting*, but
    /// never alter the optimized costs — which is what pins the zero-cost
    /// stateful path to the stateless legacy decisions bit for bit.
    fn active_migration_state<'a>(
        &self,
        problem: &'a PlacementProblem,
    ) -> Option<&'a PlacementState> {
        problem
            .state
            .as_ref()
            .filter(|s| self.policy.migration_aware() && !s.is_free())
    }

    /// Folds the per-application migration costs into the pair costs: every
    /// feasible pair *other than* the incumbent gains the application's
    /// migration carbon.  With the assignment equality (Eq. 3) this is
    /// exactly the linearization of a binary "moved" indicator
    /// `moved_i = 1 - x_{i,prev(i)}` with objective `m_i * moved_i` — the
    /// indicator is eliminated into the costs rather than added as a
    /// variable, so the MILP keeps the *identical* structure across epochs
    /// and the branch-and-bound warm-starts every delta re-solve as a
    /// cost-only change.
    fn fold_migration_costs(
        &self,
        problem: &PlacementProblem,
        skeleton: &PlacementSkeleton,
        pair_cost: &mut [f64],
    ) {
        let Some(state) = self.active_migration_state(problem) else {
            return;
        };
        let pairs = skeleton.pairs();
        for i in 0..pairs.num_apps() {
            let Some(prev) = state.previous.get(i).copied().flatten() else {
                continue;
            };
            let migration = state.migration[i].total_g();
            if migration <= 0.0 {
                continue;
            }
            let row = pairs.row(i);
            for (&j, cost) in pairs.servers()[row.clone()].iter().zip(&mut pair_cost[row]) {
                if j != prev {
                    *cost += migration;
                }
            }
        }
    }

    /// Runs Algorithm 1 on a placement problem.  When the problem carries a
    /// [`PlacementState`], the solve becomes a delta re-placement: the exact
    /// path minimizes operational + activation + migration carbon in one
    /// MILP (via the folded costs), and the heuristic path additionally gets
    /// a hysteresis pass that reverts any move whose forecast savings over
    /// the epoch do not exceed its migration cost.
    ///
    /// A state whose vectors differ in length from the batch, or whose
    /// incumbent names a server outside the problem, is rejected with
    /// [`PlacementError::InvalidState`].
    /// Applications with a negative or non-finite energy or demand are
    /// rejected with [`PlacementError::InvalidDemand`].  An application
    /// whose feasible pairs carry a NaN or infinite cost (the folded pair
    /// cost, or the activation cost of the pair's server) is rejected with
    /// [`PlacementError::NonFiniteCost`] before either path runs, so no
    /// decision is made against a NaN.
    pub fn place(&self, problem: &PlacementProblem) -> Result<PlacementDecision, PlacementError> {
        let (apps, servers) = problem.size();
        if apps == 0 {
            return Err(PlacementError::EmptyBatch);
        }
        if servers == 0 {
            return Err(PlacementError::NoServers);
        }
        if let Some(state) = &problem.state {
            if state.previous.len() != apps
                || state.migration.len() != apps
                || state.previous.iter().flatten().any(|&j| j >= servers)
            {
                return Err(PlacementError::InvalidState);
            }
        }

        let skeleton = self.skeleton_of(problem);
        if !skeleton.invalid_apps().is_empty() {
            return Err(PlacementError::InvalidDemand(
                skeleton.invalid_apps().to_vec(),
            ));
        }
        let (mut pair_cost, activation_cost) = self.policy.costs(problem, &skeleton);
        self.fold_migration_costs(problem, &skeleton, &mut pair_cost);

        // Applications with no feasible server at all (a hard constraint
        // failure), and applications with a non-finite cost on some pair.
        // A row's activation costs need a look only when some server's is
        // non-finite.
        let pairs = skeleton.pairs();
        let activation_finite = activation_cost.iter().all(|c| c.is_finite());
        let mut stranded = Vec::new();
        let mut non_finite = Vec::new();
        for i in 0..apps {
            let row = pairs.row(i);
            if row.is_empty() {
                stranded.push(i);
            } else if pair_cost[row.clone()].iter().any(|c| !c.is_finite())
                || (!activation_finite
                    && pairs.servers()[row]
                        .iter()
                        .any(|&j| !activation_cost[j].is_finite()))
            {
                non_finite.push(i);
            }
        }
        if !stranded.is_empty() {
            return Err(PlacementError::NoFeasibleServer(stranded));
        }
        if !non_finite.is_empty() {
            return Err(PlacementError::NonFiniteCost(non_finite));
        }

        let tried_exact = apps * servers <= self.exact_size_limit;
        let exact_assignment = if tried_exact {
            self.solve_exact(problem, &skeleton, &pair_cost, &activation_cost)
        } else {
            None
        };
        let (assignment, exact, memoized) = match exact_assignment {
            Some(a) => (a, true, false),
            None => {
                let capacity: Vec<[f64; 3]> = problem
                    .servers
                    .iter()
                    .map(|s| s.available.to_array())
                    .collect();
                let open: Vec<bool> = problem.servers.iter().map(|s| s.powered_on).collect();
                let instance = AssignmentProblem {
                    pairs,
                    cost: &pair_cost,
                    capacity: &capacity,
                    activation_cost: &activation_cost,
                    open: &open,
                };
                let memo = self
                    .on_resident(&skeleton, |resident| {
                        let memo = resident.heuristic.as_ref()?;
                        memo.matches(&instance).then(|| memo.assignment.clone())
                    })
                    .flatten();
                let memoized = memo.is_some();
                let constructed = memo.unwrap_or_else(|| {
                    instance
                        .solve()
                        .expect("the placer builds every vector at the problem's size")
                });
                let mut assignment = constructed.clone();
                self.apply_move_hysteresis(problem, &instance, &mut assignment);
                if !memoized {
                    let memo = HeuristicMemo {
                        cost: pair_cost,
                        activation_cost,
                        capacity,
                        open,
                        assignment: constructed,
                    };
                    self.on_resident(&skeleton, |resident| resident.heuristic = Some(memo));
                }
                (assignment, false, memoized)
            }
        };

        let unplaced: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut newly_activated: Vec<usize> = assignment
            .iter()
            .flatten()
            .copied()
            .filter(|j| !problem.servers[*j].powered_on)
            .collect();
        newly_activated.sort_unstable();
        newly_activated.dedup();
        let (moves, migration_carbon_g) = match &problem.state {
            Some(state) => (
                state.moves(&assignment),
                state.migration_carbon_g(&assignment),
            ),
            None => (0, 0.0),
        };

        Ok(PlacementDecision {
            total_carbon_g: problem.total_carbon_g(&assignment).unwrap_or(f64::NAN),
            total_energy_j: problem.total_energy_j(&assignment).unwrap_or(f64::NAN),
            mean_latency_ms: problem.mean_latency_ms(&assignment).unwrap_or(f64::NAN),
            assignment,
            newly_activated,
            unplaced,
            policy: self.policy.name(),
            exact,
            exact_fallback: tried_exact && !exact,
            memoized,
            moves,
            migration_carbon_g,
        })
    }

    /// The hysteresis rule of the heuristic path: visit moved applications
    /// in index order and revert each to its incumbent server when the
    /// folded cost of staying is no worse than the folded cost of the move
    /// (equivalently: the forecast carbon savings over the epoch do not
    /// exceed the migration cost), provided the incumbent is still feasible,
    /// has the capacity, and reverting cannot newly activate a server.  The
    /// exact path needs no such pass — the folded MILP already trades moves
    /// against savings optimally.
    fn apply_move_hysteresis(
        &self,
        problem: &PlacementProblem,
        instance: &AssignmentProblem,
        assignment: &mut [Option<usize>],
    ) {
        let Some(state) = self.active_migration_state(problem) else {
            return;
        };
        let pairs = instance.pairs;
        let demand = pairs.demands();
        // Running per-server usage of the current assignment.
        let mut used = vec![[0.0f64; 3]; instance.num_servers()];
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = *a else {
                continue;
            };
            let Some(placed) = pairs.find(i, j) else {
                continue;
            };
            for (u, d) in used[j].iter_mut().zip(&demand[placed]) {
                *u += d;
            }
        }
        for (i, (a, prev)) in assignment.iter_mut().zip(&state.previous).enumerate() {
            let (Some(current), Some(prev)) = (*a, *prev) else {
                continue;
            };
            if current == prev {
                continue;
            }
            let (Some(keep), Some(moved)) = (pairs.find(i, prev), pairs.find(i, current)) else {
                continue;
            };
            // The moved pair's cost carries the folded migration term, so
            // this is the hysteresis comparison: savings must *exceed* the
            // migration cost for the move to survive.
            if instance.cost[keep] > instance.cost[moved] {
                continue;
            }
            // Reverting must not newly activate the incumbent.
            let incumbent_active = instance.open[prev] || used[prev].iter().any(|u| *u > 0.0);
            if !incumbent_active || !instance.fits(prev, &demand[keep], &used) {
                continue;
            }
            for (u, d) in used[current].iter_mut().zip(&demand[moved]) {
                *u -= d;
            }
            for (u, d) in used[prev].iter_mut().zip(&demand[keep]) {
                *u += d;
            }
            *a = Some(prev);
        }
    }

    /// Solves the MILP of Eq. 7 exactly with branch-and-bound.  The rows
    /// kept with the resident `skeleton` are reused when every server's
    /// capacity and power state are bit-identical to theirs, and only their
    /// objective is rewritten; otherwise the rows are built again.  Either
    /// way the solved rows stay resident for the next decision.  They are
    /// taken out while in use, so a decision that panics leaves none.
    fn solve_exact(
        &self,
        problem: &PlacementProblem,
        skeleton: &Arc<PlacementSkeleton>,
        pair_cost: &[f64],
        activation_cost: &[f64],
    ) -> Option<Vec<Option<usize>>> {
        let kept = self
            .on_resident(skeleton, |resident| resident.rows.take())
            .flatten()
            .filter(|rows| rows.words.iter().copied().eq(row_words(problem)));
        let placement_model = match kept {
            Some(ResidentRows { mut model, .. }) => {
                write_objective(&mut model, problem, pair_cost, activation_cost);
                model
            }
            None => build_model_from_costs(problem, skeleton, pair_cost, activation_cost),
        };
        let solution = self.milp_solver.solve(&placement_model.model);
        let assignment = solution
            .has_solution()
            .then(|| placement_model.decode(&solution.values));
        let rows = ResidentRows {
            words: row_words(problem).collect(),
            model: placement_model,
        };
        self.on_resident(skeleton, |resident| resident.rows = Some(rows));
        assignment
    }
}

/// Builds the MILP of Eq. 7 from the skeleton's pairs and their costs.
///
/// Variables: `x_ij` per feasible pair, `y_j` per server.  Constraints:
/// assignment (Eq. 3), capacity linked to power state (Eq. 1), power
/// consistency (Eq. 4) and assignment-requires-active (Eq. 5).
fn build_model_from_costs(
    problem: &PlacementProblem,
    skeleton: &PlacementSkeleton,
    pair_cost: &[f64],
    activation_cost: &[f64],
) -> PlacementModel {
    let (apps, servers) = problem.size();
    let pairs = skeleton.pairs();
    let mut model = Model::new();
    // x variables for feasible pairs only, in pair order (apps, then
    // servers ascending), so pair `p` is variable `p`; each app's
    // assignment row is gathered on the way.
    let mut x: Vec<Vec<Option<VarId>>> = vec![vec![None; servers]; apps];
    let mut assign_rows = Vec::with_capacity(apps);
    for (i, x_row) in x.iter_mut().enumerate() {
        let mut assign = LinearExpr::new();
        for p in pairs.row(i) {
            let v = model.add_binary();
            x_row[pairs.servers()[p]] = Some(v);
            assign.add(v, 1.0);
        }
        assign_rows.push(assign);
    }
    // y variables per server.
    let y: Vec<VarId> = (0..servers).map(|_| model.add_binary()).collect();
    for (server, &y_j) in problem.servers.iter().zip(&y) {
        if server.powered_on {
            // Power-state consistency (Eq. 4): already-on servers stay on.
            model.add_constraint(LinearExpr::new().with(y_j, 1.0), Comparison::Equal, 1.0);
        }
    }
    // Assignment constraints (Eq. 3).
    for assign in assign_rows {
        model.add_constraint(assign, Comparison::Equal, 1.0);
    }
    // Capacity constraints per server and resource dimension (Eq. 1),
    // with the y_j coupling, and x <= y linking (Eq. 5); a server's
    // column lists its pairs apps ascending.
    let demand = pairs.demands();
    for (j, (server, &y_j)) in problem.servers.iter().zip(&y).enumerate() {
        let column = || {
            pairs
                .column(j)
                .iter()
                .map(|&(i, slot)| pairs.row(i).start + slot)
        };
        for (k, cap_k) in server.available.to_array().into_iter().enumerate() {
            let mut expr = LinearExpr::new();
            for p in column() {
                expr.add(VarId(p), demand[p][k]);
            }
            expr.add(y_j, -cap_k);
            if !expr.terms.is_empty() {
                model.add_constraint(expr, Comparison::LessEq, 0.0);
            }
        }
        for p in column() {
            model.add_constraint(
                LinearExpr::new().with(VarId(p), 1.0).with(y_j, -1.0),
                Comparison::LessEq,
                0.0,
            );
        }
    }

    let mut placement = PlacementModel { model, x, y };
    write_objective(&mut placement, problem, pair_cost, activation_cost);
    placement
}

/// Writes the objective of Eq. 7 over the rows of
/// [`build_model_from_costs`]: every coefficient is reset, then each pair's
/// cost is added to its `x` variable (variable `p` for pair `p`) and each
/// powered-off server's activation cost to its `y` variable (`y_j -
/// y_j^curr` reduces to `y_j` when off, and the power-consistency row pins
/// `y_j = 1` when on).  Every coefficient is added to `0.0`, so rows built
/// once and rewritten carry the bits of a fresh build.
fn write_objective(
    placement: &mut PlacementModel,
    problem: &PlacementProblem,
    pair_cost: &[f64],
    activation_cost: &[f64],
) {
    let model = &mut placement.model;
    model.clear_objective();
    for (p, &cost) in pair_cost.iter().enumerate() {
        model.set_objective_term(VarId(p), cost);
    }
    for ((server, &y_j), &cost) in problem
        .servers
        .iter()
        .zip(&placement.y)
        .zip(activation_cost)
    {
        if !server.powered_on {
            model.set_objective_term(y_j, cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{MigrationCost, ServerSnapshot};
    use carbonedge_geo::Coordinates;
    use carbonedge_grid::ZoneId;
    use carbonedge_solver::MilpOutcome;
    use carbonedge_workload::{AppId, DeviceKind, ModelKind, ResourceDemand};

    fn green_and_dirty_problem(slo_ms: f64) -> PlacementProblem {
        let servers = vec![
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::A2,
                Coordinates::new(48.14, 11.58),
            )
            .with_carbon_intensity(550.0),
            ServerSnapshot::new(
                1,
                1,
                ZoneId(1),
                DeviceKind::A2,
                Coordinates::new(46.95, 7.45),
            )
            .with_carbon_intensity(45.0),
        ];
        let apps = vec![Application::new(
            AppId(0),
            ModelKind::ResNet50,
            20.0,
            slo_ms,
            Coordinates::new(48.14, 11.58),
            0,
        )];
        PlacementProblem::new(servers, apps, 1.0).with_latency_model(LatencyModel::deterministic())
    }

    #[test]
    fn carbon_aware_shifts_to_green_zone() {
        let p = green_and_dirty_problem(30.0);
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(1)]);
        assert!(d.exact, "small instance should use the exact solver");
        assert!(d.unplaced.is_empty());
    }

    #[test]
    fn latency_aware_stays_local() {
        let p = green_and_dirty_problem(30.0);
        let d = IncrementalPlacer::new(PlacementPolicy::LatencyAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0)]);
    }

    #[test]
    fn tight_slo_forces_local_placement_even_for_carbon_aware() {
        let p = green_and_dirty_problem(3.0);
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0)]);
    }

    #[test]
    fn impossible_slo_reports_stranded_apps() {
        let mut p = green_and_dirty_problem(30.0);
        p.apps[0].latency_slo_ms = 0.01;
        let err = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap_err();
        assert_eq!(err, PlacementError::NoFeasibleServer(vec![0]));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let p = PlacementProblem::new(vec![], vec![], 1.0);
        assert_eq!(
            IncrementalPlacer::new(PlacementPolicy::CarbonAware)
                .place(&p)
                .unwrap_err(),
            PlacementError::EmptyBatch
        );
        let p2 = green_and_dirty_problem(30.0);
        let no_servers = PlacementProblem::new(vec![], p2.apps.clone(), 1.0);
        assert_eq!(
            IncrementalPlacer::new(PlacementPolicy::CarbonAware)
                .place(&no_servers)
                .unwrap_err(),
            PlacementError::NoServers
        );
    }

    #[test]
    fn carbon_decision_never_exceeds_latency_aware_carbon() {
        let p = green_and_dirty_problem(30.0);
        let carbon = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        let latency = IncrementalPlacer::new(PlacementPolicy::LatencyAware)
            .place(&p)
            .unwrap();
        assert!(carbon.total_carbon_g <= latency.total_carbon_g + 1e-9);
        assert!(carbon.mean_latency_ms >= latency.mean_latency_ms - 1e-9);
    }

    #[test]
    fn capacity_overflow_spills_to_second_server() {
        // One saturating batch: each A2 fits ~3 apps at 25 rps of ResNet50
        // (25 * 13ms = 0.325 utilization each), so 6 apps need both servers.
        let servers = vec![
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::A2,
                Coordinates::new(48.14, 11.58),
            )
            .with_carbon_intensity(550.0),
            ServerSnapshot::new(
                1,
                1,
                ZoneId(1),
                DeviceKind::A2,
                Coordinates::new(46.95, 7.45),
            )
            .with_carbon_intensity(45.0),
        ];
        let apps: Vec<Application> = (0..6)
            .map(|i| {
                Application::new(
                    AppId(i),
                    ModelKind::ResNet50,
                    25.0,
                    40.0,
                    Coordinates::new(48.14, 11.58),
                    0,
                )
            })
            .collect();
        let p = PlacementProblem::new(servers, apps, 1.0)
            .with_latency_model(LatencyModel::deterministic());
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert!(d.unplaced.is_empty());
        let on_green = d.assignment.iter().filter(|a| **a == Some(1)).count();
        let on_dirty = d.assignment.iter().filter(|a| **a == Some(0)).count();
        assert_eq!(on_green, 3, "green server should be filled to capacity");
        assert_eq!(
            on_dirty, 3,
            "capacity must force spillover to the dirty server"
        );
    }

    #[test]
    fn newly_activated_servers_are_reported() {
        let mut p = green_and_dirty_problem(30.0);
        p.servers[1].powered_on = false;
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        // Still worth activating the green server: activation carbon of an A2
        // for one hour at 45 g/kWh is tiny compared to the operational savings.
        assert_eq!(d.assignment, vec![Some(1)]);
        assert_eq!(d.newly_activated, vec![1]);
    }

    #[test]
    fn activation_cost_can_keep_app_local() {
        // Make the green server's activation very expensive by giving it a
        // huge base power; for a single small app the activation carbon then
        // outweighs the operational savings.
        let mut p = green_and_dirty_problem(30.0);
        p.servers[1].powered_on = false;
        p.servers[1].base_power_w = 100_000.0;
        p.apps[0].request_rate_rps = 1.0;
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0)]);
        assert!(d.newly_activated.is_empty());
    }

    #[test]
    fn heuristic_and_exact_agree_on_small_instances() {
        let p = green_and_dirty_problem(30.0);
        let exact = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        let heuristic = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .heuristic_only()
            .place(&p)
            .unwrap();
        assert!(!heuristic.exact);
        assert!((exact.total_carbon_g - heuristic.total_carbon_g).abs() < 1e-6);
    }

    #[test]
    fn only_a_failed_exact_path_is_a_fallback() {
        let p = green_and_dirty_problem(30.0);
        let exact = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert!(exact.exact);
        assert!(!exact.exact_fallback);
        let heuristic = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .heuristic_only()
            .place(&p)
            .unwrap();
        assert!(!heuristic.exact);
        assert!(!heuristic.exact_fallback);
    }

    #[test]
    fn an_infeasible_milp_falls_back_to_the_heuristic_visibly() {
        // Eight ResNet50 apps at 40 rps use 0.52 of an A2 each, so one A2
        // takes a single app: the MILP over the 8 pairs is infeasible, and
        // the heuristic places what fits.
        let servers = vec![ServerSnapshot::new(
            0,
            0,
            ZoneId(0),
            DeviceKind::A2,
            Coordinates::new(48.14, 11.58),
        )
        .with_carbon_intensity(550.0)];
        let apps: Vec<Application> = (0..8)
            .map(|i| {
                Application::new(
                    AppId(i),
                    ModelKind::ResNet50,
                    40.0,
                    40.0,
                    Coordinates::new(48.14, 11.58),
                    0,
                )
            })
            .collect();
        let p = PlacementProblem::new(servers, apps, 1.0)
            .with_latency_model(LatencyModel::deterministic());
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let model = placer.build_model(&p);
        assert_eq!(
            placer.milp_solver.clone().solve(&model.model).outcome,
            MilpOutcome::Infeasible
        );
        let d = placer.place(&p).unwrap();
        assert!(!d.exact);
        assert!(d.exact_fallback);
        assert_eq!(d.unplaced, (1..8).collect::<Vec<_>>());
    }

    #[test]
    fn energy_aware_picks_efficient_device() {
        let servers = vec![
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::Gtx1080,
                Coordinates::new(48.0, 11.0),
            )
            .with_carbon_intensity(50.0),
            ServerSnapshot::new(
                1,
                0,
                ZoneId(0),
                DeviceKind::OrinNano,
                Coordinates::new(48.0, 11.0),
            )
            .with_carbon_intensity(50.0),
        ];
        let apps = vec![Application::new(
            AppId(0),
            ModelKind::EfficientNetB0,
            10.0,
            20.0,
            Coordinates::new(48.0, 11.0),
            0,
        )];
        let p = PlacementProblem::new(servers, apps, 1.0)
            .with_latency_model(LatencyModel::deterministic());
        let d = IncrementalPlacer::new(PlacementPolicy::EnergyAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(1)]);
    }

    #[test]
    fn larger_batch_uses_heuristic_and_respects_capacity() {
        // 20 apps x 6 servers exceeds the default exact limit.
        let servers: Vec<ServerSnapshot> = (0..6)
            .map(|j| {
                ServerSnapshot::new(
                    j,
                    j,
                    ZoneId(j),
                    DeviceKind::A2,
                    Coordinates::new(46.0 + j as f64 * 0.5, 8.0 + j as f64 * 0.5),
                )
                .with_carbon_intensity(100.0 + 80.0 * j as f64)
            })
            .collect();
        let apps: Vec<Application> = (0..20)
            .map(|i| {
                Application::new(
                    AppId(i),
                    ModelKind::ResNet50,
                    15.0,
                    60.0,
                    Coordinates::new(46.0, 8.0),
                    0,
                )
            })
            .collect();
        let p = PlacementProblem::new(servers, apps, 1.0)
            .with_latency_model(LatencyModel::deterministic());
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert!(!d.exact);
        assert!(d.unplaced.is_empty());
        // Per-server compute usage must stay within one device each.
        let mut usage = vec![0.0f64; 6];
        for (i, a) in d.assignment.iter().enumerate() {
            let j = a.unwrap();
            usage[j] += p.demand(i, j).unwrap().compute;
        }
        for u in usage {
            assert!(u <= 1.0 + 1e-6, "usage {u}");
        }
    }

    #[test]
    fn decision_metrics_are_consistent() {
        let p = green_and_dirty_problem(30.0);
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert!((d.total_carbon_g - p.total_carbon_g(&d.assignment).unwrap()).abs() < 1e-9);
        assert!((d.total_energy_j - p.total_energy_j(&d.assignment).unwrap()).abs() < 1e-9);
        assert_eq!(d.policy, "CarbonEdge");
    }

    #[test]
    fn placement_error_display() {
        assert!(PlacementError::EmptyBatch.to_string().contains("empty"));
        assert!(PlacementError::NoFeasibleServer(vec![1, 2])
            .to_string()
            .contains("[1, 2]"));
        assert!(PlacementError::InvalidState.to_string().contains("state"));
        assert!(PlacementError::NonFiniteCost(vec![0, 3])
            .to_string()
            .contains("non-finite placement cost for applications [0, 3]"));
        assert!(PlacementError::InvalidDemand(vec![2])
            .to_string()
            .contains("negative or non-finite energy or demand for applications [2]"));
    }

    #[test]
    fn a_negative_or_infinite_request_rate_is_rejected_on_both_paths() {
        // A negative rate prices a negative energy, so the carbon-aware
        // policy would prefer the dirtier server; an infinite one prices
        // infinite energy and demand.  Both are input errors.
        for rate in [-5.0, f64::INFINITY] {
            let mut p = green_and_dirty_problem(30.0);
            p.apps[0].request_rate_rps = rate;
            for placer in [
                IncrementalPlacer::new(PlacementPolicy::CarbonAware),
                IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
            ] {
                assert_eq!(
                    placer.place(&p).unwrap_err(),
                    PlacementError::InvalidDemand(vec![0]),
                    "rate {rate}"
                );
                assert_eq!(
                    placer.place(&p).unwrap_err(),
                    PlacementError::InvalidDemand(vec![0]),
                    "rate {rate}, resident deployment"
                );
            }
        }
        let mut idle = green_and_dirty_problem(30.0);
        idle.apps[0].request_rate_rps = 0.0;
        for placer in [
            IncrementalPlacer::new(PlacementPolicy::CarbonAware),
            IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        ] {
            let d = placer.place(&idle).unwrap();
            assert!(d.unplaced.is_empty());
            assert_eq!(d.total_carbon_g, 0.0);
        }
    }

    #[test]
    fn a_grown_or_shrunk_problem_decides_like_a_fresh_placer() {
        let base = green_and_dirty_problem(30.0);
        let mut more_apps = base.clone();
        more_apps.apps.push(more_apps.apps[0].clone());
        let mut fewer_servers = base.clone();
        fewer_servers.servers.pop();
        for placer in [
            IncrementalPlacer::new(PlacementPolicy::CarbonAware),
            IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        ] {
            placer.place(&base).unwrap();
            for p in [&more_apps, &fewer_servers, &base] {
                let everywhere = vec![Some(0); p.apps.len()];
                assert_eq!(placer.place(p), placer.clone().place(p));
                assert_eq!(
                    placer.objective_of(p, &everywhere),
                    placer.clone().objective_of(p, &everywhere)
                );
            }
        }
    }

    /// Decides `problem` on `placer` and checks the decision against a fresh
    /// placer's: the assignment, the carbon, energy and latency bits and
    /// `exact`.  Returns the assignment.
    fn decides_like_a_fresh_placer(
        placer: &IncrementalPlacer,
        problem: &PlacementProblem,
        case: &str,
    ) -> Vec<Option<usize>> {
        let key = |d: PlacementDecision| {
            let bits = [d.total_carbon_g, d.total_energy_j, d.mean_latency_ms].map(f64::to_bits);
            (d.assignment, bits, d.exact)
        };
        let fresh = key(placer.clone().place(problem).unwrap());
        let reused = key(placer.place(problem).unwrap());
        assert_eq!(reused, fresh, "{case}");
        reused.0
    }

    #[test]
    fn a_placer_reuses_only_a_bit_identical_deployment() {
        // One ResNet50 application at a dirty server (0) with a green one
        // (1) about 330 km east: within a 15 ms SLO, with room for 20 rps
        // and a 350 MB image but not for 40 rps or a 520 MB YOLOv4 image,
        // and too costly to power on.  Every change but the sign of a zero
        // and the equal cache moves the application to the dirty server,
        // so a placer that kept the old skeleton or rows would not.
        let home = Coordinates::new(47.0, 0.0);
        let servers = vec![
            ServerSnapshot::new(0, 0, ZoneId(0), DeviceKind::A2, home).with_carbon_intensity(550.0),
            ServerSnapshot::new(1, 1, ZoneId(1), DeviceKind::A2, Coordinates::new(47.0, 4.4))
                .with_carbon_intensity(45.0)
                .with_available(ResourceDemand::new(0.5, 400.0, 1000.0)),
        ];
        let app = Application::new(AppId(0), ModelKind::ResNet50, 20.0, 15.0, home, 0);
        let mut base = PlacementProblem::new(servers, vec![app], 1.0)
            .with_latency_model(LatencyModel::deterministic());
        base.servers[1].base_power_w = 100_000.0;
        let changed = |change: &dyn Fn(&mut PlacementProblem)| {
            let mut p = base.clone();
            change(&mut p);
            p
        };

        // Two routing inflations put the green server on either side of
        // the SLO.
        let inflated = |routing_inflation| LatencyModel {
            routing_inflation,
            ..LatencyModel::default()
        };
        let green_rtt = |inflation| {
            base.clone()
                .with_latency_model(inflated(inflation))
                .latency_ms(0, 1)
        };
        let (near, far) = (1.8, 2.2);
        assert!(green_rtt(near) < green_rtt(far));
        let mut near_route = base.clone().with_latency_model(inflated(near));
        near_route.apps[0].latency_slo_ms = (green_rtt(near) + green_rtt(far)) / 2.0;
        let mut far_route = near_route.clone();
        far_route.latency_model.routing_inflation = far;

        // Latency caches: the green server within the SLO, or beyond it.
        let cache = |green_ms| {
            Arc::new(PairLatencyCache::new(
                vec![0],
                vec![0, 1],
                vec![0.3, green_ms].into(),
                2,
            ))
        };
        let within = base.clone().with_latency_cache(cache(9.0));
        let beyond = base.clone().with_latency_cache(cache(20.0));
        let within_again = base.clone().with_latency_cache(cache(9.0));

        let (green, dirty) = (vec![Some(1)], vec![Some(0)]);
        let cases = [
            (
                "rate",
                &base,
                changed(&|p| p.apps[0].request_rate_rps = 40.0),
                &dirty,
            ),
            (
                "SLO",
                &base,
                changed(&|p| p.apps[0].latency_slo_ms = 5.0),
                &dirty,
            ),
            (
                "model",
                &base,
                changed(&|p| p.apps[0].model = ModelKind::YoloV4),
                &dirty,
            ),
            (
                "origin",
                &base,
                changed(&|p| p.apps[0].origin.lon = -6.0),
                &dirty,
            ),
            (
                "-0.0 origin",
                &base,
                changed(&|p| p.apps[0].origin.lon = -0.0),
                &green,
            ),
            (
                "device",
                &base,
                changed(&|p| p.servers[1].device = DeviceKind::XeonCpu),
                &dirty,
            ),
            (
                "location",
                &base,
                changed(&|p| p.servers[1].location.lon = 10.0),
                &dirty,
            ),
            ("routing inflation", &near_route, far_route, &dirty),
            ("latency cache", &base, beyond.clone(), &dirty),
            ("other latency cache", &within, beyond, &dirty),
            ("equal latency cache", &within, within_again, &green),
            (
                "capacity",
                &base,
                changed(&|p| p.servers[1].available.compute = 0.2),
                &dirty,
            ),
            (
                "power state",
                &base,
                changed(&|p| p.servers[1].powered_on = false),
                &dirty,
            ),
        ];
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        assert!(placer.place(&base).unwrap().exact);
        for (case, before, after, expected) in &cases {
            assert_eq!(
                decides_like_a_fresh_placer(&placer, before, case),
                green,
                "{case}"
            );
            assert_eq!(
                &decides_like_a_fresh_placer(&placer, after, case),
                *expected,
                "{case}"
            );
            assert_eq!(
                decides_like_a_fresh_placer(&placer, before, case),
                green,
                "{case}"
            );
        }
    }

    #[test]
    fn a_nan_intensity_is_rejected_on_both_paths() {
        let mut one = green_and_dirty_problem(30.0);
        one.servers[1].carbon_intensity = f64::NAN;
        let mut both = one.clone();
        both.servers[0].carbon_intensity = f64::NAN;
        for p in [one, both] {
            for placer in [
                IncrementalPlacer::new(PlacementPolicy::CarbonAware),
                IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
            ] {
                assert_eq!(
                    placer.place(&p).unwrap_err(),
                    PlacementError::NonFiniteCost(vec![0])
                );
            }
        }
    }

    #[test]
    fn an_infinite_activation_cost_is_rejected() {
        // Server 1 is off with an infinite base power: its pair costs stay
        // finite, and only its activation carbon is not.  The latency-aware
        // policy charges no activation, so it still decides.
        let mut p = green_and_dirty_problem(30.0);
        p.servers[1].base_power_w = f64::INFINITY;
        p.servers[1].powered_on = false;
        let (costs, activation) =
            PlacementPolicy::CarbonAware.costs(&p, &PlacementSkeleton::new(&p));
        assert!(costs.iter().all(|c| c.is_finite()));
        assert_eq!(activation[1], f64::INFINITY);
        for placer in [
            IncrementalPlacer::new(PlacementPolicy::CarbonAware),
            IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        ] {
            assert_eq!(
                placer.place(&p).unwrap_err(),
                PlacementError::NonFiniteCost(vec![0])
            );
        }
        assert!(IncrementalPlacer::new(PlacementPolicy::LatencyAware)
            .place(&p)
            .is_ok());
    }

    #[test]
    fn a_nan_tradeoff_alpha_is_rejected() {
        let p = green_and_dirty_problem(30.0);
        let policy = PlacementPolicy::CarbonEnergyTradeoff { alpha: f64::NAN };
        for placer in [
            IncrementalPlacer::new(policy),
            IncrementalPlacer::new(policy).heuristic_only(),
        ] {
            assert_eq!(
                placer.place(&p).unwrap_err(),
                PlacementError::NonFiniteCost(vec![0])
            );
        }
    }

    #[test]
    fn a_nan_slo_leaves_the_app_without_candidates() {
        let mut p = green_and_dirty_problem(30.0);
        let mut second = p.apps[0].clone();
        second.id = AppId(1);
        second.latency_slo_ms = f64::NAN;
        p.apps.push(second);
        let skeleton = PlacementSkeleton::new(&p);
        assert_eq!(skeleton.pairs().row(0).len(), 2);
        assert!(skeleton.pairs().row(1).is_empty());
        for placer in [
            IncrementalPlacer::new(PlacementPolicy::CarbonAware),
            IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        ] {
            assert_eq!(
                placer.place(&p).unwrap_err(),
                PlacementError::NoFeasibleServer(vec![1])
            );
        }
    }

    #[test]
    fn an_incumbent_on_an_unknown_server_is_rejected() {
        // Two servers, but the incumbent names server 7.
        let p = green_and_dirty_problem(30.0).with_state(PlacementState::new(
            vec![Some(7)],
            vec![MigrationCost::new(1.0, 0.0)],
        ));
        for placer in [
            IncrementalPlacer::new(PlacementPolicy::CarbonAware),
            IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        ] {
            assert_eq!(placer.place(&p).unwrap_err(), PlacementError::InvalidState);
        }
    }

    #[test]
    fn a_state_of_the_wrong_length_is_rejected() {
        let too_long = green_and_dirty_problem(30.0).with_state(PlacementState::new(
            vec![Some(0), Some(1)],
            vec![MigrationCost::new(1.0, 0.0); 2],
        ));
        let misaligned = green_and_dirty_problem(30.0).with_state(PlacementState {
            previous: vec![Some(0)],
            migration: vec![],
        });
        for p in [too_long, misaligned] {
            for placer in [
                IncrementalPlacer::new(PlacementPolicy::CarbonAware),
                IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
            ] {
                assert_eq!(placer.place(&p).unwrap_err(), PlacementError::InvalidState);
            }
        }
    }

    #[test]
    fn a_bit_identical_heuristic_instance_reuses_its_construction() {
        // Four ResNet50 apps within reach of a green and a dirty server,
        // three of them incumbent on the dirty one under a paid migration
        // cost, so the costs fold migration terms and hysteresis runs.
        let server = |id, lat, lon, intensity| {
            ServerSnapshot::new(
                id,
                id,
                ZoneId(id),
                DeviceKind::A2,
                Coordinates::new(lat, lon),
            )
            .with_carbon_intensity(intensity)
        };
        let apps: Vec<Application> = (0..4)
            .map(|i| {
                let origin = Coordinates::new(47.5, 9.5);
                Application::new(AppId(i), ModelKind::ResNet50, 25.0, 40.0, origin, 0)
            })
            .collect();
        let base = PlacementProblem::new(
            vec![server(0, 46.95, 7.45, 45.0), server(1, 48.14, 11.58, 550.0)],
            apps,
            1.0,
        )
        .with_latency_model(LatencyModel::deterministic())
        .with_state(PlacementState::new(
            vec![Some(1), Some(1), Some(1), None],
            vec![MigrationCost::new(0.004, 0.0); 4],
        ));
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
        let fresh = |p: &PlacementProblem| placer.clone().place(p).unwrap();

        let first = placer.place(&base).unwrap();
        assert!(!first.memoized);
        let again = placer.place(&base).unwrap();
        assert!(again.memoized);
        assert_eq!(
            PlacementDecision {
                memoized: false,
                ..again
            },
            fresh(&base)
        );

        // One bit of one input per case; a high mantissa bit, so that the
        // priced instance changes too.  Each misses and decides afresh.
        fn flip(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ (1 << 40));
        }
        for case in [
            "intensity",
            "epoch hours",
            "capacity",
            "power state",
            "migration",
        ] {
            let mut p = base.clone();
            match case {
                "intensity" => flip(&mut p.servers[0].carbon_intensity),
                "epoch hours" => flip(&mut p.epoch_hours),
                "capacity" => flip(&mut p.servers[1].available.compute),
                "power state" => p.servers[0].powered_on = false,
                _ => flip(&mut p.state.as_mut().unwrap().migration[2].data_transfer_g),
            }
            placer.place(&base).unwrap();
            let d = placer.place(&p).unwrap();
            assert!(!d.memoized, "{case}");
            assert_eq!(d, fresh(&p), "{case}");
            assert!(placer.place(&p).unwrap().memoized, "{case}, again");
        }

        // Each vector is compared on its own: a powered-off server's base
        // power moves only its activation cost, and a policy without
        // activation costs sees a power state only in `open`.
        let mut off = base.clone();
        off.servers[0].powered_on = false;
        let mut lower_power = off.clone();
        lower_power.servers[0].base_power_w *= 0.5;
        let latency = IncrementalPlacer::new(PlacementPolicy::LatencyAware).heuristic_only();
        for (placer, before, after) in [(&placer, &off, &lower_power), (&latency, &base, &off)] {
            placer.place(before).unwrap();
            let d = placer.place(after).unwrap();
            assert!(!d.memoized, "{}", placer.policy.name());
            assert_eq!(d, placer.clone().place(after).unwrap());
        }

        // A new deployment drops the instance with the old skeleton.
        let mut faster = base.clone();
        faster.apps[3].request_rate_rps = 26.0;
        assert!(!placer.place(&faster).unwrap().memoized);
        let back = placer.place(&base).unwrap();
        assert!(!back.memoized);
        assert_eq!(back, fresh(&base));
    }

    #[test]
    fn repeated_placements_reuse_the_solver_workspace() {
        // The exact path's solver workspace persists across `place` calls;
        // re-solving the identical problem must warm-start to the identical
        // decision (a fixed point, not an approximation).
        let p = green_and_dirty_problem(30.0);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let first = placer.place(&p).unwrap();
        assert!(first.exact);
        for _ in 0..3 {
            let again = placer.place(&p).unwrap();
            assert_eq!(first, again);
        }
    }

    #[test]
    fn build_model_matches_place_objective() {
        // Solving the public MILP form directly must reproduce the decision
        // the placer's exact path commits.
        let p = green_and_dirty_problem(30.0);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let placement_model = placer.build_model(&p);
        let solution = placer.milp_solver.solve(&placement_model.model);
        assert!(solution.has_solution());
        let assignment = placement_model.decode(&solution.values);
        let decision = placer.place(&p).unwrap();
        assert_eq!(assignment, decision.assignment);
        let objective = placer.objective_of(&p, &assignment).unwrap();
        assert!((objective - solution.objective).abs() < 1e-6);
    }

    #[test]
    fn objective_of_rejects_infeasible_assignments() {
        let p = green_and_dirty_problem(3.0); // remote server violates the SLO
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        assert!(placer.objective_of(&p, &[Some(1)]).is_none());
        assert!(placer.objective_of(&p, &[Some(0)]).is_some());
        // Unplaced applications contribute nothing.
        assert_eq!(placer.objective_of(&p, &[None]), Some(0.0));
    }

    #[test]
    fn objective_of_includes_activation_costs() {
        let mut p = green_and_dirty_problem(30.0);
        p.servers[1].powered_on = false;
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let objective = placer.objective_of(&p, &[Some(1)]).unwrap();
        let expected = p.operational_carbon_g(0, 1).unwrap() + p.activation_carbon_g(1);
        assert!((objective - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_state_reproduces_stateless_decisions_and_counts_moves() {
        let p = green_and_dirty_problem(30.0);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let stateless = placer.place(&p).unwrap();
        let stateful = placer
            .place(&p.clone().with_state(PlacementState::free(vec![Some(0)])))
            .unwrap();
        assert_eq!(stateless.assignment, stateful.assignment);
        assert_eq!(stateless.total_carbon_g, stateful.total_carbon_g);
        assert_eq!(stateless.moves, 0, "stateless problems report no moves");
        assert_eq!(stateful.moves, 1, "free state still tracks churn");
        assert_eq!(stateful.migration_carbon_g, 0.0);
    }

    #[test]
    fn migration_cost_pins_app_to_incumbent_on_the_exact_path() {
        let p = green_and_dirty_problem(30.0);
        let savings = p.operational_carbon_g(0, 0).unwrap() - p.operational_carbon_g(0, 1).unwrap();
        assert!(savings > 0.0);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        // Migration dearer than the epoch's savings: stay on the dirty
        // incumbent.
        let pinned = placer
            .place(&p.clone().with_state(PlacementState::new(
                vec![Some(0)],
                vec![MigrationCost::new(savings * 2.0, 0.0)],
            )))
            .unwrap();
        assert!(pinned.exact);
        assert_eq!(pinned.assignment, vec![Some(0)]);
        assert_eq!(pinned.moves, 0);
        assert_eq!(pinned.migration_carbon_g, 0.0);
        // Migration cheaper than the savings: move and get charged for it.
        let moved = placer
            .place(&p.with_state(PlacementState::new(
                vec![Some(0)],
                vec![MigrationCost::new(savings * 0.5, 0.0)],
            )))
            .unwrap();
        assert_eq!(moved.assignment, vec![Some(1)]);
        assert_eq!(moved.moves, 1);
        assert!((moved.migration_carbon_g - savings * 0.5).abs() < 1e-9);
    }

    #[test]
    fn heuristic_hysteresis_matches_the_exact_migration_tradeoff() {
        let p = green_and_dirty_problem(30.0);
        let savings = p.operational_carbon_g(0, 0).unwrap() - p.operational_carbon_g(0, 1).unwrap();
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only();
        let pinned = placer
            .place(&p.clone().with_state(PlacementState::new(
                vec![Some(0)],
                vec![MigrationCost::new(savings * 2.0, 0.0)],
            )))
            .unwrap();
        assert!(!pinned.exact);
        assert_eq!(
            pinned.assignment,
            vec![Some(0)],
            "move savings below the migration cost must be held back"
        );
        let moved = placer
            .place(&p.with_state(PlacementState::new(
                vec![Some(0)],
                vec![MigrationCost::new(savings * 0.5, 0.0)],
            )))
            .unwrap();
        assert_eq!(moved.assignment, vec![Some(1)]);
        assert!((moved.migration_carbon_g - savings * 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_full_incumbent_blocks_a_hysteresis_revert() {
        // Four ResNet50 apps at 25 rps use 0.325 of an A2 each, so three fit
        // per server.  All four are incumbent on the green server; the
        // heuristic keeps three there and moves app 3 to the dirty server.
        // Staying would be far cheaper than the move plus its migration, but
        // the incumbent is full, so the move must survive the hysteresis
        // pass.
        let servers = vec![
            ServerSnapshot::new(
                0,
                0,
                ZoneId(0),
                DeviceKind::A2,
                Coordinates::new(46.95, 7.45),
            )
            .with_carbon_intensity(45.0),
            ServerSnapshot::new(
                1,
                1,
                ZoneId(1),
                DeviceKind::A2,
                Coordinates::new(48.14, 11.58),
            )
            .with_carbon_intensity(550.0),
        ];
        let apps: Vec<Application> = (0..4)
            .map(|i| {
                Application::new(
                    AppId(i),
                    ModelKind::ResNet50,
                    25.0,
                    40.0,
                    Coordinates::new(47.5, 9.5),
                    0,
                )
            })
            .collect();
        let p = PlacementProblem::new(servers, apps, 1.0)
            .with_latency_model(LatencyModel::deterministic())
            .with_state(PlacementState::new(
                vec![Some(0); 4],
                vec![MigrationCost::new(1.0, 0.0); 4],
            ));
        let keep = p.operational_carbon_g(3, 0).unwrap();
        let migrate = p.operational_carbon_g(3, 1).unwrap() + 1.0;
        assert!(
            keep < migrate,
            "app 3 would revert if the incumbent had room"
        );
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .heuristic_only()
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0), Some(0), Some(0), Some(1)]);
        assert_eq!(d.moves, 1);
        let mut compute = [0.0f64; 2];
        for (i, a) in d.assignment.iter().enumerate() {
            let j = a.unwrap();
            compute[j] += p.demand(i, j).unwrap().compute;
        }
        for c in compute {
            assert!(c <= 1.0, "compute {c}");
        }
    }

    #[test]
    fn migration_costs_never_alter_unit_incompatible_policies() {
        // The latency-aware policy costs pairs in milliseconds; a gram-
        // denominated migration cost must not leak into its decisions, but
        // its moves are still accounted.
        let p = green_and_dirty_problem(30.0).with_state(PlacementState::new(
            vec![Some(1)],
            vec![MigrationCost::new(1e9, 0.0)],
        ));
        let d = IncrementalPlacer::new(PlacementPolicy::LatencyAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0)], "latency policy stays local");
        assert_eq!(d.moves, 1);
        assert!((d.migration_carbon_g - 1e9).abs() < 1e-3);
    }

    #[test]
    fn objective_of_includes_migration_for_carbon_policies() {
        let p = green_and_dirty_problem(30.0);
        let migration = MigrationCost::new(7.0, 3.0);
        let stateful = p
            .clone()
            .with_state(PlacementState::new(vec![Some(0)], vec![migration]));
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let stay = placer.objective_of(&stateful, &[Some(0)]).unwrap();
        let move_away = placer.objective_of(&stateful, &[Some(1)]).unwrap();
        assert!((stay - p.operational_carbon_g(0, 0).unwrap()).abs() < 1e-9);
        assert!(
            (move_away - (p.operational_carbon_g(0, 1).unwrap() + migration.total_g())).abs()
                < 1e-9
        );
        // The MILP form agrees with objective_of on the migration-aware
        // objective, so the differential tests keep one common yardstick.
        let placement_model = placer.build_model(&stateful);
        let solution = placer.milp_solver.solve(&placement_model.model);
        assert!(solution.has_solution());
        let assignment = placement_model.decode(&solution.values);
        let objective = placer.objective_of(&stateful, &assignment).unwrap();
        assert!((objective - solution.objective).abs() < 1e-6);
    }

    #[test]
    fn unused_capacity_override_respected() {
        // A server with zero available compute cannot take the app.
        let mut p = green_and_dirty_problem(30.0);
        p.servers[1].available = ResourceDemand::new(0.0, 16_000.0, 1000.0);
        let d = IncrementalPlacer::new(PlacementPolicy::CarbonAware)
            .place(&p)
            .unwrap();
        assert_eq!(d.assignment, vec![Some(0)]);
    }
}
