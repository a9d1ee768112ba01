//! The assignment heuristic for the incremental placement problem.
//!
//! The paper's placement problem (Eq. 7) is a generalized assignment problem
//! with fixed server-activation charges: each application must be assigned
//! to exactly one feasible server, the three server capacities of Eq. 1
//! (compute, memory, bandwidth) must be respected, and opening a
//! previously-off server adds its activation carbon.  For testbed-sized
//! instances the generic branch-and-bound solver is exact; at CDN scale
//! (hundreds of servers, dozens of applications per batch) this module
//! provides a regret-based greedy construction followed by local search,
//! which the tests check against exhaustive enumeration on small instances.
//!
//! An instance lists only the feasible pairs: each application has a row of
//! [`Candidate`] servers, ascending by server.  A mesoscale latency limit
//! admits servers a few hundred kilometres away, so a row holds a fraction
//! of the fleet, and every step of the heuristic — the marginal-cost cache,
//! its refresh after a placement, the top-2 and cheapest-server scans — costs
//! in candidates rather than in applications × servers.

/// Maximum number of local-search improvement passes.
const LOCAL_SEARCH_PASSES: usize = 8;

/// Batches larger than this many applications skip the regret ordering,
/// which may rescan the candidate rows of every remaining application per
/// placement (O(n·c) for `n` applications with `c` candidates in total),
/// and fall back to a simple cheapest-feasible greedy pass (one scan of
/// each row), keeping CDN-scale batches (hundreds of applications over
/// hundreds of servers) fast.
const REGRET_LIMIT: usize = 200;

/// One feasible `(application, server)` pair of an [`AssignmentProblem`].
/// Every resource vector is `[compute, memory, bandwidth]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The server index.
    pub server: usize,
    /// Cost of running the application on the server.
    pub cost: f64,
    /// Resource demand of the application on the server.
    pub demand: [f64; 3],
}

/// One instance of the placement problem in solver-neutral form.  Every
/// resource vector is `[compute, memory, bandwidth]`.
#[derive(Debug, Clone)]
pub struct AssignmentProblem {
    /// `candidates[i]`: the servers application `i` may run on, strictly
    /// ascending by server.  A server missing from the row is an infeasible
    /// pair (latency violation or incompatible hardware).
    pub candidates: Vec<Vec<Candidate>>,
    /// `capacity[j]`: available resources of server `j`.
    pub capacity: Vec<[f64; 3]>,
    /// `activation_cost[j]`: extra cost incurred the first time an
    /// application is placed on server `j` while it is closed.
    pub activation_cost: Vec<f64>,
    /// `open[j]`: whether server `j` is already powered on.
    pub open: Vec<bool>,
}

impl AssignmentProblem {
    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.candidates.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.capacity.len()
    }

    /// Validates internal dimensions and row order; returns an error string
    /// when shapes are inconsistent, a row is not strictly ascending by
    /// server, or a row names a server out of range.
    pub fn validate(&self) -> Result<(), String> {
        let servers = self.num_servers();
        if self.activation_cost.len() != servers || self.open.len() != servers {
            return Err("activation/open length mismatch".into());
        }
        for (i, row) in self.candidates.iter().enumerate() {
            if row.windows(2).any(|w| w[0].server >= w[1].server) {
                return Err(format!("candidate row {i} is not strictly ascending"));
            }
            if row.last().is_some_and(|c| c.server >= servers) {
                return Err(format!("candidate row {i} names a server out of range"));
            }
        }
        Ok(())
    }

    /// The candidate pairing application `app` with `server`, or `None` when
    /// the pair is infeasible.
    pub fn candidate(&self, app: usize, server: usize) -> Option<&Candidate> {
        let row = self.candidates.get(app)?;
        let k = row.binary_search_by_key(&server, |c| c.server).ok()?;
        Some(&row[k])
    }

    /// Whether `demand` fits on `server` on top of the per-server usage
    /// `used`, in every resource.
    pub fn fits(&self, server: usize, demand: &[f64; 3], used: &[[f64; 3]]) -> bool {
        demand
            .iter()
            .zip(used[server].iter().zip(self.capacity[server].iter()))
            .all(|(d, (u, c))| u + d <= c + 1e-9)
    }

    /// Total cost of an assignment vector (operational + activation),
    /// or `None` if the assignment is infeasible.
    pub fn evaluate(&self, assignment: &[Option<usize>]) -> Option<f64> {
        if assignment.len() != self.num_apps() {
            return None;
        }
        let mut used = vec![[0.0; 3]; self.num_servers()];
        let mut opened = vec![false; self.num_servers()];
        let mut total = 0.0;
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = a else { return None };
            let candidate = self.candidate(i, *j)?;
            if !self.fits(*j, &candidate.demand, &used) {
                return None;
            }
            for (u, d) in used[*j].iter_mut().zip(&candidate.demand) {
                *u += d;
            }
            total += candidate.cost;
            if !self.open[*j] && !opened[*j] {
                opened[*j] = true;
                total += self.activation_cost[*j];
            }
        }
        Some(total)
    }

    /// Solves the instance with the regret-greedy construction (or, above
    /// `REGRET_LIMIT` applications, the cheapest-feasible greedy pass)
    /// followed by local search.
    pub fn solve(&self) -> AssignmentSolution {
        self.validate().expect("malformed assignment problem");
        let mut state = State::new(self);
        if self.num_apps() > REGRET_LIMIT {
            state.greedy_construct_simple();
        } else {
            state.greedy_construct();
        }
        state.local_search();
        state.finish()
    }
}

/// The result of an assignment solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentSolution {
    /// Chosen server per application (`None` when the heuristic could not
    /// place the application feasibly).
    pub assignment: Vec<Option<usize>>,
    /// Total cost of the placed applications (operational + activation).
    pub cost: f64,
    /// Applications left unassigned.
    pub unassigned: Vec<usize>,
    /// Servers newly opened by this solution.
    pub newly_opened: Vec<usize>,
}

impl AssignmentSolution {
    /// Whether every application was placed.
    pub fn is_complete(&self) -> bool {
        self.unassigned.is_empty()
    }
}

/// Cached best/second-best marginal costs of one application, kept
/// consistent with [`State::marginal`] (see there for the exactness
/// argument).  `second_c` is `f64::INFINITY` when only one candidate fits,
/// matching the cold scan's "no second candidate" regret.
#[derive(Debug, Clone, Copy)]
enum Top2 {
    /// The cached entry may be stale; the next lookup rescans the row.
    Dirty,
    /// No candidate of this application fits anymore.
    Infeasible,
    /// `(best_slot, best_c, second_c)` exactly as a fresh scan of the row
    /// would compute them.
    Cached(usize, f64, f64),
}

/// The heuristic's working state.  Applications refer to their servers by
/// *slot*, the position of the server in the application's candidate row.
struct State<'p> {
    problem: &'p AssignmentProblem,
    /// `assignment[i]`: the slot of application `i`'s current server.
    assignment: Vec<Option<usize>>,
    used: Vec<[f64; 3]>,
    app_count_per_server: Vec<usize>,
    /// `row_start[i]..row_start[i + 1]`: application `i`'s range of
    /// `marginal`, one entry per candidate.
    row_start: Vec<usize>,
    /// `marginal[row_start[i] + k]`: cached marginal cost of placing app `i`
    /// on its candidate `k` in the *current* state (`NAN` = does not fit).
    /// Placing or unplacing an application changes `used`/`app_count` for
    /// exactly one server, so every mutation refreshes that server's column
    /// instead of rescanning every pair.  The cached values are produced by
    /// the same `marginal_cost` arithmetic a cold scan runs, so every
    /// comparison made against them is bit-identical to an uncached solve.
    marginal: Vec<f64>,
    /// `column[column_start[j]..column_start[j + 1]]`: the `(app, slot)`
    /// candidates on server `j`, apps ascending.  An application without a
    /// candidate on `j` has no cached value that a change to `j` could move.
    column_start: Vec<usize>,
    column: Vec<(usize, usize)>,
    /// Per-app best/second cache over `marginal`, invalidated only when a
    /// column update could disturb it.
    top2: Vec<Top2>,
    /// Scratch for [`Self::total_cost`], reused across calls.
    opened_scratch: Vec<bool>,
}

impl<'p> State<'p> {
    fn new(problem: &'p AssignmentProblem) -> Self {
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        let mut row_start = Vec::with_capacity(apps + 1);
        let mut pairs = 0;
        // Counting sort of the candidates by server; visiting the rows in
        // app order keeps every column ascending by app.
        let mut column_start = vec![0; servers + 1];
        for row in &problem.candidates {
            row_start.push(pairs);
            pairs += row.len();
            for c in row {
                column_start[c.server + 1] += 1;
            }
        }
        row_start.push(pairs);
        for j in 0..servers {
            column_start[j + 1] += column_start[j];
        }
        let mut next = column_start.clone();
        let mut column = vec![(0, 0); pairs];
        for (i, row) in problem.candidates.iter().enumerate() {
            for (k, c) in row.iter().enumerate() {
                column[next[c.server]] = (i, k);
                next[c.server] += 1;
            }
        }
        let mut state = Self {
            problem,
            assignment: vec![None; apps],
            used: vec![[0.0; 3]; servers],
            app_count_per_server: vec![0; servers],
            marginal: Vec::with_capacity(pairs),
            row_start,
            column_start,
            column,
            top2: vec![Top2::Dirty; apps],
            opened_scratch: vec![false; servers],
        };
        for (i, row) in problem.candidates.iter().enumerate() {
            for k in 0..row.len() {
                let c = state.marginal_cost(i, k);
                state.marginal.push(c);
            }
        }
        state
    }

    fn server_is_open(&self, j: usize) -> bool {
        self.problem.open[j] || self.app_count_per_server[j] > 0
    }

    /// Marginal cost of placing app `i` on its candidate `k` given the
    /// current state, `NAN` when it does not fit.
    fn marginal_cost(&self, i: usize, k: usize) -> f64 {
        let candidate = &self.problem.candidates[i][k];
        let j = candidate.server;
        if !self.problem.fits(j, &candidate.demand, &self.used) {
            return f64::NAN;
        }
        let activation = if self.server_is_open(j) {
            0.0
        } else {
            self.problem.activation_cost[j]
        };
        candidate.cost + activation
    }

    /// Refreshes the cached marginals of the candidates on server `j` after
    /// its capacity or open state changed, invalidating any top-2 entry the
    /// change could disturb: the candidate was its app's best, or the old or
    /// new value reaches into the cached top-2 range.
    fn refresh_column(&mut self, j: usize) {
        for &(i, k) in &self.column[self.column_start[j]..self.column_start[j + 1]] {
            let pos = self.row_start[i] + k;
            let old = self.marginal[pos];
            let new = self.marginal_cost(i, k);
            if old.to_bits() == new.to_bits() {
                continue;
            }
            self.marginal[pos] = new;
            match self.top2[i] {
                Top2::Dirty => {}
                Top2::Infeasible => {
                    if !new.is_nan() {
                        self.top2[i] = Top2::Dirty;
                    }
                }
                Top2::Cached(best_k, _, second_c) => {
                    // NaN comparisons are false, so a value that does not fit
                    // never dirties through the value checks alone.
                    if k == best_k || old <= second_c || new <= second_c {
                        self.top2[i] = Top2::Dirty;
                    }
                }
            }
        }
    }

    /// The cached marginals of app `i`'s candidates, in row order.
    fn marginal_row(&self, i: usize) -> &[f64] {
        &self.marginal[self.row_start[i]..self.row_start[i + 1]]
    }

    /// The best and second-best marginal costs of app `i`, exactly as the
    /// cold per-round scan computes them: `best` keeps the first candidate
    /// attaining the strict running minimum, `second` is the minimum over
    /// the remaining values.  Returns `None` when no candidate fits.
    fn top2(&mut self, i: usize) -> Option<(usize, f64, f64)> {
        if let Top2::Dirty = self.top2[i] {
            self.top2[i] = self.rescan_top2(i);
        }
        match self.top2[i] {
            Top2::Cached(best_k, best_c, second_c) => Some((best_k, best_c, second_c)),
            Top2::Infeasible => None,
            Top2::Dirty => unreachable!("entry was just rescanned"),
        }
    }

    fn rescan_top2(&self, i: usize) -> Top2 {
        let mut best: Option<(usize, f64)> = None;
        let mut second: Option<f64> = None;
        for (k, &c) in self.marginal_row(i).iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            match best {
                Some((_, bc)) if c >= bc => {
                    if second.is_none_or(|s| c < s) {
                        second = Some(c);
                    }
                }
                _ => {
                    if let Some((_, bc)) = best {
                        second = Some(bc);
                    }
                    best = Some((k, c));
                }
            }
        }
        match best {
            Some((bk, bc)) => Top2::Cached(bk, bc, second.unwrap_or(f64::INFINITY)),
            None => Top2::Infeasible,
        }
    }

    /// The cheapest candidate of app `i` that fits (first on ties), as
    /// `(slot, marginal cost)`, read from the cached marginals — the same
    /// result a fresh `marginal_cost` scan in ascending server order
    /// produces.
    fn best_server(&self, i: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, &c) in self.marginal_row(i).iter().enumerate() {
            if !c.is_nan() && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((k, c));
            }
        }
        best
    }

    /// Places app `i` on its candidate `k`.
    fn place(&mut self, i: usize, k: usize) {
        debug_assert!(self.assignment[i].is_none());
        let candidate = &self.problem.candidates[i][k];
        let j = candidate.server;
        for (u, d) in self.used[j].iter_mut().zip(&candidate.demand) {
            *u += d;
        }
        self.app_count_per_server[j] += 1;
        self.assignment[i] = Some(k);
        self.refresh_column(j);
    }

    fn unplace(&mut self, i: usize) {
        if let Some(k) = self.assignment[i].take() {
            let candidate = &self.problem.candidates[i][k];
            let j = candidate.server;
            for (u, d) in self.used[j].iter_mut().zip(&candidate.demand) {
                *u -= d;
            }
            self.app_count_per_server[j] -= 1;
            self.refresh_column(j);
        }
    }

    fn total_cost(&mut self) -> f64 {
        let mut total = 0.0;
        self.opened_scratch.fill(false);
        for (row, a) in self.problem.candidates.iter().zip(&self.assignment) {
            if let Some(k) = a {
                let candidate = &row[*k];
                let j = candidate.server;
                total += candidate.cost;
                if !self.problem.open[j] && !self.opened_scratch[j] {
                    self.opened_scratch[j] = true;
                    total += self.problem.activation_cost[j];
                }
            }
        }
        total
    }

    /// Cheapest-feasible greedy in application order; one scan of each
    /// candidate row.
    fn greedy_construct_simple(&mut self) {
        for i in 0..self.problem.num_apps() {
            if let Some((k, _)) = self.best_server(i) {
                self.place(i, k);
            }
        }
    }

    fn greedy_construct(&mut self) {
        let apps = self.problem.num_apps();
        let mut remaining: Vec<usize> = (0..apps).collect();
        while !remaining.is_empty() {
            // For each remaining app read the cached best and second-best
            // marginal cost; pick the app with the largest regret
            // (difference).  The cache holds exactly the values a fresh
            // scan would compute, so the chosen (app, server) matches the
            // uncached construction bit for bit.
            let mut chosen: Option<(usize, usize, f64)> = None; // (pos, slot, regret)
            for (pos, &i) in remaining.iter().enumerate() {
                let Some((bk, bc, second)) = self.top2(i) else {
                    continue;
                };
                let regret = if second.is_finite() {
                    second - bc
                } else {
                    f64::INFINITY
                };
                let better = match &chosen {
                    None => true,
                    Some((_, _, r)) => regret > *r,
                };
                if better {
                    chosen = Some((pos, bk, regret));
                }
            }
            match chosen {
                Some((pos, slot, _)) => {
                    let app = remaining.remove(pos);
                    self.place(app, slot);
                }
                None => break, // nothing placeable anymore
            }
        }
    }

    fn local_search(&mut self) {
        for _ in 0..LOCAL_SEARCH_PASSES {
            let mut improved = false;
            for i in 0..self.problem.num_apps() {
                let Some(current) = self.assignment[i] else {
                    continue;
                };
                let before = self.total_cost();
                self.unplace(i);
                // The cheapest feasible candidate for i in the reduced state.
                let best = self.best_server(i);
                match best {
                    Some((k, _)) => {
                        self.place(i, k);
                        let after = self.total_cost();
                        if after < before - 1e-9 {
                            improved = true;
                        } else if k != current {
                            // Revert if no strict improvement.
                            self.unplace(i);
                            self.place(i, current);
                        }
                    }
                    None => {
                        // Should not happen since `current` was feasible; restore.
                        self.place(i, current);
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    fn finish(mut self) -> AssignmentSolution {
        let problem = self.problem;
        let cost = self.total_cost();
        let assignment: Vec<Option<usize>> = problem
            .candidates
            .iter()
            .zip(&self.assignment)
            .map(|(row, a)| a.map(|k| row[k].server))
            .collect();
        let unassigned = assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut newly_opened: Vec<usize> = assignment
            .iter()
            .flatten()
            .copied()
            .filter(|j| !problem.open[*j])
            .collect();
        newly_opened.sort_unstable();
        newly_opened.dedup();
        AssignmentSolution {
            assignment,
            cost,
            unassigned,
            newly_opened,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A resource vector that uses compute only.
    fn compute(x: f64) -> [f64; 3] {
        [x, 0.0, 0.0]
    }

    /// An instance from a dense cost matrix (`None` marks an infeasible
    /// pair) and dense per-pair demands.
    fn dense(
        cost: Vec<Vec<Option<f64>>>,
        demand: Vec<Vec<[f64; 3]>>,
        capacity: Vec<[f64; 3]>,
        activation_cost: Vec<f64>,
        open: Vec<bool>,
    ) -> AssignmentProblem {
        let candidates = cost
            .iter()
            .zip(&demand)
            .map(|(costs, demands)| {
                costs
                    .iter()
                    .zip(demands)
                    .enumerate()
                    .filter_map(|(server, (c, d))| {
                        c.map(|cost| Candidate {
                            server,
                            cost,
                            demand: *d,
                        })
                    })
                    .collect()
            })
            .collect();
        AssignmentProblem {
            candidates,
            capacity,
            activation_cost,
            open,
        }
    }

    /// The cost of the cheapest complete feasible assignment, found by
    /// enumerating all `servers^apps` assignments; `None` when no complete
    /// assignment is feasible.
    fn enumerate_optimum(problem: &AssignmentProblem) -> Option<f64> {
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        let mut best: Option<f64> = None;
        for code in 0..servers.pow(apps as u32) {
            let mut c = code;
            let mut assignment = Vec::with_capacity(apps);
            for _ in 0..apps {
                assignment.push(Some(c % servers));
                c /= servers;
            }
            if let Some(cost) = problem.evaluate(&assignment) {
                if best.is_none_or(|bc| cost < bc) {
                    best = Some(cost);
                }
            }
        }
        best
    }

    fn simple_problem() -> AssignmentProblem {
        // 2 apps, 2 servers, compute only.
        dense(
            vec![vec![Some(10.0), Some(1.0)], vec![Some(2.0), Some(8.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0); 2],
            vec![0.0, 0.0],
            vec![true, true],
        )
    }

    #[test]
    fn picks_cheapest_assignment() {
        let sol = simple_problem().solve();
        assert!(sol.is_complete());
        assert_eq!(sol.assignment, vec![Some(1), Some(0)]);
        assert!((sol.cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn respects_capacity() {
        // Both apps prefer server 1 but it only fits one.
        let p = dense(
            vec![vec![Some(10.0), Some(1.0)], vec![Some(10.0), Some(2.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0), compute(1.0)],
            vec![0.0, 0.0],
            vec![true, true],
        );
        let sol = p.solve();
        assert!(sol.is_complete());
        let cost = p.evaluate(&sol.assignment).unwrap();
        // Optimum: app1 -> server1 (2), app0 -> server0 (10) = 12, or
        // app0 -> server1 (1) + app1 -> server0 (10) = 11.
        assert!((cost - 11.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn activation_cost_consolidates_servers() {
        // Two apps; server 0 slightly more expensive per app but open,
        // server 1 cheaper per app but has a huge activation cost.
        let p = dense(
            vec![vec![Some(5.0), Some(4.0)], vec![Some(5.0), Some(4.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0); 2],
            vec![0.0, 100.0],
            vec![true, false],
        );
        let sol = p.solve();
        assert_eq!(sol.assignment, vec![Some(0), Some(0)]);
        assert!(sol.newly_opened.is_empty());
        assert!((sol.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn activation_cost_paid_once() {
        // Cheap closed server worth opening for both apps.
        let p = dense(
            vec![vec![Some(50.0), Some(1.0)], vec![Some(50.0), Some(1.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0); 2],
            vec![0.0, 10.0],
            vec![true, false],
        );
        let sol = p.solve();
        assert_eq!(sol.assignment, vec![Some(1), Some(1)]);
        assert_eq!(sol.newly_opened, vec![1]);
        assert!((sol.cost - 12.0).abs() < 1e-9, "cost {}", sol.cost);
    }

    #[test]
    fn infeasible_pairs_are_avoided() {
        let p = dense(
            vec![vec![None, Some(3.0)], vec![Some(2.0), None]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(1.0); 2],
            vec![0.0, 0.0],
            vec![true, true],
        );
        let sol = p.solve();
        assert_eq!(sol.assignment, vec![Some(1), Some(0)]);
        assert!(sol.is_complete());
    }

    #[test]
    fn overloaded_instance_reports_unassigned() {
        // Two apps, one server with capacity for one.
        let p = dense(
            vec![vec![Some(1.0)], vec![Some(1.0)]],
            vec![vec![compute(1.0)]; 2],
            vec![compute(1.0)],
            vec![0.0],
            vec![true],
        );
        let sol = p.solve();
        assert_eq!(sol.unassigned.len(), 1);
        assert!(!sol.is_complete());
    }

    #[test]
    fn evaluate_rejects_capacity_violation_and_infeasible_pairs() {
        let p = simple_problem();
        assert!(p.evaluate(&[Some(0), Some(0)]).is_some());
        let mut tight = p.clone();
        tight.capacity = vec![compute(1.0), compute(2.0)];
        assert!(tight.evaluate(&[Some(0), Some(0)]).is_none());
        let mut infeasible = p.clone();
        infeasible.candidates[0].remove(0);
        assert!(infeasible.evaluate(&[Some(0), Some(1)]).is_none());
        assert!(p.evaluate(&[Some(0)]).is_none());
        assert!(p.evaluate(&[None, Some(1)]).is_none());
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = dense(vec![], vec![], vec![], vec![], vec![]);
        let sol = p.solve();
        assert_eq!(sol.cost, 0.0);
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn validate_catches_shape_errors() {
        let mut p = simple_problem();
        p.activation_cost = vec![0.0];
        assert!(p.validate().is_err());
        assert!(simple_problem().validate().is_ok());
    }

    #[test]
    fn validate_rejects_unsorted_duplicate_and_out_of_range_rows() {
        let mut unsorted = simple_problem();
        unsorted.candidates[0].swap(0, 1);
        assert!(unsorted.validate().is_err());
        let mut duplicate = simple_problem();
        duplicate.candidates[1][1].server = 0;
        assert!(duplicate.validate().is_err());
        let mut out_of_range = simple_problem();
        out_of_range.candidates[0][1].server = 2;
        assert!(out_of_range.validate().is_err());
    }

    #[test]
    fn candidate_finds_listed_pairs_only() {
        let mut p = simple_problem();
        p.candidates[0].remove(0);
        assert_eq!(p.candidate(0, 1).map(|c| c.cost), Some(1.0));
        assert!(p.candidate(0, 0).is_none());
        assert!(p.candidate(0, 2).is_none());
        assert!(p.candidate(2, 0).is_none());
    }

    #[test]
    fn heuristic_matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(3);
        for _case in 0..20 {
            let apps = rng.gen_range(2..5);
            let servers = rng.gen_range(2..4);
            let p = dense(
                (0..apps)
                    .map(|_| {
                        (0..servers)
                            .map(|_| {
                                if rng.gen_bool(0.9) {
                                    Some(rng.gen_range(1.0..50.0))
                                } else {
                                    None
                                }
                            })
                            .collect()
                    })
                    .collect(),
                (0..apps)
                    .map(|_| {
                        (0..servers)
                            .map(|_| compute(rng.gen_range(0.5..2.0)))
                            .collect()
                    })
                    .collect(),
                (0..servers)
                    .map(|_| compute(rng.gen_range(2.0..5.0)))
                    .collect(),
                (0..servers).map(|_| rng.gen_range(0.0..20.0)).collect(),
                (0..servers).map(|_| rng.gen_bool(0.5)).collect(),
            );
            let heuristic = p.solve();
            let Some(exact_cost) = enumerate_optimum(&p) else {
                continue;
            };
            if heuristic.is_complete() {
                // The heuristic may be suboptimal but never better than exact,
                // and should be within 30% on these tiny instances.
                assert!(heuristic.cost >= exact_cost - 1e-6);
                assert!(
                    heuristic.cost <= exact_cost * 1.3 + 1e-6,
                    "heuristic {} vs exact {}",
                    heuristic.cost,
                    exact_cost
                );
            }
        }
    }

    #[test]
    fn larger_instance_is_solved_quickly_and_feasibly() {
        let mut rng = StdRng::seed_from_u64(99);
        let apps = 50;
        let servers = 40;
        let p = dense(
            (0..apps)
                .map(|_| {
                    (0..servers)
                        .map(|_| Some(rng.gen_range(1.0..100.0)))
                        .collect()
                })
                .collect(),
            (0..apps)
                .map(|_| {
                    (0..servers)
                        .map(|_| [rng.gen_range(0.1..0.4), rng.gen_range(100.0..500.0), 0.0])
                        .collect()
                })
                .collect(),
            vec![[1.0, 16_000.0, 0.0]; servers],
            (0..servers).map(|_| rng.gen_range(0.0..50.0)).collect(),
            (0..servers).map(|i| i % 2 == 0).collect(),
        );
        let sol = p.solve();
        assert!(sol.is_complete());
        assert!(p.evaluate(&sol.assignment).is_some());
    }

    #[test]
    fn batches_above_the_regret_limit_spill_over_feasibly() {
        // 240 apps take the cheapest-feasible construction.  Every app
        // prefers low-index servers, but a server holds at most 10 apps
        // (compute 0.15–0.25 of 1.5), so capacity spreads the batch over at
        // least 24 of the 60 servers.
        let mut rng = StdRng::seed_from_u64(17);
        let (apps, servers) = (240, 60);
        assert!(apps > REGRET_LIMIT);
        let p = dense(
            (0..apps)
                .map(|_| {
                    (0..servers)
                        .map(|j| Some(1.0 + j as f64 + rng.gen_range(0.0..0.5)))
                        .collect()
                })
                .collect(),
            (0..apps)
                .map(|_| {
                    let d = [rng.gen_range(0.15..0.25), rng.gen_range(100.0..500.0), 5.0];
                    vec![d; servers]
                })
                .collect(),
            vec![[1.5, 16_000.0, 1_000.0]; servers],
            (0..servers).map(|_| rng.gen_range(0.0..20.0)).collect(),
            (0..servers).map(|j| j % 3 != 0).collect(),
        );
        let sol = p.solve();
        assert!(sol.is_complete());
        let evaluated = p.evaluate(&sol.assignment);
        assert!(evaluated.is_some());
        assert_eq!(Some(sol.cost), evaluated);
        let mut used: Vec<usize> = sol.assignment.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() >= 24, "only {} servers used", used.len());
    }
}
