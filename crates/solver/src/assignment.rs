//! The assignment heuristic for the incremental placement problem.
//!
//! The paper's placement problem (Eq. 7) is a generalized assignment problem
//! with fixed server-activation charges: each application must be assigned
//! to exactly one feasible server, the three server capacities of Eq. 1
//! (compute, memory, bandwidth) must be respected, and opening a
//! previously-off server adds its activation carbon.  For testbed-sized
//! instances the generic branch-and-bound solver is exact; at CDN scale
//! (hundreds of servers, dozens of applications per batch) this module
//! provides a regret-based greedy construction, which the tests check
//! against exhaustive enumeration on small instances.
//!
//! An instance lists only the feasible pairs: [`CandidatePairs`] holds each
//! application's row of candidate servers, ascending by server, in one flat
//! layout, together with each pair's demand, the per-server column index
//! and each server's component-wise largest demand.  A mesoscale latency
//! limit admits servers a few hundred kilometres away, so a row holds a
//! fraction of the fleet, and every step of the heuristic costs in
//! candidates rather than in applications × servers.
//!
//! The heuristic caches one marginal cost per pair.  A placement changes
//! one server's usage, so it refreshes that server's column only, and not
//! even that while the server's largest demand still fits and its
//! activation term is unchanged: every marginal of the column then keeps
//! its bits.  The regret construction also keeps a short list per
//! unplaced row: the row's cheapest fitting candidates in (marginal, slot)
//! order, with every fitting candidate it leaves out sorting after its
//! last entry.  A refresh edits the lists of the rows it changes, and a
//! row is read again only when its list runs short of two entries while
//! the row holds more.  Each round takes the largest regret from a
//! tournament tree over the applications, the lowest index among ties.
//!
//! The pairs do not depend on costs, so a deployment decided again and
//! again builds them once and hands them to every instance by reference;
//! an instance adds only its cost vector, aligned with the pairs, and the
//! per-server capacity, activation and power state.

/// Batches larger than this many applications skip the regret ordering
/// and take a simple cheapest-feasible greedy pass in application order
/// (one read of each row).  The limit once bounded a selection that read
/// one regret per application per round; the tournament now picks a round
/// in O(log n) for `n` applications.  What the limit still guards is the
/// decisions of larger batches, such as the full European catalog's 209
/// applications: they stay on the weaker pass, and raising the limit
/// would change them.
const REGRET_LIMIT: usize = 200;

/// The feasible `(application, server)` pairs of an assignment instance,
/// independent of their costs.  Pairs are numbered row by row: application
/// `i`'s pairs are the positions [`Self::row`]`(i)`, servers strictly
/// ascending, and a server missing from a row is an infeasible pair
/// (latency violation or incompatible hardware).  Every resource vector is
/// `[compute, memory, bandwidth]`.
#[derive(Debug, Clone)]
pub struct CandidatePairs {
    /// `row_start[i]..row_start[i + 1]`: the positions of application `i`.
    row_start: Vec<usize>,
    /// The server of each pair.
    server: Vec<usize>,
    /// The resource demand of each pair.
    demand: Vec<[f64; 3]>,
    /// `column[column_start[j]..column_start[j + 1]]`: the `(app, slot)`
    /// pairs on server `j`, apps ascending, where `slot` is the server's
    /// place in the application's row.
    column_start: Vec<usize>,
    column: Vec<(usize, usize)>,
    /// `largest_demand[j]`: the component-wise largest demand of the pairs
    /// on server `j` (`NAN` in a component where one of them is `NAN`,
    /// `-inf` for a server with no pair).
    largest_demand: Vec<[f64; 3]>,
}

impl CandidatePairs {
    /// Builds the pairs of `servers` servers from rows laid out flat:
    /// `row_start` holds one offset per application plus the end, and
    /// `server` and `demand` one entry per pair.  Returns an error when the
    /// offsets do not cover the pair vectors in order, a row is not
    /// strictly ascending by server, or a row names a server out of range.
    pub fn new(
        servers: usize,
        row_start: Vec<usize>,
        server: Vec<usize>,
        demand: Vec<[f64; 3]>,
    ) -> Result<Self, String> {
        if row_start.first() != Some(&0)
            || row_start.last() != Some(&server.len())
            || row_start.windows(2).any(|w| w[0] > w[1])
            || demand.len() != server.len()
        {
            return Err("row offsets do not cover the pairs".into());
        }
        for (i, w) in row_start.windows(2).enumerate() {
            let row = &server[w[0]..w[1]];
            if row.windows(2).any(|s| s[0] >= s[1]) {
                return Err(format!("candidate row {i} is not strictly ascending"));
            }
            if row.last().is_some_and(|&j| j >= servers) {
                return Err(format!("candidate row {i} names a server out of range"));
            }
        }
        // Counting sort of the pairs by server; visiting the rows in app
        // order keeps every column ascending by app.
        let mut column_start = vec![0; servers + 1];
        for &j in &server {
            column_start[j + 1] += 1;
        }
        for j in 0..servers {
            column_start[j + 1] += column_start[j];
        }
        let mut next = column_start.clone();
        let mut column = vec![(0, 0); server.len()];
        let mut largest_demand = vec![[f64::NEG_INFINITY; 3]; servers];
        for (i, w) in row_start.windows(2).enumerate() {
            for (k, (&j, d)) in server[w[0]..w[1]]
                .iter()
                .zip(&demand[w[0]..w[1]])
                .enumerate()
            {
                column[next[j]] = (i, k);
                next[j] += 1;
                for (l, &d) in largest_demand[j].iter_mut().zip(d) {
                    // Once `NAN`, `d > *l` is false: the component stays `NAN`.
                    if d > *l || d.is_nan() {
                        *l = d;
                    }
                }
            }
        }
        Ok(Self {
            row_start,
            server,
            demand,
            column_start,
            column,
            largest_demand,
        })
    }

    /// Number of applications (rows).
    pub fn num_apps(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.column_start.len() - 1
    }

    /// Number of pairs over all rows.
    pub fn len(&self) -> usize {
        self.server.len()
    }

    /// Whether no application has a pair.
    pub fn is_empty(&self) -> bool {
        self.server.is_empty()
    }

    /// The positions of application `app`'s pairs.  Panics if `app` is out
    /// of range.
    pub fn row(&self, app: usize) -> std::ops::Range<usize> {
        self.row_start[app]..self.row_start[app + 1]
    }

    /// The server of every pair, by position.
    pub fn servers(&self) -> &[usize] {
        &self.server
    }

    /// The resource demand of every pair, by position.
    pub fn demands(&self) -> &[[f64; 3]] {
        &self.demand
    }

    /// The `(app, slot)` pairs on server `j`, apps ascending; the pair's
    /// position is `row(app).start + slot`.
    pub fn column(&self, j: usize) -> &[(usize, usize)] {
        &self.column[self.column_start[j]..self.column_start[j + 1]]
    }

    /// The position of the pair `(app, server)`, or `None` when the pair is
    /// infeasible or `app` is out of range.
    pub fn find(&self, app: usize, server: usize) -> Option<usize> {
        if app >= self.num_apps() {
            return None;
        }
        let row = self.row(app);
        let k = self.server[row.clone()].binary_search(&server).ok()?;
        Some(row.start + k)
    }

    /// Heap bytes the pairs hold.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.row_start.len() + self.server.len() + self.column_start.len()) * size_of::<usize>()
            + (self.demand.len() + self.largest_demand.len()) * size_of::<[f64; 3]>()
            + self.column.len() * size_of::<(usize, usize)>()
    }
}

/// One instance of the placement problem in solver-neutral form: the
/// feasible pairs, a cost per pair, and the servers' state.  Every resource
/// vector is `[compute, memory, bandwidth]`.
#[derive(Debug, Clone)]
pub struct AssignmentProblem<'a> {
    /// The feasible pairs.
    pub pairs: &'a CandidatePairs,
    /// `cost[p]`: the cost of the pair at position `p` of `pairs`.
    pub cost: &'a [f64],
    /// `capacity[j]`: available resources of server `j`.
    pub capacity: &'a [[f64; 3]],
    /// `activation_cost[j]`: extra cost incurred the first time an
    /// application is placed on server `j` while it is closed.
    pub activation_cost: &'a [f64],
    /// `open[j]`: whether server `j` is already powered on.
    pub open: &'a [bool],
}

impl AssignmentProblem<'_> {
    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.pairs.num_apps()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.capacity.len()
    }

    /// Validates internal dimensions; returns an error string when the
    /// pairs, costs and per-server vectors disagree in length.
    pub fn validate(&self) -> Result<(), String> {
        let servers = self.num_servers();
        if self.pairs.num_servers() != servers
            || self.activation_cost.len() != servers
            || self.open.len() != servers
        {
            return Err("pairs/activation/open length mismatch".into());
        }
        if self.cost.len() != self.pairs.len() {
            return Err("cost vector does not align with the pairs".into());
        }
        Ok(())
    }

    /// Whether `demand` fits on `server` on top of the per-server usage
    /// `used`, in every resource.
    pub fn fits(&self, server: usize, demand: &[f64; 3], used: &[[f64; 3]]) -> bool {
        fits_within(demand, &used[server], &self.capacity[server])
    }

    /// The activation term of server `j` while `apps_on` applications run
    /// there: `0.0` once it is open, its activation cost while it is closed.
    fn activation_term(&self, j: usize, apps_on: usize) -> f64 {
        if self.open[j] || apps_on > 0 {
            0.0
        } else {
            self.activation_cost[j]
        }
    }

    /// Total cost of an assignment vector (operational + activation),
    /// or `None` if the assignment is infeasible.
    #[cfg(test)]
    fn evaluate(&self, assignment: &[Option<usize>]) -> Option<f64> {
        if assignment.len() != self.num_apps() {
            return None;
        }
        let mut used = vec![[0.0; 3]; self.num_servers()];
        let mut opened = vec![false; self.num_servers()];
        let mut total = 0.0;
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = a else { return None };
            let p = self.pairs.find(i, *j)?;
            let demand = &self.pairs.demand[p];
            if !self.fits(*j, demand, &used) {
                return None;
            }
            for (u, d) in used[*j].iter_mut().zip(demand) {
                *u += d;
            }
            total += self.cost[p];
            if !self.open[*j] && !opened[*j] {
                opened[*j] = true;
                total += self.activation_cost[*j];
            }
        }
        Some(total)
    }

    /// Solves the instance with the regret-greedy construction (or, above
    /// `REGRET_LIMIT` applications, the cheapest-feasible greedy pass) and
    /// returns the chosen server per application, `None` for an application
    /// none of whose candidates still fits.  Returns [`Self::validate`]'s
    /// error for a malformed instance.  Demands are non-negative (the
    /// placer rejects others), so a server's usage only grows as it takes
    /// applications.
    ///
    /// Construction leaves each application on its then-cheapest fitting
    /// candidate, and later placements only use up capacity, so with every
    /// server open no single move is cheaper; only opening a closed server,
    /// which drops its activation cost, can make one so.
    pub fn solve(&self) -> Result<Vec<Option<usize>>, String> {
        self.validate()?;
        let regret = self.num_apps() <= REGRET_LIMIT;
        let mut state = State::new(self, regret);
        if regret {
            while state.place_next() {}
        } else {
            state.greedy_construct_simple();
        }
        Ok(state.finish())
    }
}

/// Whether `demand` fits on top of `used` within `capacity`, in every
/// resource.
fn fits_within(demand: &[f64; 3], used: &[f64; 3], capacity: &[f64; 3]) -> bool {
    demand
        .iter()
        .zip(used.iter().zip(capacity))
        .all(|(d, (u, c))| u + d <= c + 1e-9)
}

/// Whether every demand of a column whose component-wise largest demand is
/// `largest` fits on top of `used` within `capacity`.  Rounded addition is
/// monotone, so with `used` finite `used + d <= used + largest` for every
/// demand `d` of the column, and `largest` fitting means each `d` fits.
fn column_fits(largest: &[f64; 3], used: &[f64; 3], capacity: &[f64; 3]) -> bool {
    used.iter().all(|u| u.is_finite()) && fits_within(largest, used, capacity)
}

/// The marginal cost of a pair with `cost` and `demand` on a server with
/// usage `used` and capacity `capacity`: `NAN` when the demand does not
/// fit, otherwise `cost` plus `activation` (`0.0` for an open server, its
/// activation cost otherwise).  Every cached and every freshly computed
/// marginal is this value, so comparisons between them are bit-exact.
fn marginal(
    cost: f64,
    demand: &[f64; 3],
    used: &[f64; 3],
    capacity: &[f64; 3],
    activation: f64,
) -> f64 {
    if fits_within(demand, used, capacity) {
        cost + activation
    } else {
        f64::NAN
    }
}

/// The first candidate attaining the strict minimum of `marginals`, skipping
/// `NAN` (does not fit), as `(slot, marginal)`.
fn cheapest(marginals: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (k, c) in marginals.enumerate() {
        if !c.is_nan() && best.is_none_or(|(_, bc)| c < bc) {
            best = Some((k, c));
        }
    }
    best
}

/// Entries in each unplaced row's candidate list.  A placement ends a
/// listed candidate only when its server fills, so with a few entries a
/// row is read again when most of its cheapest servers are full; a longer
/// list costs more to shift on each edit.  On the default sweep grid four
/// entries read 5–9 % below 8 or 16; on serving the three read level.
const LIST_LEN: usize = 8;

/// Whether `(marginal, slot)` key `a` sorts before `b`.  Marginals here
/// always fit, so neither is `NAN`.
fn sorts_before(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The cheapest fitting candidates of an unplaced row: `entry[..len]`
/// holds `(marginal, slot)` keys, ascending, and the row's `unlisted`
/// other fitting candidates all sort after `entry[len - 1]`.  Between
/// edits a list holds two entries or leaves nothing out, so it knows the
/// row's best and second-best marginal.
#[derive(Debug, Clone, Copy)]
struct Candidates {
    entry: [(f64, usize); LIST_LEN],
    len: usize,
    unlisted: usize,
}

impl Candidates {
    /// The list of a row whose cached marginals are `row`.
    fn of(row: &[f64]) -> Self {
        let mut list = Self {
            entry: [(0.0, 0); LIST_LEN],
            len: 0,
            unlisted: 0,
        };
        for (k, &c) in row.iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            if list.len < LIST_LEN {
                list.len += 1;
            } else {
                // Slots ascend, so this candidate sorts after an equal
                // marginal and stays out; a cheaper one pushes the last
                // entry out.  Either way one candidate goes unlisted.
                list.unlisted += 1;
                if c >= list.entry[LIST_LEN - 1].0 {
                    continue;
                }
            }
            list.shift_in(list.len - 1, (c, k));
        }
        list
    }

    /// Writes `key` into the free position `at` or below it, moving up by
    /// one the entries before `at` that sort after `key`.
    fn shift_in(&mut self, mut at: usize, key: (f64, usize)) {
        while at > 0 && sorts_before(key, self.entry[at - 1]) {
            self.entry[at] = self.entry[at - 1];
            at -= 1;
        }
        self.entry[at] = key;
    }

    /// Edits the list after the marginal of slot `k`, a fitting candidate
    /// of the row, changed to `new` (`NAN`: it no longer fits).  The
    /// candidate leaves the list, or the unlisted count, and when it still
    /// fits comes back into the list if it sorts before the last entry,
    /// among the unlisted otherwise.  A full list that takes it pushes its
    /// last entry out.
    fn update(&mut self, k: usize, new: f64) {
        match self.entry[..self.len].iter().position(|&(_, s)| s == k) {
            Some(at) => {
                self.entry.copy_within(at + 1..self.len, at);
                self.len -= 1;
            }
            None => self.unlisted -= 1,
        }
        if new.is_nan() {
            return;
        }
        let key = (new, k);
        let last = self.entry[..self.len].last();
        if last.is_none_or(|&last| !sorts_before(key, last)) {
            self.unlisted += 1;
            return;
        }
        if self.len < LIST_LEN {
            self.len += 1;
        } else {
            self.unlisted += 1;
        }
        self.shift_in(self.len - 1, key);
    }

    /// Whether the list no longer knows its row's second-best marginal:
    /// fewer than two entries remain while the row has unlisted fitting
    /// candidates.
    fn needs_rescan(&self) -> bool {
        self.len < 2 && self.unlisted > 0
    }

    /// The slot of the row's best candidate.
    fn best(&self) -> Option<usize> {
        self.entry[..self.len].first().map(|&(_, k)| k)
    }

    /// The row's regret: `second - best`, `INFINITY` for a lone candidate
    /// or a second-best marginal that is not finite, and `-inf` for a row
    /// where nothing fits, below every regret.
    fn regret(&self) -> f64 {
        match self.entry[..self.len] {
            [] => f64::NEG_INFINITY,
            [(best, _), (second, _), ..] if second.is_finite() => second - best,
            _ => f64::INFINITY,
        }
    }
}

/// A tournament tree over one regret per application: node `v` has the
/// children `2v` and `2v + 1`, the leaves `size..2 * size` are the
/// applications in index order (padded with `-inf`), and each node holds
/// the winner of its leaves, the largest regret with the lowest index
/// among ties.  Changing one regret replays the matches on its leaf's path
/// to the root.
struct Tournament {
    /// `regret[i]`: application `i`'s regret, `-inf` past the last one.
    regret: Vec<f64>,
    /// `winner[v]`: the application that wins node `v`'s leaves.
    winner: Vec<usize>,
}

impl Tournament {
    fn new(mut regret: Vec<f64>) -> Self {
        let size = regret.len().next_power_of_two();
        regret.resize(size, f64::NEG_INFINITY);
        let mut winner: Vec<usize> = (0..size).chain(0..size).collect();
        for v in (1..size).rev() {
            winner[v] = Self::play(&regret, winner[2 * v], winner[2 * v + 1]);
        }
        Self { regret, winner }
    }

    /// The winner of `a` and the higher-indexed `b`: `b` only with a
    /// strictly larger regret.
    fn play(regret: &[f64], a: usize, b: usize) -> usize {
        if regret[b] > regret[a] {
            b
        } else {
            a
        }
    }

    /// Sets application `i`'s regret to `r`.
    fn set(&mut self, i: usize, r: f64) {
        self.regret[i] = r;
        let mut v = (self.regret.len() + i) / 2;
        while v > 0 {
            self.winner[v] = Self::play(&self.regret, self.winner[2 * v], self.winner[2 * v + 1]);
            v /= 2;
        }
    }

    /// The application with the largest regret, the lowest index among
    /// ties; `None` when every regret is `-inf`.
    fn top(&self) -> Option<usize> {
        let i = self.winner[1];
        (self.regret[i] > f64::NEG_INFINITY).then_some(i)
    }
}

/// The heuristic's working state.  Applications refer to their servers by
/// *slot*, the position of the server in the application's candidate row.
struct State<'p> {
    problem: &'p AssignmentProblem<'p>,
    /// `assignment[i]`: the slot of application `i`'s server.
    assignment: Vec<Option<usize>>,
    used: Vec<[f64; 3]>,
    app_count_per_server: Vec<usize>,
    /// `marginal[p]`: cached marginal cost of the pair at position `p` in
    /// the *current* state (`NAN` = does not fit).  Placing an application
    /// changes `used`/`app_count` for exactly one server, so every placement
    /// refreshes that server's column of the pairs' column index instead of
    /// rescanning every pair.  The cached values are produced by the same
    /// [`marginal`] arithmetic a cold scan runs, so every comparison made
    /// against them is bit-identical to an uncached solve.
    marginal: Vec<f64>,
    /// `activation[j]`: the activation term the cached marginals on server
    /// `j` carry.
    activation: Vec<f64>,
    /// `roomy[j]`: whether server `j`'s largest demand fits on top of
    /// `used[j]`, so that every cached marginal on it is `cost +
    /// activation[j]`.
    roomy: Vec<bool>,
    /// The regret construction's rows, empty on the cheapest-feasible pass:
    /// `lists[i]` is unplaced app `i`'s [`Candidates`] over its cached
    /// marginals, and `tournament` holds each list's regret, `-inf` once
    /// the app is placed.
    lists: Vec<Candidates>,
    tournament: Tournament,
}

impl<'p> State<'p> {
    /// Prices every pair against the empty state and, for the regret
    /// construction, lists each row's cheapest candidates right after
    /// pricing it.  On a server whose largest demand fits it empty every
    /// pair fits, so its pairs cost `cost + activation` without a fit test.
    fn new(problem: &'p AssignmentProblem<'p>, regret: bool) -> Self {
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        let pairs = problem.pairs;
        let empty = [0.0; 3];
        let activation: Vec<f64> = (0..servers)
            .map(|j| problem.activation_term(j, 0))
            .collect();
        let roomy: Vec<bool> = pairs
            .largest_demand
            .iter()
            .zip(problem.capacity)
            .map(|(largest, capacity)| column_fits(largest, &empty, capacity))
            .collect();
        let mut marginals = Vec::with_capacity(pairs.len());
        let mut lists = Vec::new();
        for i in 0..apps {
            let row = pairs.row(i);
            let priced = pairs.server[row.clone()]
                .iter()
                .zip(&pairs.demand[row.clone()])
                .zip(&problem.cost[row.clone()])
                .map(|((&j, demand), &cost)| {
                    if roomy[j] {
                        cost + activation[j]
                    } else {
                        marginal(cost, demand, &empty, &problem.capacity[j], activation[j])
                    }
                });
            marginals.extend(priced);
            if regret {
                lists.push(Candidates::of(&marginals[row]));
            }
        }
        let tournament = Tournament::new(lists.iter().map(Candidates::regret).collect());
        Self {
            problem,
            assignment: vec![None; apps],
            used: vec![[0.0; 3]; servers],
            app_count_per_server: vec![0; servers],
            marginal: marginals,
            activation,
            roomy,
            lists,
            tournament,
        }
    }

    /// Refreshes the cached marginals of the candidates on server `j` after
    /// a placement there, and edits the list of every unplaced app whose
    /// candidate changed, reading the row again when the list runs short.
    /// Returns at once when the server's largest demand fitted before the
    /// placement and still fits, and the activation term kept its bits:
    /// every marginal of the column is then unchanged.
    ///
    /// Within one construction a server's usage and app count only grow,
    /// so a candidate that stops fitting never fits again, and a fitting
    /// candidate's marginal changes only when its server takes its first
    /// app and drops the activation term.
    fn refresh_column(&mut self, j: usize) {
        let used = self.used[j];
        let capacity = self.problem.capacity[j];
        let activation = self
            .problem
            .activation_term(j, self.app_count_per_server[j]);
        let pairs = self.problem.pairs;
        let roomy = column_fits(&pairs.largest_demand[j], &used, &capacity);
        let was_roomy = std::mem::replace(&mut self.roomy[j], roomy);
        let old_activation = std::mem::replace(&mut self.activation[j], activation);
        if was_roomy && roomy && old_activation.to_bits() == activation.to_bits() {
            return;
        }
        let cost = self.problem.cost;
        for &(i, k) in pairs.column(j) {
            let pos = pairs.row_start[i] + k;
            let old = self.marginal[pos];
            let new = marginal(cost[pos], &pairs.demand[pos], &used, &capacity, activation);
            if old.to_bits() == new.to_bits() {
                continue;
            }
            self.marginal[pos] = new;
            if self.lists.is_empty() || self.assignment[i].is_some() {
                continue;
            }
            let list = &mut self.lists[i];
            list.update(k, new);
            if list.needs_rescan() {
                *list = Candidates::of(&self.marginal[pairs.row(i)]);
            }
            let regret = list.regret();
            if regret.to_bits() != self.tournament.regret[i].to_bits() {
                self.tournament.set(i, regret);
            }
        }
    }

    /// The cached marginals of app `i`'s candidates, in row order.
    fn marginal_row(&self, i: usize) -> &[f64] {
        &self.marginal[self.problem.pairs.row(i)]
    }

    /// The position of app `i`'s candidate `k` among the pairs.
    fn pos(&self, i: usize, k: usize) -> usize {
        self.problem.pairs.row_start[i] + k
    }

    /// Places app `i` on its candidate `k`.
    fn place(&mut self, i: usize, k: usize) {
        debug_assert!(self.assignment[i].is_none());
        let pairs = self.problem.pairs;
        let pos = self.pos(i, k);
        let j = pairs.server[pos];
        for (u, d) in self.used[j].iter_mut().zip(&pairs.demand[pos]) {
            *u += d;
        }
        self.app_count_per_server[j] += 1;
        self.assignment[i] = Some(k);
        self.refresh_column(j);
    }

    /// Cheapest-feasible greedy in application order; one scan of each
    /// cached candidate row, which picks what a fresh [`marginal`] scan in
    /// ascending server order picks.
    fn greedy_construct_simple(&mut self) {
        for i in 0..self.problem.num_apps() {
            if let Some((k, _)) = cheapest(self.marginal_row(i).iter().copied()) {
                self.place(i, k);
            }
        }
    }

    /// One round of the regret construction: places the unplaced app with
    /// the largest regret (the lowest index among ties) on its best
    /// candidate, and returns false when no unplaced app has a fitting
    /// candidate.  Every unplaced row's list starts with what a fresh scan
    /// would read, so the chosen (app, server) matches the uncached
    /// construction bit for bit.
    fn place_next(&mut self) -> bool {
        let Some(i) = self.tournament.top() else {
            return false;
        };
        let k = self.lists[i]
            .best()
            .expect("an app with a regret has a fitting candidate");
        self.tournament.set(i, f64::NEG_INFINITY);
        self.place(i, k);
        true
    }

    /// The chosen server of each application.
    fn finish(self) -> Vec<Option<usize>> {
        let pairs = self.problem.pairs;
        self.assignment
            .iter()
            .enumerate()
            .map(|(i, a)| a.map(|k| pairs.server[self.pos(i, k)]))
            .collect()
    }
}

#[cfg(test)]
impl State<'_> {
    /// Panics unless every unplaced row's list holds the row's first
    /// fitting candidates in (marginal, slot) order, counts exactly the
    /// other fitting candidates as unlisted and knows the row's second-best
    /// marginal, and unless the tournament holds every list's regret
    /// (`-inf` for a placed app) and picks the first largest one.
    fn check_lists(&self) {
        for (i, list) in self.lists.iter().enumerate() {
            let regret = self.tournament.regret[i];
            if self.assignment[i].is_some() {
                assert_eq!(regret, f64::NEG_INFINITY, "placed app {i}");
                continue;
            }
            let mut fitting: Vec<(f64, usize)> = self
                .marginal_row(i)
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_nan())
                .map(|(k, &c)| (c, k))
                .collect();
            // Without a negative zero `total_cmp` orders marginals as `<`.
            fitting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let keys = |entries: &[(f64, usize)]| -> Vec<(u64, usize)> {
                entries.iter().map(|&(c, k)| (c.to_bits(), k)).collect()
            };
            assert!(
                list.len <= fitting.len(),
                "app {i} lists a candidate that does not fit"
            );
            assert_eq!(
                keys(&list.entry[..list.len]),
                keys(&fitting[..list.len]),
                "app {i}'s list"
            );
            assert_eq!(
                list.unlisted,
                fitting.len() - list.len,
                "app {i}'s unlisted count"
            );
            assert!(!list.needs_rescan(), "app {i}'s list is short");
            assert_eq!(
                regret.to_bits(),
                list.regret().to_bits(),
                "app {i}'s regret"
            );
        }
        let regret = &self.tournament.regret;
        let first_largest = (0..self.lists.len())
            .filter(|&i| regret[i] > f64::NEG_INFINITY)
            .fold(None, |best: Option<usize>, i| {
                if best.is_none_or(|b| regret[i] > regret[b]) {
                    Some(i)
                } else {
                    best
                }
            });
        assert_eq!(
            self.tournament.top(),
            first_largest,
            "the tournament's winner"
        );
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

    /// The vectors an [`AssignmentProblem`] borrows.
    #[derive(Debug, Clone)]
    struct Instance {
        pairs: CandidatePairs,
        cost: Vec<f64>,
        capacity: Vec<[f64; 3]>,
        activation_cost: Vec<f64>,
        open: Vec<bool>,
    }

    impl Instance {
        fn problem(&self) -> AssignmentProblem<'_> {
            AssignmentProblem {
                pairs: &self.pairs,
                cost: &self.cost,
                capacity: &self.capacity,
                activation_cost: &self.activation_cost,
                open: &self.open,
            }
        }

        fn solve(&self) -> Vec<Option<usize>> {
            self.problem().solve().expect("instance is well formed")
        }
    }

    /// An instance from rows of `(server, cost, demand)` candidates,
    /// servers ascending.
    fn from_rows(
        rows: Vec<Vec<(usize, f64, [f64; 3])>>,
        capacity: Vec<[f64; 3]>,
        activation_cost: Vec<f64>,
        open: Vec<bool>,
    ) -> Instance {
        let mut row_start = vec![0];
        let (mut server, mut cost, mut demand) = (Vec::new(), Vec::new(), Vec::new());
        for row in rows {
            for (j, c, d) in row {
                server.push(j);
                cost.push(c);
                demand.push(d);
            }
            row_start.push(server.len());
        }
        Instance {
            pairs: CandidatePairs::new(capacity.len(), row_start, server, demand)
                .expect("rows are well formed"),
            cost,
            capacity,
            activation_cost,
            open,
        }
    }

    /// An instance from a dense cost matrix (`None` marks an infeasible
    /// pair) and dense per-pair demands.
    fn dense(
        cost: Vec<Vec<Option<f64>>>,
        demand: Vec<Vec<[f64; 3]>>,
        capacity: Vec<[f64; 3]>,
        activation_cost: Vec<f64>,
        open: Vec<bool>,
    ) -> Instance {
        let rows = cost
            .iter()
            .zip(&demand)
            .map(|(costs, demands)| {
                costs
                    .iter()
                    .zip(demands)
                    .enumerate()
                    .filter_map(|(server, (c, d))| c.map(|cost| (server, cost, *d)))
                    .collect()
            })
            .collect();
        from_rows(rows, capacity, activation_cost, open)
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

    fn simple_problem() -> Instance {
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
        let p = simple_problem();
        let assignment = p.solve();
        assert_eq!(assignment, vec![Some(1), Some(0)]);
        assert_eq!(p.problem().evaluate(&assignment), Some(3.0));
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
        let cost = p.problem().evaluate(&p.solve()).unwrap();
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
        let assignment = p.solve();
        assert_eq!(assignment, vec![Some(0), Some(0)]);
        assert_eq!(p.problem().evaluate(&assignment), Some(10.0));
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
        let assignment = p.solve();
        assert_eq!(assignment, vec![Some(1), Some(1)]);
        assert_eq!(p.problem().evaluate(&assignment), Some(12.0));
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
        assert_eq!(p.solve(), vec![Some(1), Some(0)]);
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
        let assignment = p.solve();
        assert_eq!(assignment.iter().filter(|a| a.is_none()).count(), 1);
    }

    #[test]
    fn evaluate_rejects_capacity_violation_and_infeasible_pairs() {
        let p = simple_problem();
        assert!(p.problem().evaluate(&[Some(0), Some(0)]).is_some());
        let mut tight = p.clone();
        tight.capacity = vec![compute(1.0), compute(2.0)];
        assert!(tight.problem().evaluate(&[Some(0), Some(0)]).is_none());
        let infeasible = dense(
            vec![vec![None, Some(1.0)], vec![Some(2.0), Some(8.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0); 2],
            vec![0.0, 0.0],
            vec![true, true],
        );
        assert!(infeasible.problem().evaluate(&[Some(0), Some(1)]).is_none());
        assert!(p.problem().evaluate(&[Some(0)]).is_none());
        assert!(p.problem().evaluate(&[None, Some(1)]).is_none());
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = dense(vec![], vec![], vec![], vec![], vec![]);
        let assignment = p.solve();
        assert!(assignment.is_empty());
        assert_eq!(p.problem().evaluate(&assignment), Some(0.0));
    }

    #[test]
    fn validate_catches_shape_errors() {
        let mut short_activation = simple_problem();
        short_activation.activation_cost = vec![0.0];
        let mut short_cost = simple_problem();
        short_cost.cost.pop();
        for malformed in [short_activation, short_cost] {
            let p = malformed.problem();
            let error = p.validate().expect_err("malformed");
            assert_eq!(p.solve(), Err(error));
        }
        assert!(simple_problem().problem().validate().is_ok());
    }

    #[test]
    fn validate_rejects_unsorted_duplicate_and_out_of_range_rows() {
        let row = |servers: &[usize]| {
            let demand = vec![compute(1.0); servers.len()];
            CandidatePairs::new(2, vec![0, servers.len()], servers.to_vec(), demand)
        };
        assert!(row(&[0, 1]).is_ok());
        assert!(row(&[1, 0]).is_err(), "unsorted");
        assert!(row(&[0, 0]).is_err(), "duplicate");
        assert!(row(&[0, 2]).is_err(), "out of range");
        let uncovered = CandidatePairs::new(2, vec![0, 1], vec![0, 1], vec![compute(1.0); 2]);
        assert!(uncovered.is_err(), "offsets that miss a pair");
    }

    #[test]
    fn candidate_finds_listed_pairs_only() {
        let p = dense(
            vec![vec![None, Some(1.0)], vec![Some(2.0), Some(8.0)]],
            vec![vec![compute(1.0); 2]; 2],
            vec![compute(2.0); 2],
            vec![0.0, 0.0],
            vec![true, true],
        );
        assert_eq!(p.pairs.find(0, 1).map(|k| p.cost[k]), Some(1.0));
        assert_eq!(p.pairs.find(1, 1).map(|k| p.cost[k]), Some(8.0));
        assert!(p.pairs.find(0, 0).is_none());
        assert!(p.pairs.find(0, 2).is_none());
        assert!(p.pairs.find(2, 0).is_none());
        assert_eq!(p.pairs.column(1), &[(0, 0), (1, 1)]);
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
            let Some(exact_cost) = enumerate_optimum(&p.problem()) else {
                continue;
            };
            if heuristic.iter().all(Option::is_some) {
                let cost = p
                    .problem()
                    .evaluate(&heuristic)
                    .expect("a complete heuristic assignment is feasible");
                // The heuristic may be suboptimal but never better than exact,
                // and should be within 30% on these tiny instances.
                assert!(cost >= exact_cost - 1e-6);
                assert!(
                    cost <= exact_cost * 1.3 + 1e-6,
                    "heuristic {cost} vs exact {exact_cost}"
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
        // `evaluate` answers only for a complete, feasible assignment.
        assert!(p.problem().evaluate(&p.solve()).is_some());
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
        let assignment = p.solve();
        assert!(p.problem().evaluate(&assignment).is_some());
        let mut used: Vec<usize> = assignment.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() >= 24, "only {} servers used", used.len());
    }

    /// The heuristic with no caches: every regret round rescans every
    /// remaining row for its best and second-best marginal, and batches
    /// above `REGRET_LIMIT` take the cheapest-feasible pass.  Returns the
    /// chosen server per application.
    fn reference_solve(p: &AssignmentProblem) -> Vec<Option<usize>> {
        struct Reference<'a> {
            p: &'a AssignmentProblem<'a>,
            used: Vec<[f64; 3]>,
            count: Vec<usize>,
            /// The slot of each application's server.
            slot: Vec<Option<usize>>,
        }
        impl Reference<'_> {
            fn marginals(&self, i: usize) -> Vec<f64> {
                self.p
                    .pairs
                    .row(i)
                    .map(|pos| {
                        let j = self.p.pairs.servers()[pos];
                        if !self.p.fits(j, &self.p.pairs.demands()[pos], &self.used) {
                            return f64::NAN;
                        }
                        let open = self.p.open[j] || self.count[j] > 0;
                        self.p.cost[pos] + if open { 0.0 } else { self.p.activation_cost[j] }
                    })
                    .collect()
            }
            /// The server and demand of app `i`'s candidate `k`.
            fn candidate(&self, i: usize, k: usize) -> (usize, [f64; 3]) {
                let pos = self.p.pairs.row(i).start + k;
                (self.p.pairs.servers()[pos], self.p.pairs.demands()[pos])
            }
            fn cheapest(&self, i: usize) -> Option<(usize, f64)> {
                let mut best: Option<(usize, f64)> = None;
                for (k, c) in self.marginals(i).into_iter().enumerate() {
                    if !c.is_nan() && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((k, c));
                    }
                }
                best
            }
            fn place(&mut self, i: usize, k: usize) {
                let (j, demand) = self.candidate(i, k);
                for (u, d) in self.used[j].iter_mut().zip(&demand) {
                    *u += d;
                }
                self.count[j] += 1;
                self.slot[i] = Some(k);
            }
        }

        let apps = p.num_apps();
        let mut r = Reference {
            p,
            used: vec![[0.0; 3]; p.num_servers()],
            count: vec![0; p.num_servers()],
            slot: vec![None; apps],
        };
        if apps > REGRET_LIMIT {
            for i in 0..apps {
                if let Some((k, _)) = r.cheapest(i) {
                    r.place(i, k);
                }
            }
        } else {
            let mut remaining: Vec<usize> = (0..apps).collect();
            loop {
                let mut chosen: Option<(usize, usize, f64)> = None; // (app, slot, regret)
                for &i in &remaining {
                    let Some((best_k, best_c)) = r.cheapest(i) else {
                        continue;
                    };
                    let mut second = f64::INFINITY;
                    for (k, c) in r.marginals(i).into_iter().enumerate() {
                        if k != best_k && c < second {
                            second = c;
                        }
                    }
                    let regret = if second.is_finite() {
                        second - best_c
                    } else {
                        f64::INFINITY
                    };
                    if chosen.is_none_or(|(_, _, best)| regret > best) {
                        chosen = Some((i, best_k, regret));
                    }
                }
                let Some((i, k, _)) = chosen else {
                    break;
                };
                remaining.retain(|&a| a != i);
                r.place(i, k);
            }
        }
        r.slot
            .iter()
            .enumerate()
            .map(|(i, a)| a.map(|k| r.candidate(i, k).0))
            .collect()
    }

    /// Case `case` of a seeded corpus.  Integer costs make ties, demands in
    /// tenths make usage sums that round, and capacities near the summed
    /// demand make candidates stop fitting part-way through.  Every 100th
    /// case is above the regret limit.
    fn tenths_instance(rng: &mut StdRng, case: usize) -> Instance {
        let apps = if case % 100 == 99 {
            REGRET_LIMIT + rng.gen_range(1..40)
        } else {
            rng.gen_range(1..15)
        };
        let servers = rng.gen_range(2..8);
        let tenths = |rng: &mut StdRng, hi: u32| f64::from(rng.gen_range(1..hi)) / 10.0;
        let mut candidates: Vec<Vec<(usize, f64, [f64; 3])>> = vec![Vec::new(); apps];
        for row in &mut candidates {
            let base = [tenths(rng, 12), tenths(rng, 12), tenths(rng, 4)];
            for server in 0..servers {
                if rng.gen_bool(0.25) {
                    continue;
                }
                let demand = if rng.gen_bool(0.7) {
                    base
                } else {
                    [tenths(rng, 12), base[1], tenths(rng, 4)]
                };
                row.push((server, f64::from(rng.gen_range(1..10u32)), demand));
            }
        }
        let mut summed = [0.0; 3];
        for row in &candidates {
            if let Some((_, _, demand)) = row.first() {
                for (s, d) in summed.iter_mut().zip(demand) {
                    *s += d;
                }
            }
        }
        let capacity = (0..servers)
            .map(|_| {
                let share = rng.gen_range(0.8..1.6) / servers as f64;
                summed.map(|s| (s * share * 10.0).round() / 10.0)
            })
            .collect();
        from_rows(
            candidates,
            capacity,
            (0..servers)
                .map(|_| f64::from(rng.gen_range(0..15u32)))
                .collect(),
            (0..servers).map(|_| rng.gen_bool(0.5)).collect(),
        )
    }

    #[test]
    fn heuristic_matches_the_uncached_reference_bit_for_bit() {
        // The corpus drives the caches through every transition: some cases
        // leave an app unplaced although one of its candidates fitted the
        // empty fleet (a cached row turns infeasible), some open a closed
        // server with an activation cost (its column's marginals drop), and
        // some are above the regret limit.
        let mut rng = StdRng::seed_from_u64(20);
        let (mut stranded, mut activated, mut spilled) = (0, 0, 0);
        for case in 0..1_200 {
            let instance = tenths_instance(&mut rng, case);
            let p = instance.problem();
            let assignment = instance.solve();
            assert_eq!(assignment, reference_solve(&p), "case {case}");
            if p.num_apps() > REGRET_LIMIT {
                spilled += 1;
                continue;
            }
            let fitted_once = |i: usize| {
                p.pairs.row(i).any(|pos| {
                    let j = p.pairs.servers()[pos];
                    fits_within(&p.pairs.demands()[pos], &[0.0; 3], &p.capacity[j])
                })
            };
            if (0..p.num_apps()).any(|i| assignment[i].is_none() && fitted_once(i)) {
                stranded += 1;
            }
            if assignment
                .iter()
                .flatten()
                .any(|&j| !p.open[j] && p.activation_cost[j] > 0.0)
            {
                activated += 1;
            }
        }
        assert!(stranded > 0, "no app went unplaced after fitting");
        assert!(activated > 0, "no case opened a server");
        assert!(spilled > 0, "no case above the regret limit");
    }

    /// A seeded sweep-shaped instance: 100–150 apps on 75–125 sites of four
    /// identical servers, so an app's costs tie within a site.  Each app
    /// reaches the sites within a few of its home site and demands its own
    /// resources in tenths, so every column mixes demands.  A site's
    /// capacity holds from under one to a dozen apps, so servers fill
    /// part-way and a column's largest demand can stop fitting while its
    /// smaller ones still do.
    fn sweep_instance(rng: &mut StdRng) -> Instance {
        const PER_SITE: usize = 4;
        let apps: usize = rng.gen_range(100..151);
        let sites: usize = rng.gen_range(75..126);
        let tenths = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..hi)) / 10.0;
        let site_intensity: Vec<f64> = (0..sites)
            .map(|_| f64::from(rng.gen_range(1..40u32)))
            .collect();
        let site_capacity: Vec<[f64; 3]> = (0..sites)
            .map(|_| [tenths(rng, 8, 60), tenths(rng, 8, 60), tenths(rng, 4, 30)])
            .collect();
        let site_activation: Vec<f64> = (0..sites)
            .map(|_| f64::from(rng.gen_range(0..15u32)))
            .collect();
        let rows = (0..apps)
            .map(|_| {
                let home: usize = rng.gen_range(0..sites);
                let reach: usize = rng.gen_range(1..6);
                let energy = f64::from(rng.gen_range(1..8u32));
                let demand = [tenths(rng, 1, 12), tenths(rng, 1, 12), tenths(rng, 1, 4)];
                (home.saturating_sub(reach)..(home + reach + 1).min(sites))
                    .flat_map(|site| {
                        let cost = energy * site_intensity[site];
                        (0..PER_SITE).map(move |s| (site * PER_SITE + s, cost, demand))
                    })
                    .collect()
            })
            .collect();
        let servers = sites * PER_SITE;
        from_rows(
            rows,
            (0..servers).map(|j| site_capacity[j / PER_SITE]).collect(),
            (0..servers)
                .map(|j| site_activation[j / PER_SITE])
                .collect(),
            (0..servers).map(|_| rng.gen_bool(0.5)).collect(),
        )
    }

    #[test]
    fn heuristic_matches_the_uncached_reference_on_sweep_shaped_instances() {
        // Read from each instance and its result: a server whose largest
        // demand fits it empty has its pairs priced without a fit test, one
        // whose largest demand does not is priced pair by pair, and a
        // server that took two apps with room for its largest demand left
        // had its column's refresh return early on the second.  A server
        // whose largest demand no longer fits while a smaller demand still
        // does had its column refreshed pair by pair.
        let mut rng = StdRng::seed_from_u64(31);
        let (mut shortcut, mut priced, mut early, mut mixed) = (0, 0, 0, 0);
        for case in 0..12 {
            let instance = sweep_instance(&mut rng);
            let p = instance.problem();
            let assignment = instance.solve();
            assert_eq!(assignment, reference_solve(&p), "case {case}");
            let mut used = vec![[0.0; 3]; p.num_servers()];
            let mut count = vec![0; p.num_servers()];
            for (i, a) in assignment.iter().enumerate() {
                let Some(j) = *a else { continue };
                let pos = p.pairs.find(i, j).expect("placed on a candidate");
                for (u, d) in used[j].iter_mut().zip(&p.pairs.demands()[pos]) {
                    *u += d;
                }
                count[j] += 1;
            }
            // A margin far above the rounding of a sum in another order.
            let within = |d: &[f64; 3], j: usize, margin: f64| {
                (0..3).all(|r| used[j][r] + d[r] <= p.capacity[j][r] - margin)
            };
            for j in (0..p.num_servers()).filter(|&j| !p.pairs.column(j).is_empty()) {
                let largest = &p.pairs.largest_demand[j];
                if column_fits(largest, &[0.0; 3], &p.capacity[j]) {
                    shortcut += 1;
                } else {
                    priced += 1;
                }
                if count[j] >= 2 && within(largest, j, 1e-6) {
                    early += 1;
                }
                let smaller_fits =
                    p.pairs.column(j).iter().any(|&(i, k)| {
                        within(&p.pairs.demands()[p.pairs.row(i).start + k], j, 1e-6)
                    });
                if !within(largest, j, -1e-6) && smaller_fits {
                    mixed += 1;
                }
            }
        }
        assert!(shortcut > 0, "no server's largest demand fitted it empty");
        assert!(priced > 0, "every server's largest demand fitted it empty");
        assert!(early > 0, "no column refresh returned early");
        assert!(
            mixed > 0,
            "no largest demand stopped fitting before a smaller one"
        );
    }

    #[test]
    fn with_every_server_on_no_single_move_is_cheaper() {
        // With no activation cost to drop, construction leaves every app on
        // its then-cheapest fitting candidate and later placements only use
        // up capacity: no placed app has a strictly cheaper candidate that
        // fits on top of the final usage, and no unplaced app has a fitting
        // candidate at all.
        let mut rng = StdRng::seed_from_u64(7);
        let mut blocked = 0;
        for case in 0..2_000 {
            let mut instance = tenths_instance(&mut rng, case);
            instance.open.fill(true);
            let p = instance.problem();
            let assignment = instance.solve();
            let mut used = vec![[0.0; 3]; p.num_servers()];
            let mut current = vec![f64::INFINITY; p.num_apps()];
            for (i, a) in assignment.iter().enumerate() {
                let Some(j) = *a else { continue };
                let pos = p.pairs.find(i, j).expect("placed on a candidate");
                for (u, d) in used[j].iter_mut().zip(&p.pairs.demands()[pos]) {
                    *u += d;
                }
                current[i] = p.cost[pos];
            }
            for (i, &cost) in current.iter().enumerate() {
                for pos in p.pairs.row(i).filter(|&pos| p.cost[pos] < cost) {
                    let j = p.pairs.servers()[pos];
                    assert!(
                        !p.fits(j, &p.pairs.demands()[pos], &used),
                        "case {case}: app {i} fits on the cheaper server {j}"
                    );
                    blocked += 1;
                }
            }
        }
        assert!(blocked > 0);
    }

    /// The regret construction with [`State::check_lists`] run after
    /// pricing and after every placement.  Returns the chosen server per
    /// application.
    fn solve_checking_lists(p: &AssignmentProblem) -> Vec<Option<usize>> {
        p.validate().expect("instance is well formed");
        assert!(p.num_apps() <= REGRET_LIMIT);
        let mut state = State::new(p, true);
        state.check_lists();
        while state.place_next() {
            state.check_lists();
        }
        state.finish()
    }

    /// A seeded instance whose rows exceed the list length: 2–40 apps
    /// reaching most of 9–30 servers, costs from four integers so that
    /// many marginals tie, half the servers closed with an activation cost
    /// that pushes their candidates back until they open, and capacities
    /// that hold a few apps each.
    fn long_row_instance(rng: &mut StdRng) -> Instance {
        let apps = rng.gen_range(2..41);
        let servers = rng.gen_range(LIST_LEN + 1..31);
        let tenths = |rng: &mut StdRng, hi: u32| f64::from(rng.gen_range(1..hi)) / 10.0;
        let rows = (0..apps)
            .map(|_| {
                let base = [tenths(rng, 12), tenths(rng, 12), tenths(rng, 4)];
                (0..servers)
                    .filter_map(|j| {
                        if rng.gen_bool(0.1) {
                            return None;
                        }
                        let demand = if rng.gen_bool(0.7) {
                            base
                        } else {
                            [tenths(rng, 12), base[1], tenths(rng, 4)]
                        };
                        Some((j, f64::from(rng.gen_range(1..5u32)), demand))
                    })
                    .collect()
            })
            .collect();
        from_rows(
            rows,
            (0..servers)
                .map(|_| [tenths(rng, 30), tenths(rng, 30), tenths(rng, 10)])
                .collect(),
            (0..servers)
                .map(|_| f64::from(rng.gen_range(0..7u32)))
                .collect(),
            (0..servers).map(|_| rng.gen_bool(0.5)).collect(),
        )
    }

    #[test]
    fn lists_hold_each_rows_first_fitting_candidates_on_the_reference_corpora() {
        let mut rng = StdRng::seed_from_u64(20);
        for case in 0..1_200 {
            let instance = tenths_instance(&mut rng, case);
            let p = instance.problem();
            if p.num_apps() <= REGRET_LIMIT {
                assert_eq!(
                    solve_checking_lists(&p),
                    reference_solve(&p),
                    "tenths case {case}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..12 {
            let instance = sweep_instance(&mut rng);
            let p = instance.problem();
            assert_eq!(
                solve_checking_lists(&p),
                reference_solve(&p),
                "sweep case {case}"
            );
        }
    }

    #[test]
    fn lists_hold_each_rows_first_fitting_candidates_on_long_tied_rows() {
        // Read from each instance and its result: some rows hold more
        // fitting candidates than a list, some apps land on a server that
        // was closed with an activation cost (its column's marginals drop
        // past listed ones), and some apps stay unplaced.
        let mut rng = StdRng::seed_from_u64(41);
        let (mut overflowing, mut activated, mut stranded) = (0, 0, 0);
        for case in 0..2_000 {
            let instance = long_row_instance(&mut rng);
            let p = instance.problem();
            let assignment = solve_checking_lists(&p);
            assert_eq!(assignment, reference_solve(&p), "case {case}");
            overflowing += (0..p.num_apps())
                .filter(|&i| p.pairs.row(i).len() > LIST_LEN)
                .count();
            activated += assignment
                .iter()
                .flatten()
                .filter(|&&j| !p.open[j] && p.activation_cost[j] > 0.0)
                .count();
            stranded += assignment.iter().filter(|a| a.is_none()).count();
        }
        assert!(overflowing > 0, "no row exceeds the list length");
        assert!(activated > 0, "no app opened a server");
        assert!(stranded > 0, "every app was placed");
    }
}
