//! Sparse LU factorization of a simplex basis with product-form updates.
//!
//! The revised simplex in [`crate::simplex`] needs three linear-algebra
//! primitives per pivot: FTRAN (`w = B^-1 a`), BTRAN (`y^T = c^T B^-1`) and
//! a rank-one basis exchange.  The previous implementation kept a dense
//! row-major `m x m` basis inverse — quadratic memory and per-pivot work.
//! This module replaces it with
//!
//! * a **sparse LU factorization** `B = L U` (modulo row/column
//!   permutations) computed by Markowitz-style pivoting: singleton rows and
//!   columns are eliminated first (zero fill), and the residual "bump" is
//!   pivoted by minimum column count × minimum row count under a relative
//!   stability threshold, which keeps fill-in near the nonzero count of the
//!   basis itself for the placement models this crate produces
//!   (assignment + capacity + linking rows, whose optimal bases are mostly
//!   slack and near-triangular), and
//! * a **product-form eta file**: each basis exchange appends one sparse
//!   eta vector (the classic product-form update, the simpler sibling of
//!   Forrest–Tomlin) instead of touching `m^2` inverse entries.  FTRAN
//!   applies the eta file after the LU solve, BTRAN applies it transposed
//!   before, so both solves cost `O(nnz(L) + nnz(U) + nnz(etas))`.
//!
//! The eta file degrades solve cost as it grows, so [`BasisFactor`] also
//! owns the **refactorization cadence**: [`BasisFactor::needs_refactor`]
//! fires either after [`REFACTOR_EVERY`] updates or as soon as the
//! accumulated eta fill exceeds [`REFACTOR_FILL_LIMIT`] times the LU's own
//! nonzero count — an adaptive trigger that refactorizes dense, fill-heavy
//! pivot sequences long before the fixed pivot cap.

/// Entries below this magnitude are dropped during elimination
/// (cancellation noise, not structural nonzeros).
const DROP_EPS: f64 = 1e-12;
/// Pivot magnitude below which the basis counts as numerically singular.
const SING_EPS: f64 = 1e-11;
/// Relative (per-column) threshold a bump pivot must clear, trading a
/// little fill-in control for numerical stability.
const STABILITY: f64 = 0.01;

/// Hard cap: refactorize after this many eta updates regardless of fill.
pub const REFACTOR_EVERY: usize = 128;
/// Adaptive trigger: refactorize once the eta-file nonzeros exceed this
/// multiple of the LU factor's own nonzeros — dense pivot sequences hit
/// this long before [`REFACTOR_EVERY`].
pub const REFACTOR_FILL_LIMIT: usize = 4;

/// Sparse LU factors of a basis matrix plus the product-form eta file of
/// updates applied since the last factorization.  All storage is reused
/// across factorizations; after warm-up no path allocates.
#[derive(Debug, Clone, Default)]
pub struct BasisFactor {
    m: usize,
    /// Constraint row eliminated at step `k`.
    pivot_row: Vec<usize>,
    /// Basis slot (column of `B`) eliminated at step `k`.
    pivot_slot: Vec<usize>,
    /// `L` multipliers per step: `(row, l)` in `l_row`/`l_val`, step `k`
    /// spanning `l_ptr[k]..l_ptr[k + 1]`.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// Off-diagonal `U` entries per step: `(slot, u)` in `u_slot`/`u_val`,
    /// step `k` spanning `u_ptr[k]..u_ptr[k + 1]`; diagonals in `u_diag`.
    u_ptr: Vec<usize>,
    u_slot: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// Product-form eta file: update `e` pivots on slot `eta_piv[e]` with
    /// diagonal `eta_piv_val[e]` and off-diagonal `(slot, val)` entries in
    /// `eta_slot`/`eta_val` spanning `eta_ptr[e]..eta_ptr[e + 1]`.
    eta_ptr: Vec<usize>,
    eta_slot: Vec<usize>,
    eta_val: Vec<f64>,
    eta_piv: Vec<usize>,
    eta_piv_val: Vec<f64>,
    /// Nonzeros of the basis matrix last factorized (fill-in denominator).
    basis_nnz: usize,
    // Factorization scratch (reused, never observable).
    wrows: Vec<Vec<(usize, f64)>>,
    wcols: Vec<Vec<usize>>,
    row_cnt: Vec<usize>,
    col_cnt: Vec<usize>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    spa_val: Vec<f64>,
    spa_used: Vec<bool>,
    spa_new: Vec<bool>,
    touch: Vec<usize>,
    row_q: Vec<usize>,
    col_q: Vec<usize>,
}

impl BasisFactor {
    /// Creates an empty factorization; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of eta updates applied since the last factorization.
    pub fn eta_count(&self) -> usize {
        self.eta_piv.len()
    }

    /// Total nonzeros in the eta file.
    pub fn eta_nnz(&self) -> usize {
        self.eta_slot.len() + self.eta_piv.len()
    }

    /// Total nonzeros in the LU factors (including `U`'s diagonal).
    pub fn lu_nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.m
    }

    /// Fill-in ratio of the last factorization: LU nonzeros over basis
    /// nonzeros (1.0 means zero fill).
    pub fn fill_ratio(&self) -> f64 {
        self.lu_nnz() as f64 / self.basis_nnz.max(1) as f64
    }

    /// Whether the eta file has grown enough that the next pivot should
    /// refactorize: the fixed [`REFACTOR_EVERY`] update cap, or the
    /// adaptive [`REFACTOR_FILL_LIMIT`] fill trigger, whichever fires
    /// first.
    pub fn needs_refactor(&self) -> bool {
        self.eta_count() >= REFACTOR_EVERY
            || self.eta_nnz() > REFACTOR_FILL_LIMIT * self.lu_nnz().max(self.m)
    }

    fn clear_factors(&mut self, m: usize) {
        self.m = m;
        self.pivot_row.clear();
        self.pivot_slot.clear();
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_row.clear();
        self.l_val.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_slot.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_slot.clear();
        self.eta_val.clear();
        self.eta_piv.clear();
        self.eta_piv_val.clear();
    }

    /// Installs the factorization of the identity basis (the slack basis).
    pub fn reset_identity(&mut self, m: usize) {
        self.clear_factors(m);
        for k in 0..m {
            self.pivot_row.push(k);
            self.pivot_slot.push(k);
            self.u_diag.push(1.0);
            self.l_ptr.push(0);
            self.u_ptr.push(0);
        }
        self.basis_nnz = m;
    }

    /// Installs the factorization of a diagonal basis (slack columns with
    /// activated `±1` artificial columns).
    pub fn reset_diagonal(&mut self, diag: &[f64]) {
        self.reset_identity(diag.len());
        self.u_diag.copy_from_slice(diag);
    }

    /// Factorizes the basis given column-wise (CSC) with column `k` being
    /// basis slot `k`.  Returns `false` when the matrix is numerically
    /// singular; the previous factors are destroyed either way, so the
    /// caller must reinstall a valid basis on failure.
    pub fn factorize(
        &mut self,
        m: usize,
        col_ptr: &[usize],
        row_idx: &[usize],
        vals: &[f64],
    ) -> bool {
        self.clear_factors(m);
        self.basis_nnz = 0;
        if m == 0 {
            return true;
        }

        // Working matrix: exact row lists plus (lazily validated) column
        // row-lists and active nonzero counts.
        self.wrows.resize_with(m, Vec::new);
        self.wcols.resize_with(m, Vec::new);
        for r in 0..m {
            self.wrows[r].clear();
            self.wcols[r].clear();
        }
        self.row_cnt.clear();
        self.row_cnt.resize(m, 0);
        self.col_cnt.clear();
        self.col_cnt.resize(m, 0);
        self.row_done.clear();
        self.row_done.resize(m, false);
        self.col_done.clear();
        self.col_done.resize(m, false);
        self.spa_val.clear();
        self.spa_val.resize(m, 0.0);
        self.spa_used.clear();
        self.spa_used.resize(m, false);
        self.spa_new.clear();
        self.spa_new.resize(m, false);
        self.row_q.clear();
        self.col_q.clear();

        for s in 0..m {
            for p in col_ptr[s]..col_ptr[s + 1] {
                let v = vals[p];
                if v != 0.0 {
                    let r = row_idx[p];
                    self.wrows[r].push((s, v));
                    self.wcols[s].push(r);
                    self.basis_nnz += 1;
                }
            }
        }
        for r in 0..m {
            self.row_cnt[r] = self.wrows[r].len();
            match self.row_cnt[r] {
                0 => return false, // structurally singular
                1 => self.row_q.push(r),
                _ => {}
            }
        }
        for s in 0..m {
            self.col_cnt[s] = self.wcols[s].len();
            match self.col_cnt[s] {
                0 => return false,
                1 => self.col_q.push(s),
                _ => {}
            }
        }

        for _ in 0..m {
            let Some((pr, ps)) = self.select_pivot() else {
                return false;
            };
            if !self.eliminate(pr, ps) {
                return false;
            }
        }
        true
    }

    /// Picks the next pivot: column singletons, then row singletons (both
    /// zero-fill), then the Markowitz-style bump rule.
    fn select_pivot(&mut self) -> Option<(usize, usize)> {
        while let Some(s) = self.col_q.pop() {
            if self.col_done[s] || self.col_cnt[s] != 1 {
                continue;
            }
            let r = self.active_col_rows(s).next()?;
            return Some((r, s));
        }
        while let Some(r) = self.row_q.pop() {
            if self.row_done[r] || self.row_cnt[r] != 1 {
                continue;
            }
            let s = self.wrows[r].first().map(|&(s, _)| s)?;
            return Some((r, s));
        }
        // Bump: slot with the fewest active entries, then within it the row
        // with the fewest active entries whose pivot clears the stability
        // threshold.
        let mut best_slot: Option<(usize, usize)> = None; // (count, slot)
        for s in 0..self.m {
            if self.col_done[s] {
                continue;
            }
            let cnt = self.col_cnt[s];
            if cnt == 0 {
                return None; // active empty column: singular
            }
            if best_slot.is_none_or(|(c, _)| cnt < c) {
                best_slot = Some((cnt, s));
                if cnt == 2 {
                    break;
                }
            }
        }
        let (_, s) = best_slot?;
        let col_max = self
            .active_col_rows(s)
            .map(|r| self.row_value(r, s).abs())
            .fold(0.0f64, f64::max);
        if col_max < SING_EPS {
            return None;
        }
        let mut best: Option<(usize, usize)> = None; // (row_cnt, row)
        for r in self.active_col_rows(s).collect::<Vec<_>>() {
            if self.row_value(r, s).abs() >= STABILITY * col_max {
                let cnt = self.row_cnt[r];
                if best.is_none_or(|(c, _)| cnt < c) {
                    best = Some((cnt, r));
                }
            }
        }
        best.map(|(_, r)| (r, s))
    }

    /// Active rows holding a nonzero in slot `s` (validated against the
    /// exact row lists, since `wcols` may hold stale entries).
    fn active_col_rows(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.wcols[s]
            .iter()
            .copied()
            .filter(move |&r| !self.row_done[r] && self.wrows[r].iter().any(|&(t, _)| t == s))
    }

    fn row_value(&self, r: usize, s: usize) -> f64 {
        self.wrows[r]
            .iter()
            .find(|&&(t, _)| t == s)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Records step `k = pivot count` at `(row pr, slot ps)` and eliminates
    /// slot `ps` from every other active row.
    fn eliminate(&mut self, pr: usize, ps: usize) -> bool {
        let prow = std::mem::take(&mut self.wrows[pr]);
        let apiv = match prow.iter().find(|&&(s, _)| s == ps) {
            Some(&(_, v)) if v.abs() >= SING_EPS => v,
            _ => {
                self.wrows[pr] = prow;
                return false;
            }
        };
        self.pivot_row.push(pr);
        self.pivot_slot.push(ps);
        self.u_diag.push(apiv);
        for &(s, v) in &prow {
            if s != ps {
                self.u_slot.push(s);
                self.u_val.push(v);
            }
        }
        self.u_ptr.push(self.u_slot.len());
        self.row_done[pr] = true;
        self.col_done[ps] = true;
        for &(s, _) in &prow {
            if s != ps && !self.col_done[s] {
                self.col_cnt[s] -= 1;
                if self.col_cnt[s] == 1 {
                    self.col_q.push(s);
                }
            }
        }

        // Update every active row holding slot `ps`.
        let col_rows = std::mem::take(&mut self.wcols[ps]);
        for r in col_rows {
            if self.row_done[r] {
                continue;
            }
            let Some(pos) = self.wrows[r].iter().position(|&(s, _)| s == ps) else {
                continue; // stale column entry
            };
            let mut row = std::mem::take(&mut self.wrows[r]);
            let l = row[pos].1 / apiv;
            self.l_row.push(r);
            self.l_val.push(l);
            row.swap_remove(pos);
            // Sparse accumulate: row <- row - l * prow (minus the pivot).
            self.touch.clear();
            for &(s, v) in &row {
                self.spa_val[s] = v;
                self.spa_used[s] = true;
                self.touch.push(s);
            }
            for &(s, v) in &prow {
                if s == ps {
                    continue;
                }
                if !self.spa_used[s] {
                    self.spa_used[s] = true;
                    self.spa_new[s] = true;
                    self.touch.push(s);
                }
                self.spa_val[s] -= l * v;
            }
            row.clear();
            for t in 0..self.touch.len() {
                let s = self.touch[t];
                let v = self.spa_val[s];
                let is_new = self.spa_new[s];
                self.spa_val[s] = 0.0;
                self.spa_used[s] = false;
                self.spa_new[s] = false;
                if v.abs() > DROP_EPS {
                    row.push((s, v));
                    if is_new {
                        self.col_cnt[s] += 1;
                        self.wcols[s].push(r);
                    }
                } else if !is_new {
                    self.col_cnt[s] -= 1;
                    if self.col_cnt[s] == 1 && !self.col_done[s] {
                        self.col_q.push(s);
                    }
                }
            }
            self.row_cnt[r] = row.len();
            if self.row_cnt[r] == 1 {
                self.row_q.push(r);
            }
            self.wrows[r] = row;
        }
        self.l_ptr.push(self.l_row.len());
        self.wrows[pr] = prow;
        true
    }

    /// FTRAN: solves `B x = v` where `v` is indexed by constraint row
    /// (destroyed in place) and the solution lands in `out`, indexed by
    /// basis slot.
    pub fn ftran(&self, v: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let t = v[self.pivot_row[k]];
            if t != 0.0 {
                for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                    v[self.l_row[p]] -= self.l_val[p] * t;
                }
            }
        }
        for k in (0..m).rev() {
            let mut t = v[self.pivot_row[k]];
            for p in self.u_ptr[k]..self.u_ptr[k + 1] {
                t -= self.u_val[p] * out[self.u_slot[p]];
            }
            out[self.pivot_slot[k]] = t / self.u_diag[k];
        }
        for e in 0..self.eta_piv.len() {
            let r = self.eta_piv[e];
            let t = out[r];
            if t != 0.0 {
                out[r] = t * self.eta_piv_val[e];
                for p in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                    out[self.eta_slot[p]] += self.eta_val[p] * t;
                }
            }
        }
    }

    /// BTRAN: solves `y^T B = c^T` where `c` is indexed by basis slot
    /// (destroyed in place) and the solution lands in `out`, indexed by
    /// constraint row.
    pub fn btran(&self, c: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        for e in (0..self.eta_piv.len()).rev() {
            let r = self.eta_piv[e];
            let mut t = c[r] * self.eta_piv_val[e];
            for p in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                t += self.eta_val[p] * c[self.eta_slot[p]];
            }
            c[r] = t;
        }
        for k in 0..m {
            let z = c[self.pivot_slot[k]] / self.u_diag[k];
            out[self.pivot_row[k]] = z;
            if z != 0.0 {
                for p in self.u_ptr[k]..self.u_ptr[k + 1] {
                    c[self.u_slot[p]] -= self.u_val[p] * z;
                }
            }
        }
        for k in (0..m).rev() {
            let mut t = out[self.pivot_row[k]];
            for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                t -= self.l_val[p] * out[self.l_row[p]];
            }
            out[self.pivot_row[k]] = t;
        }
    }

    /// Product-form update after a basis exchange: slot `r` now holds a
    /// column whose FTRAN image is `w` (so `w[r]` is the pivot element).
    /// Appends one eta vector; returns `false` on a vanishing pivot.
    pub fn update(&mut self, r: usize, w: &[f64]) -> bool {
        let piv = w[r];
        if piv == 0.0 {
            return false;
        }
        let inv = 1.0 / piv;
        self.eta_piv.push(r);
        self.eta_piv_val.push(inv);
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                self.eta_slot.push(i);
                self.eta_val.push(-wi * inv);
            }
        }
        self.eta_ptr.push(self.eta_slot.len());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense Gaussian elimination oracle for `A x = b`.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let m = b.len();
        let mut aug: Vec<Vec<f64>> = a
            .iter()
            .zip(b.iter())
            .map(|(row, &rhs)| {
                let mut r = row.clone();
                r.push(rhs);
                r
            })
            .collect();
        for col in 0..m {
            let piv = (col..m)
                .max_by(|&i, &j| aug[i][col].abs().total_cmp(&aug[j][col].abs()))
                .unwrap();
            aug.swap(col, piv);
            let inv = 1.0 / aug[col][col];
            for v in aug[col][col..].iter_mut() {
                *v *= inv;
            }
            let pivot_row = aug[col].clone();
            for (row, r) in aug.iter_mut().enumerate() {
                if row != col && r[col] != 0.0 {
                    let f = r[col];
                    for (v, &pv) in r[col..].iter_mut().zip(&pivot_row[col..]) {
                        *v -= f * pv;
                    }
                }
            }
        }
        (0..m).map(|i| aug[i][m]).collect()
    }

    /// Converts a dense column-major test matrix to CSC.
    fn to_csc(cols: &[Vec<f64>]) -> (usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        let m = cols.len();
        let mut ptr = vec![0usize];
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for col in cols {
            for (r, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    rows.push(r);
                    vals.push(v);
                }
            }
            ptr.push(rows.len());
        }
        (m, ptr, rows, vals)
    }

    /// Row-major view of a column-major matrix (for the dense oracle).
    fn rows_of(cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let m = cols.len();
        (0..m)
            .map(|r| (0..m).map(|c| cols[c][r]).collect())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-8, "{a:?} vs {b:?}");
        }
    }

    /// A fixed, structurally interesting 5x5 test basis: two slack-style
    /// singleton columns, a dense-ish bump, and off-diagonal couplings.
    fn sample_cols() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![2.0, 3.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, -2.0, 0.0, 0.5],
            vec![0.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, -1.0, 4.0, 0.0, 2.0],
        ]
    }

    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[test]
    fn ftran_matches_dense_solve() {
        let cols = sample_cols();
        let (m, ptr, rows, vals) = to_csc(&cols);
        let mut f = BasisFactor::new();
        assert!(f.factorize(m, &ptr, &rows, &vals));
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let mut v = b.clone();
        let mut out = vec![0.0; m];
        f.ftran(&mut v, &mut out);
        assert_close(&out, &dense_solve(&rows_of(&cols), &b));
    }

    #[test]
    fn btran_matches_dense_transpose_solve() {
        let cols = sample_cols();
        let (m, ptr, rows, vals) = to_csc(&cols);
        let mut f = BasisFactor::new();
        assert!(f.factorize(m, &ptr, &rows, &vals));
        let c = vec![0.5, 1.0, -1.0, 2.0, 0.25];
        let mut cv = c.clone();
        let mut out = vec![0.0; m];
        f.btran(&mut cv, &mut out);
        // Transpose of the column-major matrix is its row-major form.
        assert_close(&out, &dense_solve(&cols.to_vec(), &c));
    }

    #[test]
    fn random_matrices_round_trip_against_dense_oracle() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for trial in 0..50 {
            let m = 3 + (trial % 6);
            // Diagonally-anchored random sparse matrix: always nonsingular
            // enough for the oracle comparison to be meaningful.
            let mut cols = vec![vec![0.0; m]; m];
            for (j, col) in cols.iter_mut().enumerate() {
                col[j] = 1.0 + xorshift(&mut state).abs();
                for (i, slot) in col.iter_mut().enumerate() {
                    if i != j && xorshift(&mut state) > 0.4 {
                        *slot = xorshift(&mut state);
                    }
                }
            }
            let (m, ptr, rows, vals) = to_csc(&cols);
            let mut f = BasisFactor::new();
            assert!(f.factorize(m, &ptr, &rows, &vals), "trial {trial}");
            let b: Vec<f64> = (0..m).map(|_| xorshift(&mut state)).collect();
            let mut v = b.clone();
            let mut out = vec![0.0; m];
            f.ftran(&mut v, &mut out);
            assert_close(&out, &dense_solve(&rows_of(&cols), &b));
            let mut cv = b.clone();
            f.btran(&mut cv, &mut out);
            assert_close(&out, &dense_solve(&cols.to_vec(), &b));
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        let mut cols = sample_cols();
        let (m, ptr, rows, vals) = to_csc(&cols);
        let mut f = BasisFactor::new();
        assert!(f.factorize(m, &ptr, &rows, &vals));
        // Replace slot 1's column and apply the product-form update.
        let newcol = vec![0.0, 2.0, 1.0, 0.0, -1.0];
        let mut v = newcol.clone();
        let mut w = vec![0.0; m];
        f.ftran(&mut v, &mut w);
        assert!(f.update(1, &w));
        assert_eq!(f.eta_count(), 1);
        cols[1] = newcol;
        let b = vec![0.3, 1.0, -0.7, 2.0, 0.9];
        let mut bv = b.clone();
        let mut out = vec![0.0; m];
        f.ftran(&mut bv, &mut out);
        assert_close(&out, &dense_solve(&rows_of(&cols), &b));
        let mut cv = b.clone();
        f.btran(&mut cv, &mut out);
        assert_close(&out, &dense_solve(&cols.to_vec(), &b));
    }

    #[test]
    fn identity_and_diagonal_resets() {
        let mut f = BasisFactor::new();
        f.reset_identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut v = b.clone();
        let mut out = vec![0.0; 4];
        f.ftran(&mut v, &mut out);
        assert_close(&out, &b);
        f.reset_diagonal(&[1.0, -1.0, 1.0, -1.0]);
        let mut v = b.clone();
        f.ftran(&mut v, &mut out);
        assert_close(&out, &[1.0, -2.0, 3.0, -4.0]);
        let mut c = b.clone();
        f.btran(&mut c, &mut out);
        assert_close(&out, &[1.0, -2.0, 3.0, -4.0]);
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Duplicate columns.
        let cols = vec![
            vec![1.0, 2.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 1.0],
        ];
        let (m, ptr, rows, vals) = to_csc(&cols);
        let mut f = BasisFactor::new();
        assert!(!f.factorize(m, &ptr, &rows, &vals));
        // Structurally empty column.
        let cols = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let (m, ptr, rows, vals) = to_csc(&cols);
        assert!(!f.factorize(m, &ptr, &rows, &vals));
    }

    #[test]
    fn adaptive_fill_trigger_fires_before_the_pivot_cap() {
        // An identity basis has lu_nnz == m; dense eta updates blow past
        // the fill limit after a handful of pivots, far before the
        // REFACTOR_EVERY cap.
        let m = 16;
        let mut f = BasisFactor::new();
        f.reset_identity(m);
        let w: Vec<f64> = (0..m).map(|i| 1.0 + i as f64 * 0.1).collect();
        let mut updates = 0;
        while !f.needs_refactor() {
            assert!(f.update(updates % m, &w));
            updates += 1;
            assert!(updates <= REFACTOR_EVERY, "fill trigger never fired");
        }
        assert!(
            updates <= REFACTOR_FILL_LIMIT + 2,
            "dense updates should trip the fill trigger almost immediately, took {updates}"
        );
        assert!(updates < REFACTOR_EVERY);
        // Sparse eta updates only hit the pivot-count cap — pick a
        // dimension large enough that the fill budget (a multiple of the
        // basis size) outlasts REFACTOR_EVERY single-nonzero etas.
        let m = 2 * REFACTOR_EVERY / REFACTOR_FILL_LIMIT;
        f.reset_identity(m);
        let mut sparse_w = vec![0.0; m];
        sparse_w[3] = 2.0;
        let mut updates = 0;
        while !f.needs_refactor() {
            assert!(f.update(3, &sparse_w));
            updates += 1;
        }
        assert_eq!(updates, REFACTOR_EVERY);
    }

    #[test]
    fn fill_ratio_reports_lu_over_basis_nonzeros() {
        let cols = sample_cols();
        let (m, ptr, rows, vals) = to_csc(&cols);
        let mut f = BasisFactor::new();
        assert!(f.factorize(m, &ptr, &rows, &vals));
        assert!(f.fill_ratio() >= 1.0 - 1e-12, "ratio {}", f.fill_ratio());
        assert!(f.lu_nnz() >= 5);
        assert_eq!(f.eta_count(), 0);
    }
}
