//! Linear sum assignment (LSAP).
//!
//! Two independent `O(n³)` solvers:
//!
//! * [`lsap_min`] — shortest augmenting path with dual potentials, the
//!   algorithmic core of Jonker–Volgenant / "VJ" [Fankhauser et al. 2011];
//! * [`lsap_min_munkres`] — the classical Munkres (Hungarian) star/prime
//!   algorithm [Munkres 1957], the core of the "Hungarian" GED baseline
//!   [Riesen & Bunke 2009].
//!
//! Both accept rectangular cost matrices with `rows <= cols` and assign
//! every row to a distinct column. [`lsap_min_constrained`] additionally
//! supports forced and forbidden pairs, which is what the k-best matching
//! framework needs for solution-space splitting.
//!
//! [`lsap_min_into`] is the linear minimization oracle of GEDGW's
//! conditional gradient (one call per Frank–Wolfe step) and the largest
//! kernel of a GEDGW solve; it leaves the assignment in the workspace, so
//! a warm call allocates nothing. Its Dijkstra steps keep the free and used
//! columns as lists, so a step scans only the columns still free; the
//! arithmetic and the tie-breaking (lowest column index among equal
//! distances) are those of the textbook sweep over all columns, so
//! results are bit-identical to it. At the barycenter start of conditional
//! gradient the gradients are full of ties, and another exact solver could
//! return another optimal permutation there and change the trajectory.
//!
//! Both solvers terminate on every input. NaN and `+∞` entries act as
//! `+∞`; a row that can reach no free column at finite cost takes the
//! lowest free column (see each function for the exact rule), which only
//! happens when no assignment has a finite cost. The constrained solve
//! instead prices NaN entries finitely, below its forbidden entries, so a
//! NaN is never mistaken for a forbidden pair.

use crate::matrix::Matrix;
use crate::workspace::{reset, LsapWorkspace, MatchingWorkspace};

/// Sentinel cost for forbidden assignments. Large enough to dominate any
/// realistic objective, small enough that sums stay finite.
pub const FORBIDDEN: f64 = 1e15;

/// A row-to-column assignment and its total cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// `row_to_col[i]` is the column assigned to row `i`.
    pub row_to_col: Vec<usize>,
    /// Sum of the selected cost entries.
    pub cost: f64,
}

impl Assignment {
    /// Recomputes the cost of this assignment under a (possibly different)
    /// cost matrix.
    #[must_use]
    pub fn cost_under(&self, cost: &Matrix) -> f64 {
        self.row_to_col
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[(r, c)])
            .sum()
    }

    /// True if no selected entry is forbidden.
    #[must_use]
    pub fn is_feasible(&self, cost: &Matrix) -> bool {
        self.row_to_col
            .iter()
            .enumerate()
            .all(|(r, &c)| cost[(r, c)] < FORBIDDEN / 2.0)
    }
}

/// Minimum-cost assignment via shortest augmenting paths with potentials
/// (Jonker–Volgenant style). `rows <= cols` required.
///
/// Allocates fresh scratch per call; hot loops should hold a
/// [`LsapWorkspace`] and call [`lsap_min_in`] instead.
///
/// # Panics
/// Panics if `rows > cols` or the matrix is empty with nonzero rows.
#[must_use]
pub fn lsap_min(cost: &Matrix) -> Assignment {
    lsap_min_in(cost, &mut LsapWorkspace::new())
}

/// [`lsap_min`] with caller-provided scratch buffers. Bit-identical to
/// the allocating version for any (possibly dirty) workspace.
///
/// Rows are inserted one at a time. Each insertion runs Dijkstra over
/// the columns on reduced costs `c[i][j] - u[i] - v[j]`: every step scans
/// the *free* columns (not yet reached from the new row), relaxes their
/// tentative distances `minv`, and moves the nearest one to the *used*
/// set. The potentials then shift by that distance: `u`/`v` over the used
/// columns, `minv` over the free ones (that subtraction is done as the
/// next step's scan loads each `minv`). The search ends at an unmatched
/// column and the path is flipped. The two column sets are kept as lists
/// in [`LsapWorkspace`] (free ones in ascending order, used ones in
/// marking order), so a step touches only the columns it updates; the
/// strict `<` over ascending free columns picks the lowest-index nearest
/// column, and every potential receives the same operations as in the
/// textbook sweep over all `0..=m` columns.
///
/// Non-finite costs: NaN and `+∞` entries are never chosen by the scan,
/// so they act as `+∞`. When no free column has a finite distance (a row
/// that cannot reach any free column, as in an all-`+∞` or all-NaN row),
/// the step takes the lowest free column and leaves the potentials
/// unchanged, so the solve always terminates. Inputs with a finite
/// optimum never reach this rule.
///
/// # Panics
/// Panics if `rows > cols` or the matrix is empty with nonzero rows.
#[must_use]
pub fn lsap_min_in(cost: &Matrix, ws: &mut LsapWorkspace) -> Assignment {
    let total = lsap_min_into(cost, ws);
    Assignment {
        row_to_col: ws.row_to_col.clone(),
        cost: total,
    }
}

/// [`lsap_min_in`] without the returned vector: the assignment is left in
/// the workspace ([`LsapWorkspace::row_to_col`]) and the cost is
/// returned, so a warm call allocates nothing. Same solve, same bits.
///
/// # Panics
/// Panics if `rows > cols`.
pub fn lsap_min_into(cost: &Matrix, ws: &mut LsapWorkspace) -> f64 {
    let n = cost.rows();
    let m = cost.cols();
    assert!(n <= m, "lsap_min requires rows <= cols (got {n}x{m})");
    ws.row_to_col.clear();
    if n == 0 {
        return 0.0;
    }

    // 1-indexed arrays, following the classical potentials formulation;
    // column 0 is the virtual root of every search.
    let inf = f64::INFINITY;
    reset(&mut ws.u, n + 1, 0.0);
    reset(&mut ws.v, m + 1, 0.0);
    reset(&mut ws.p, m + 1, 0usize); // p[j] = row matched to column j (0 = none)
    reset(&mut ws.way, m + 1, 0usize);
    reset(&mut ws.minv, m + 1, inf);
    let LsapWorkspace {
        u,
        v,
        p,
        way,
        minv,
        free_cols: free,
        used_cols: used,
        row_to_col,
        ..
    } = ws;
    // Exact-length views let the optimizer drop most bounds checks.
    let (v, way, minv) = (&mut v[..=m], &mut way[..=m], &mut minv[..=m]);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv[1..].fill(inf);
        free.clear();
        free.extend(1..=m);
        used.clear();
        // The previous step's `minv[j] -= delta` over the free columns,
        // applied when the next scan loads `minv[j]` (the same subtraction
        // on the same value; after the last step `minv` is dead).
        let mut shift = 0.0;
        loop {
            used.push(j0);
            let i0 = p[j0];
            let ui0 = u[i0];
            let row = &cost.row(i0 - 1)[..m];
            let mut delta = inf;
            let mut pos1 = usize::MAX;
            for (pos, &j) in free.iter().enumerate() {
                let mut dist = minv[j] - shift;
                let cur = row[j - 1] - ui0 - v[j];
                if cur < dist {
                    dist = cur;
                    way[j] = j0;
                }
                minv[j] = dist;
                if dist < delta {
                    delta = dist;
                    pos1 = pos;
                }
            }
            if pos1 == usize::MAX {
                // No free column is reachable at finite cost: take the
                // lowest one and leave the potentials unchanged.
                pos1 = 0;
                way[free[0]] = j0;
                shift = 0.0;
            } else {
                for &j in used.iter() {
                    u[p[j]] += delta;
                    v[j] -= delta;
                }
                shift = delta;
            }
            j0 = free.remove(pos1);
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    row_to_col.resize(n, usize::MAX);
    for j in 1..=m {
        if p[j] > 0 {
            row_to_col[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(row_to_col.iter().all(|&c| c != usize::MAX));
    row_to_col
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[(r, c)])
        .sum()
}

/// Minimum-cost assignment via the classical Munkres star/prime algorithm.
/// Rectangular inputs (`rows <= cols`) are padded internally with zero-cost
/// dummy rows.
///
/// Non-finite costs: when no uncovered entry is finite, no completion of
/// the current stars has a finite cost, and each unstarred row takes the
/// lowest unstarred column, so the solve always terminates. Inputs with a
/// finite optimum never reach this rule.
///
/// Allocates fresh scratch per call; hot loops should hold a
/// [`LsapWorkspace`] and call [`lsap_min_munkres_in`] instead.
///
/// # Panics
/// Panics if `rows > cols`.
#[must_use]
pub fn lsap_min_munkres(cost: &Matrix) -> Assignment {
    lsap_min_munkres_in(cost, &mut LsapWorkspace::new())
}

/// [`lsap_min_munkres`] with caller-provided scratch buffers.
/// Bit-identical to the allocating version for any (possibly dirty)
/// workspace.
///
/// # Panics
/// Panics if `rows > cols`.
#[must_use]
pub fn lsap_min_munkres_in(cost: &Matrix, ws: &mut LsapWorkspace) -> Assignment {
    let n = cost.rows();
    let m = cost.cols();
    assert!(
        n <= m,
        "lsap_min_munkres requires rows <= cols (got {n}x{m})"
    );
    if n == 0 {
        return Assignment {
            row_to_col: Vec::new(),
            cost: 0.0,
        };
    }
    // Pad to square with zero rows (dummy rows absorb the extra columns).
    let size = m;
    let c = &mut ws.square;
    c.resize_zeroed(size, size);
    for r in 0..n {
        c.row_mut(r).copy_from_slice(cost.row(r));
    }
    // Shift to non-negative (Munkres assumes >= 0 costs for its zero-cover
    // reasoning). The shift changes the total by a constant per row.
    let min_val = c.min();
    if min_val < 0.0 {
        for x in c.as_mut_slice() {
            *x -= min_val;
        }
    }

    // Step 1: subtract row minima.
    for r in 0..size {
        let row = c.row_mut(r);
        let mn = row.iter().copied().fold(f64::INFINITY, f64::min);
        for x in row {
            *x -= mn;
        }
    }

    reset(&mut ws.starred, size, usize::MAX); // row -> starred col
    reset(&mut ws.star_col, size, usize::MAX); // col -> starred row
    reset(&mut ws.primed, size, usize::MAX); // row -> primed col
    reset(&mut ws.row_covered, size, false);
    reset(&mut ws.col_covered, size, false);
    let starred = &mut ws.starred;
    let star_col = &mut ws.star_col;
    let primed = &mut ws.primed;
    let row_covered = &mut ws.row_covered;
    let col_covered = &mut ws.col_covered;
    let path = &mut ws.path;

    // Step 2: greedy initial stars.
    for r in 0..size {
        for cc in 0..size {
            if c[(r, cc)] == 0.0 && starred[r] == usize::MAX && star_col[cc] == usize::MAX {
                starred[r] = cc;
                star_col[cc] = r;
            }
        }
    }

    'solve: loop {
        // Step 3: cover columns containing stars.
        for cc in 0..size {
            col_covered[cc] = star_col[cc] != usize::MAX;
        }
        if col_covered.iter().filter(|&&x| x).count() == size {
            break;
        }

        'step4: loop {
            // Step 4: find an uncovered zero and prime it.
            let mut found: Option<(usize, usize)> = None;
            'search: for r in 0..size {
                if row_covered[r] {
                    continue;
                }
                for cc in 0..size {
                    if !col_covered[cc] && c[(r, cc)] == 0.0 {
                        found = Some((r, cc));
                        break 'search;
                    }
                }
            }
            match found {
                Some((r, cc)) => {
                    primed[r] = cc;
                    if starred[r] == usize::MAX {
                        // Step 5: augmenting path of alternating primes/stars.
                        path.clear();
                        path.push((r, cc));
                        loop {
                            let col = path.last().unwrap().1;
                            let sr = star_col[col];
                            if sr == usize::MAX {
                                break;
                            }
                            path.push((sr, col));
                            let pc = primed[sr];
                            path.push((sr, pc));
                        }
                        // Flip: unstar stars, star primes along the path.
                        for (idx, &(pr, pc)) in path.iter().enumerate() {
                            if idx % 2 == 0 {
                                starred[pr] = pc;
                                star_col[pc] = pr;
                            }
                        }
                        // Fix star_col consistency for unstarred entries.
                        for (cc2, sc) in star_col.iter_mut().enumerate() {
                            if *sc != usize::MAX && starred[*sc] != cc2 {
                                *sc = usize::MAX;
                            }
                        }
                        for (r2, &sc) in starred.iter().enumerate() {
                            if sc != usize::MAX {
                                star_col[sc] = r2;
                            }
                        }
                        row_covered.iter_mut().for_each(|x| *x = false);
                        col_covered.iter_mut().for_each(|x| *x = false);
                        primed.iter_mut().for_each(|x| *x = usize::MAX);
                        break 'step4;
                    }
                    // Cover this row, uncover the starred column.
                    row_covered[r] = true;
                    col_covered[starred[r]] = false;
                }
                None => {
                    // Step 6: adjust by the minimum uncovered value.
                    let mut mn = f64::INFINITY;
                    for r in 0..size {
                        if row_covered[r] {
                            continue;
                        }
                        for cc in 0..size {
                            if !col_covered[cc] {
                                mn = mn.min(c[(r, cc)]);
                            }
                        }
                    }
                    if mn == f64::INFINITY {
                        // No uncovered entry is finite, so no assignment
                        // extending the stars has a finite cost: give each
                        // unstarred row the lowest unstarred column.
                        for (r, sc) in starred.iter_mut().enumerate() {
                            if *sc == usize::MAX {
                                let cc = star_col.iter().position(|&sr| sr == usize::MAX);
                                let cc = cc.expect("as many columns as rows");
                                *sc = cc;
                                star_col[cc] = r;
                            }
                        }
                        break 'solve;
                    }
                    for r in 0..size {
                        for cc in 0..size {
                            if row_covered[r] {
                                c[(r, cc)] += mn;
                            }
                            if !col_covered[cc] {
                                c[(r, cc)] -= mn;
                            }
                        }
                    }
                }
            }
        }
    }

    let row_to_col: Vec<usize> = (0..n).map(|r| starred[r]).collect();
    let total = row_to_col
        .iter()
        .enumerate()
        .map(|(r, &cc)| cost[(r, cc)])
        .sum();
    Assignment {
        row_to_col,
        cost: total,
    }
}

/// Constrained minimum-cost assignment with forced and forbidden pairs.
///
/// Forced pairs fix `row -> col`; forbidden pairs may not be used. Returns
/// `None` if the constraints are contradictory or no feasible assignment
/// exists (i.e. the optimum would need a forbidden entry).
///
/// NaN entries are allowed, not forbidden: the solve prices each at
/// `FORBIDDEN / (2 (r + 1))` for `r` unforced rows, above any realistic
/// cost and, all of them together, below one forbidden entry. So on an
/// all-NaN matrix the result is `None` only when the constraints leave no
/// assignment at all; otherwise its cost (taken from `cost`) is NaN.
///
/// Allocates fresh scratch per call; hot loops (the k-best matching
/// framework issues `O(k · n)` of these) should hold a
/// [`MatchingWorkspace`] and call [`lsap_min_constrained_in`] instead.
#[must_use]
pub fn lsap_min_constrained(
    cost: &Matrix,
    forced: &[(usize, usize)],
    forbidden: &[(usize, usize)],
) -> Option<Assignment> {
    lsap_min_constrained_in(cost, forced, forbidden, &mut MatchingWorkspace::new())
}

/// [`lsap_min_constrained`] with caller-provided scratch buffers.
/// Bit-identical to the allocating version for any (possibly dirty)
/// workspace.
#[must_use]
pub fn lsap_min_constrained_in(
    cost: &Matrix,
    forced: &[(usize, usize)],
    forbidden: &[(usize, usize)],
    ws: &mut MatchingWorkspace,
) -> Option<Assignment> {
    let n = cost.rows();
    let m = cost.cols();
    let MatchingWorkspace {
        lsap,
        red,
        forced_row,
        forced_col,
        free_rows,
        free_cols,
        ..
    } = ws;
    // Validate forced set: unique rows/cols, not forbidden.
    reset(forced_row, n, usize::MAX);
    reset(forced_col, m, usize::MAX);
    for &(r, c) in forced {
        if r >= n || c >= m {
            return None;
        }
        if forced_row[r] != usize::MAX || forced_col[c] != usize::MAX {
            return None;
        }
        if forbidden.contains(&(r, c)) {
            return None;
        }
        forced_row[r] = c;
        forced_col[c] = r;
    }

    // Reduced problem over free rows/cols.
    free_rows.clear();
    free_rows.extend((0..n).filter(|&r| forced_row[r] == usize::MAX));
    free_cols.clear();
    free_cols.extend((0..m).filter(|&c| forced_col[c] == usize::MAX));
    if free_rows.len() > free_cols.len() {
        return None;
    }

    // A NaN entry gets a finite price below `FORBIDDEN / 2`, so the search
    // prefers it to a forbidden entry and `is_feasible` accepts it (the
    // search itself would rank NaN above every finite cost, `FORBIDDEN`
    // included).
    let nan_cost = FORBIDDEN / (2.0 * (free_rows.len() + 1) as f64);
    red.resize_zeroed(free_rows.len(), free_cols.len());
    for (i, &fr) in free_rows.iter().enumerate() {
        let row = red.row_mut(i);
        for (j, &fc) in free_cols.iter().enumerate() {
            let x = cost[(fr, fc)];
            row[j] = if x.is_nan() { nan_cost } else { x };
        }
    }
    for &(r, c) in forbidden {
        if r >= n || c >= m {
            continue;
        }
        if let (Ok(i), Ok(j)) = (free_rows.binary_search(&r), free_cols.binary_search(&c)) {
            red[(i, j)] = FORBIDDEN;
        }
    }

    let sub = lsap_min_in(red, lsap);
    if !sub.is_feasible(red) {
        return None;
    }

    let mut row_to_col = vec![usize::MAX; n];
    for (r, &c) in forced_row
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != usize::MAX)
    {
        row_to_col[r] = c;
    }
    for (i, &j) in sub.row_to_col.iter().enumerate() {
        row_to_col[free_rows[i]] = free_cols[j];
    }
    let total = row_to_col
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[(r, c)])
        .sum();
    Some(Assignment {
        row_to_col,
        cost: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force minimum over all injective row->col maps.
    fn brute_force(cost: &Matrix) -> f64 {
        fn rec(cost: &Matrix, r: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if r == cost.rows() {
                *best = best.min(acc);
                return;
            }
            for c in 0..cost.cols() {
                if !used[c] {
                    used[c] = true;
                    rec(cost, r + 1, used, acc + cost[(r, c)], best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(cost, 0, &mut vec![false; cost.cols()], 0.0, &mut best);
        best
    }

    /// The textbook body of [`lsap_min_in`]: every Dijkstra step sweeps
    /// all columns with a `used` flag. Returns the assignment and the final
    /// potentials `(u, v)`. It loops forever on a row with no finite
    /// reduced cost, so it is fed only inputs that have a finite optimum.
    fn lsap_min_sweep(cost: &Matrix) -> (Assignment, Vec<f64>, Vec<f64>) {
        let n = cost.rows();
        let m = cost.cols();
        let inf = f64::INFINITY;
        let mut u = vec![0.0; n + 1];
        let mut v = vec![0.0; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(inf);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = inf;
                let mut j1 = 0usize;
                let row = cost.row(i0 - 1);
                for j in 1..=m {
                    if !used[j] {
                        let cur = row[j - 1] - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut row_to_col = vec![usize::MAX; n];
        for j in 1..=m {
            if p[j] > 0 {
                row_to_col[p[j] - 1] = j - 1;
            }
        }
        let total = row_to_col
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[(r, c)])
            .sum();
        let a = Assignment {
            row_to_col,
            cost: total,
        };
        (a, u, v)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn free_list_solver_is_bit_identical_to_the_sweep() {
        let mut rng = SmallRng::seed_from_u64(19);
        // One workspace for every case, dirtied by the previous shape.
        let mut ws = LsapWorkspace::new();
        for trial in 0..3_000 {
            let n = rng.gen_range(1..=12);
            let m = if rng.gen_bool(0.5) {
                n
            } else {
                rng.gen_range(n..=n + 5)
            };
            let c = match trial % 6 {
                // Continuous random costs, either sign.
                0 => Matrix::from_fn(n, m, |_, _| rng.gen_range(-3.0..3.0)),
                // 0/1 costs, like GEDGW's label-mismatch matrix.
                1 => Matrix::from_fn(n, m, |_, _| f64::from(u8::from(rng.gen_bool(0.5)))),
                // All ties.
                2 => Matrix::from_fn(n, m, |_, _| 0.25),
                // Few distinct values, with FORBIDDEN entries.
                3 => {
                    let mut c = Matrix::from_fn(n, m, |_, _| f64::from(rng.gen_range(0..4u8)));
                    for r in 0..n {
                        if rng.gen_bool(0.4) {
                            c[(r, rng.gen_range(0..m))] = FORBIDDEN;
                        }
                    }
                    c
                }
                // Signed zeros and small ties.
                4 => Matrix::from_fn(n, m, |_, _| match rng.gen_range(0..4) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 0.5,
                    _ => -0.5,
                }),
                // CG-like: a 0/1 matrix plus a multiple of 1/m.
                _ => Matrix::from_fn(n, m, |_, _| {
                    f64::from(u8::from(rng.gen_bool(0.6)))
                        + f64::from(rng.gen_range(0..4u8)) / m as f64
                }),
            };
            let (want, u, v) = lsap_min_sweep(&c);
            let got = lsap_min_in(&c, &mut ws);
            assert_eq!(got.row_to_col, want.row_to_col, "trial {trial}: {c:?}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "trial {trial}");
            assert_eq!(bits(&ws.u[..=n]), bits(&u), "trial {trial}: u");
            assert_eq!(bits(&ws.v[..=m]), bits(&v), "trial {trial}: v");
        }
    }

    fn assert_valid(a: &Assignment, n: usize, m: usize) {
        assert_eq!(a.row_to_col.len(), n);
        let mut seen = vec![false; m];
        for &c in &a.row_to_col {
            assert!(c < m);
            assert!(!seen[c], "column {c} used twice");
            seen[c] = true;
        }
    }

    #[test]
    fn known_square_case() {
        // Classic example: optimal = 5 (0->1:1, 1->0:2, 2->2:2).
        let c = Matrix::from_vec(3, 3, vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0]);
        let a = lsap_min(&c);
        assert_eq!(a.cost, 5.0);
        let b = lsap_min_munkres(&c);
        assert_eq!(b.cost, 5.0);
    }

    #[test]
    fn rectangular_case() {
        let c = Matrix::from_vec(2, 4, vec![10.0, 2.0, 8.0, 7.0, 3.0, 9.0, 9.0, 1.0]);
        let a = lsap_min(&c);
        assert_valid(&a, 2, 4);
        assert_eq!(a.cost, 3.0); // 0->1 (2), 1->3 (1)
        assert_eq!(lsap_min_munkres(&c).cost, 3.0);
    }

    #[test]
    fn solvers_agree_with_brute_force_random() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..200 {
            let n = rng.gen_range(1..=6);
            let m = rng.gen_range(n..=7);
            let c = Matrix::from_fn(n, m, |_, _| (rng.gen_range(-10..=10) as f64) * 0.5);
            let want = brute_force(&c);
            let jv = lsap_min(&c);
            let mk = lsap_min_munkres(&c);
            assert_valid(&jv, n, m);
            assert_valid(&mk, n, m);
            assert!(
                (jv.cost - want).abs() < 1e-9,
                "trial {trial}: jv {} want {want}",
                jv.cost
            );
            assert!(
                (mk.cost - want).abs() < 1e-9,
                "trial {trial}: munkres {} want {want}",
                mk.cost
            );
        }
    }

    #[test]
    fn negative_costs_handled() {
        let c = Matrix::from_vec(2, 2, vec![-5.0, -1.0, -2.0, -4.0]);
        assert_eq!(lsap_min(&c).cost, -9.0);
        assert_eq!(lsap_min_munkres(&c).cost, -9.0);
    }

    #[test]
    fn empty_problem() {
        let c = Matrix::zeros(0, 0);
        assert_eq!(lsap_min(&c).cost, 0.0);
        assert_eq!(lsap_min_munkres(&c).cost, 0.0);
    }

    #[test]
    fn constrained_forced_pair() {
        let c = Matrix::from_vec(3, 3, vec![1.0, 9.0, 9.0, 9.0, 1.0, 9.0, 9.0, 9.0, 1.0]);
        // Force the bad pair 0->1 (cost 9): rows 1,2 then take cols {0,2}
        // optimally as 1->0 (9), 2->2 (1), total 19.
        let a = lsap_min_constrained(&c, &[(0, 1)], &[]).unwrap();
        assert_eq!(a.row_to_col[0], 1);
        assert_eq!(a.cost, 19.0);
    }

    #[test]
    fn constrained_forbidden_pair() {
        let c = Matrix::from_vec(2, 2, vec![1.0, 5.0, 5.0, 1.0]);
        let a = lsap_min_constrained(&c, &[], &[(0, 0)]).unwrap();
        assert_eq!(a.cost, 10.0);
        // Forbid both of row 0's entries -> infeasible.
        assert!(lsap_min_constrained(&c, &[], &[(0, 0), (0, 1)]).is_none());
    }

    #[test]
    fn constrained_contradictions() {
        let c = Matrix::zeros(2, 2);
        // Duplicate forced row.
        assert!(lsap_min_constrained(&c, &[(0, 0), (0, 1)], &[]).is_none());
        // Forced pair that is also forbidden.
        assert!(lsap_min_constrained(&c, &[(0, 0)], &[(0, 0)]).is_none());
    }

    #[test]
    fn constrained_matches_filtered_brute_force() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let n = rng.gen_range(2..=5);
            let m = rng.gen_range(n..=6);
            let c = Matrix::from_fn(n, m, |_, _| rng.gen_range(0..20) as f64);
            let fr = rng.gen_range(0..n);
            let fc = rng.gen_range(0..m);
            let ban = (rng.gen_range(0..n), rng.gen_range(0..m));
            if ban == (fr, fc) {
                continue;
            }
            // Brute force with constraints.
            let mut best = f64::INFINITY;
            fn rec(
                cost: &Matrix,
                r: usize,
                used: &mut Vec<bool>,
                acc: f64,
                best: &mut f64,
                forced: (usize, usize),
                ban: (usize, usize),
            ) {
                if r == cost.rows() {
                    *best = (*best).min(acc);
                    return;
                }
                for c in 0..cost.cols() {
                    if used[c] || (r, c) == ban {
                        continue;
                    }
                    if r == forced.0 && c != forced.1 {
                        continue;
                    }
                    if c == forced.1 && r != forced.0 {
                        continue;
                    }
                    used[c] = true;
                    rec(cost, r + 1, used, acc + cost[(r, c)], best, forced, ban);
                    used[c] = false;
                }
            }
            rec(&c, 0, &mut vec![false; m], 0.0, &mut best, (fr, fc), ban);
            let got = lsap_min_constrained(&c, &[(fr, fc)], &[ban]);
            match got {
                Some(a) => {
                    assert!((a.cost - best).abs() < 1e-9, "got {} want {best}", a.cost);
                    assert_eq!(a.row_to_col[fr], fc);
                    assert_ne!(a.row_to_col[ban.0], ban.1);
                }
                None => assert!(best.is_infinite()),
            }
        }
    }
}
