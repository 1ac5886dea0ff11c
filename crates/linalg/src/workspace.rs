//! Reusable scratch buffers for the LSAP solvers.
//!
//! The assignment solvers are the innermost kernel of every GED method —
//! a single GEDGW solve calls LSAP once per Frank–Wolfe iteration, and a
//! batched query calls GEDGW once per surviving candidate. Allocating the
//! dual/potential/cover buffers per call makes malloc the dominant cost
//! at this problem's matrix sizes (tens of rows). A [`LsapWorkspace`]
//! owns those buffers; the `_in` entry points ([`crate::lsap_min_in`],
//! [`crate::lsap_min_munkres_in`]) reuse them across calls and are
//! bit-identical to the allocating versions, which remain as thin
//! wrappers.
//!
//! Workspaces are plain owned data: keep one per thread (see
//! `BatchRunner::map_init` in `ged-core`) and hand it to every solve on
//! that thread. A "dirty" workspace left over from a previous call of any
//! shape is always safe to reuse — every entry point fully re-initializes
//! the prefix it reads.

use crate::matrix::Matrix;

/// Scratch buffers for [`crate::lsap_min`] (Jonker–Volgenant) and
/// [`crate::lsap_min_munkres`]. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct LsapWorkspace {
    // Jonker–Volgenant: dual potentials, matching, augmenting-path state.
    pub(crate) u: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) p: Vec<usize>,
    pub(crate) way: Vec<usize>,
    pub(crate) minv: Vec<f64>,
    // The current row's Dijkstra sets: columns not yet reached, in
    // ascending order (the scan visits only these, and shifts their
    // `minv`), and columns reached, in the order they were marked (the
    // `u`/`v` update runs over these). Column 0, the root of every
    // search, is the first used column.
    pub(crate) free_cols: Vec<usize>,
    pub(crate) used_cols: Vec<usize>,
    // The last Jonker–Volgenant solve's assignment (row -> column).
    pub(crate) row_to_col: Vec<usize>,
    // Munkres: padded square cost, stars/primes, covers, alternating path.
    pub(crate) square: Matrix,
    pub(crate) starred: Vec<usize>,
    pub(crate) star_col: Vec<usize>,
    pub(crate) primed: Vec<usize>,
    pub(crate) row_covered: Vec<bool>,
    pub(crate) col_covered: Vec<bool>,
    pub(crate) path: Vec<(usize, usize)>,
}

impl LsapWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The assignment of the last [`crate::lsap_min_into`] (or
    /// [`crate::lsap_min_in`]) solve: `row_to_col()[i]` is row `i`'s
    /// column.
    #[must_use]
    pub fn row_to_col(&self) -> &[usize] {
        &self.row_to_col
    }
}

/// Scratch buffers for the constrained-matching layer: the negated weight
/// matrix of [`crate::best_matching_in`], the reduced cost matrix and
/// forced/free bookkeeping of [`crate::lsap_min_constrained_in`], the
/// forbidden-pair scratch of [`crate::second_best_matching_in`], and the
/// [`LsapWorkspace`] the inner solver draws from. One k-best edit-path
/// generation issues `O(k · n)` constrained LSAP solves, so reusing these
/// buffers across the whole generation removes the dominant allocation
/// traffic. See the [module docs](self) for the reuse contract.
#[derive(Clone, Debug, Default)]
pub struct MatchingWorkspace {
    /// Scratch for the inner (unconstrained) LSAP solves.
    pub lsap: LsapWorkspace,
    pub(crate) neg: Matrix,
    pub(crate) red: Matrix,
    pub(crate) forced_row: Vec<usize>,
    pub(crate) forced_col: Vec<usize>,
    pub(crate) free_rows: Vec<usize>,
    pub(crate) free_cols: Vec<usize>,
    pub(crate) forb: Vec<(usize, usize)>,
    pub(crate) forced_rows: Vec<usize>,
}

impl MatchingWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resets `buf` to `len` copies of `value`, reusing its capacity.
pub(crate) fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}
