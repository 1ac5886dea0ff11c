//! The per-thread scratch state of the GED hot path.
//!
//! A [`GedWorkspace`] owns every reusable buffer one thread needs to run
//! GEDGW solves ([`crate::gedgw::Gedgw::solve_in`]), branch bounds
//! ([`crate::lower_bound::branch_lower_bound_in`]), and τ-bounded exact
//! verification ([`crate::search::bounded_exact_ged_with_budget_in`])
//! back to back: the OT/Frank–Wolfe buffers of
//! [`ged_ot::OtWorkspace`], the GEDGW problem matrices, a pair of
//! [`ged_graph::CsrView`]s the search and cost-matrix readers iterate,
//! the mark/label scratch of the A\* bounds, its anchored LSAP bound and
//! its open list and state arena, and the autodiff-tape buffers
//! of GEDIOT's forward pass ([`crate::gediot::Gediot::predict_in`]).
//!
//! Batched drivers keep one workspace per worker thread
//! (`BatchRunner::map_init`) so a store-level query allocates
//! `O(threads)` instead of `O(pairs)`. Every `_in` entry point fully
//! re-initializes the state it reads, so a workspace left dirty by any
//! previous call — including one over differently-sized graphs — is
//! always safe to reuse, and the results are bit-identical to the
//! allocating entry points.

use crate::lower_bound::AnchoredScratch;
use crate::search::SearchState;
use ged_graph::{CsrView, Label};
use ged_linalg::Matrix;
use ged_nn::TapePool;
use ged_ot::OtWorkspace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable scratch for the GEDGW + exact-search hot path. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct GedWorkspace {
    /// Scratch for the Sinkhorn / conditional-gradient / LSAP kernels.
    pub ot: OtWorkspace,
    // GEDGW problem state: cost matrix, padded adjacencies, coupling,
    // negated coupling (for the best-matching rounding LSAP).
    pub(crate) m: Matrix,
    pub(crate) a1: Matrix,
    pub(crate) a2: Matrix,
    pub(crate) pi: Matrix,
    pub(crate) neg: Matrix,
    // Flat adjacency views of the current (ordered) pair.
    pub(crate) csr1: CsrView,
    pub(crate) csr2: CsrView,
    // A* bound scratch: node marks and sorted label/degree multisets.
    pub(crate) used: Vec<bool>,
    pub(crate) matched: Vec<bool>,
    pub(crate) rest1: Vec<Label>,
    pub(crate) rest2: Vec<Label>,
    pub(crate) deg1: Vec<usize>,
    pub(crate) deg2: Vec<usize>,
    // The anchored LSAP bound's per-node counts (its matrix is `m`).
    pub(crate) anchored: AnchoredScratch,
    // A* search state: the open list, the states and their mappings
    // (state `i` maps G1's first `depth` nodes to
    // `arena[start..start + depth]`), and the child being scored.
    pub(crate) open: BinaryHeap<Reverse<(usize, usize, usize)>>,
    pub(crate) states: Vec<SearchState>,
    pub(crate) arena: Vec<u32>,
    pub(crate) child: Vec<u32>,
    // GEDIOT: the buffers of the last forward pass's tape.
    pub(crate) tape: TapePool,
}

impl GedWorkspace {
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
