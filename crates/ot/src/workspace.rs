//! Reusable scratch buffers for the OT kernels.
//!
//! One GEDGW solve runs up to dozens of Frank–Wolfe iterations, each of
//! which evaluates `L ⊗ π` and `L ⊗ Δ` (over adjacency nonzeros collected
//! once per solve, plus five intermediate buffers), a gradient, a
//! direction, a line-search delta, and an LSAP solve — all over matrices
//! with at most a few hundred elements, so per-call allocation dominates
//! the arithmetic. An [`OtWorkspace`] owns every intermediate buffer the
//! Sinkhorn and conditional-gradient kernels need; the `_in` entry points
//! ([`crate::sinkhorn::sinkhorn_in`], [`crate::cg::conditional_gradient_in`],
//! …) reuse them across calls and are bit-identical to the allocating
//! versions, which remain as thin wrappers.
//!
//! Keep one workspace per thread (see `BatchRunner::map_init` in
//! `ged-core`) and hand it to every solve on that thread. A "dirty"
//! workspace left over from a previous call of any shape is always safe
//! to reuse — every entry point fully re-initializes the prefix it reads.

use crate::gw::Nonzeros;
use ged_linalg::{LsapWorkspace, Matrix};

/// Scratch for `L(C1,C2) ⊗ π` evaluations (see [`crate::gw`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct GwScratch {
    /// Nonzeros of `C1`, collected once per solve by `GwScratch::load`.
    pub(crate) c1: Nonzeros,
    /// Nonzeros of `C2`.
    pub(crate) c2: Nonzeros,
    /// Row sums of `π`.
    pub(crate) r: Vec<f64>,
    /// Column sums of `π`.
    pub(crate) c: Vec<f64>,
    /// `t1[i] = Σ_j C1_{i,j}² r_j`.
    pub(crate) t1: Vec<f64>,
    /// `t2[k] = Σ_l C2_{k,l}² c_l`.
    pub(crate) t2: Vec<f64>,
    /// `C1 π` (the third term `C1 π C2ᵀ` is formed entry by entry).
    pub(crate) tmp: Matrix,
}

/// Scratch buffers for the Sinkhorn and conditional-gradient kernels.
/// See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct OtWorkspace {
    /// Scratch for the LSAP solves inside conditional gradient; also
    /// usable directly by callers that interleave LSAP with OT kernels.
    pub lsap: LsapWorkspace,
    // Sinkhorn: kernel matrix, scaling vectors, dummy-row extension.
    pub(crate) kernel: Matrix,
    pub(crate) phi: Vec<f64>,
    pub(crate) psi: Vec<f64>,
    pub(crate) extended: Matrix,
    pub(crate) mu: Vec<f64>,
    pub(crate) nu: Vec<f64>,
    // Log-domain Sinkhorn: log-marginals, dual potentials, logsumexp buf.
    pub(crate) log_mu: Vec<f64>,
    pub(crate) log_nu: Vec<f64>,
    pub(crate) f: Vec<f64>,
    pub(crate) g: Vec<f64>,
    pub(crate) lse: Vec<f64>,
    // Conditional gradient: L⊗π (computed once per iteration and shared
    // by the gradient, the line search and the objective), gradient, LMO
    // direction, line-search delta Δ, and L⊗Δ for the step size.
    pub(crate) gw: GwScratch,
    pub(crate) lpi: Matrix,
    pub(crate) grad: Matrix,
    pub(crate) dir: Matrix,
    pub(crate) delta: Matrix,
    pub(crate) ldelta: Matrix,
    // The objective after each conditional-gradient iteration.
    pub(crate) history: Vec<f64>,
}

impl OtWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The objective value at the start and after each iteration of the
    /// last [`crate::cg::conditional_gradient_in`] run.
    #[must_use]
    pub fn cg_history(&self) -> &[f64] {
        &self.history
    }
}

/// Resets `buf` to `len` copies of `value`, reusing its capacity.
pub(crate) fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}
