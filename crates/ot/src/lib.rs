//! Optimal transport kernels for `ot-ged`.
//!
//! * [`mod@sinkhorn`] — entropic OT (Algorithm 1 of the paper) in plain and
//!   log-domain form, plus the dummy-row extension of Section 4.2 that turns
//!   the inequality-constrained node-matching polytope into a standard
//!   transport polytope;
//! * [`exact`] — exact OT on the assignment polytope via LSAP (with uniform
//!   unit marginals the Birkhoff polytope has permutation vertices, so the
//!   linear program reduces to an assignment problem);
//! * [`gw`] — the Gromov–Wasserstein machinery: the 4th-order tensor product
//!   `L(C1,C2) ⊗ π` evaluated via the Peyré–Cuturi–Solomon decomposition,
//!   over the nonzeros of `C1` and `C2` (`O(n²·d̄)` for graphs of mean
//!   degree `d̄`);
//! * [`cg`] — the conditional-gradient (Frank–Wolfe) solver used by GEDGW
//!   (Algorithm 2), with exact line search for the quadratic objective;
//! * [`workspace`] — reusable scratch buffers ([`OtWorkspace`]) behind the
//!   allocation-free `_in` entry points of the kernels above.

#![warn(missing_docs)]

pub mod cg;
pub mod exact;
pub mod gw;
pub mod sinkhorn;
pub mod workspace;

pub use cg::{conditional_gradient, conditional_gradient_in, CgOptions, CgResult, CgRun};
pub use exact::exact_ot_assignment;
pub use gw::{gw_objective, gw_tensor_apply};
pub use sinkhorn::{
    sinkhorn, sinkhorn_dummy_row, sinkhorn_dummy_row_in, sinkhorn_in, sinkhorn_log,
    sinkhorn_log_in, SinkhornResult,
};
pub use workspace::OtWorkspace;
