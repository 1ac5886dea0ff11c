//! A small tape-based reverse-mode autodiff engine and the neural layers
//! used by GEDIOT and the neural baselines.
//!
//! Design notes:
//!
//! * [`tape::Tape`] records an enum-op computation graph over dense
//!   [`ged_linalg::Matrix`] values; no closures, no lifetimes in user code —
//!   a [`tape::Var`] is just an index. A fresh tape is built per forward
//!   pass (define-by-run), matching how the per-pair GED models work; its
//!   buffers come from a [`tape::TapePool`] the previous tape handed back,
//!   so repeated passes stop allocating.
//! * Every operation's gradient is validated against central finite
//!   differences in this crate's test suite (Invariant E of DESIGN.md).
//! * [`params::ParamStore`] owns the trainable matrices across tapes;
//!   [`optim::Adam`] consumes gradients read back from a tape.
//! * [`layers`] builds the paper's building blocks on top: `Linear`, `Mlp`,
//!   GIN convolutions (Eq. 8), attention pooling (Eq. 13), and the neural
//!   tensor network (Eq. 14).

#![warn(missing_docs)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod tape;

pub use layers::{AttentionPool, GinLayer, Linear, Mlp, Ntn};
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use tape::{Tape, TapePool, Var};
