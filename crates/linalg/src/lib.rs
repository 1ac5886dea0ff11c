//! Dense linear algebra and linear assignment for `ot-ged`.
//!
//! The matrices in this project are small (a few hundred rows at most) and
//! dense, so [`Matrix`] is a plain row-major `f64` buffer, and its product
//! is a register-tiled kernel with the bits of the `ikj` loop — no BLAS.
//! The one `unsafe` block calls the kernel's AVX2 or AVX-512F copy once
//! run-time detection has found that feature.
//!
//! The [`lsap`] module provides two independent linear-sum-assignment
//! solvers — a Jonker–Volgenant-style shortest-augmenting-path solver (the
//! machinery behind the paper's "VJ" baseline) and a classical Munkres
//! implementation (the "Hungarian" baseline) — plus a constrained variant
//! (forced / forbidden pairs) that powers the k-best matching framework in
//! [`kbest`]. Hot loops reuse scratch buffers across solves through
//! [`workspace::LsapWorkspace`] and the `_in` entry points.

#![warn(missing_docs)]

pub mod kbest;
pub mod lsap;
pub mod matrix;
pub mod workspace;

pub use kbest::{best_matching, best_matching_in, second_best_matching, second_best_matching_in};
pub use lsap::{
    lsap_min, lsap_min_constrained, lsap_min_constrained_in, lsap_min_in, lsap_min_into,
    lsap_min_munkres, lsap_min_munkres_in, Assignment,
};
pub use matrix::Matrix;
pub use workspace::{LsapWorkspace, MatchingWorkspace};
