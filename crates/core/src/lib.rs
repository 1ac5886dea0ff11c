//! The paper's contribution: approximate GED via optimal transport.
//!
//! * [`gediot`] — the supervised **GEDIOT** model (Section 4): GIN node
//!   embeddings, a learnable cost-matrix layer, a learnable Sinkhorn layer
//!   with the dummy supernode, and the NTN graph-discrepancy head, trained
//!   with the bi-level inverse-OT objective (Eq. 7 / Eq. 15).
//! * [`gedgw`] — the unsupervised **GEDGW** solver (Section 5): node edits
//!   as optimal transport plus edge edits as Gromov–Wasserstein
//!   discrepancy, solved with conditional gradient (Eq. 17, Algorithm 2).
//! * [`ensemble`] — the **GEDHOT** ensemble (Section 5.2): the smaller GED
//!   and the shorter edit path of the two.
//! * [`kbest`] — GEP generation from any coupling matrix via the k-best
//!   matching framework with lower-bound pruning (Section 4.5, Algorithm 4).
//! * [`lower_bound`] — the label-set and degree-sequence GED lower
//!   bounds (Eq. 22), in per-pair and precomputed-signature forms.
//! * [`search`] — the τ-exact filter–prune–verify threshold pipeline
//!   (budgeted bounded A\*, feasible GEDGW upper bound) whose store-level
//!   form is [`engine::GedQuery::RangeExact`].
//! * [`pairs`] — training/evaluation pair plumbing shared by the models.
//! * [`solver`] — the [`solver::GedSolver`] trait every method implements,
//!   the [`solver::SolverRegistry`] that maps [`method::MethodKind`]s to
//!   them, and the [`solver::BatchRunner`] parallel batch engine.
//! * [`method`] — [`method::MethodKind`], the typed method identifier
//!   (registry key, CLI-parsable via `FromStr`).
//! * [`engine`] — the [`engine::GedEngine`] typed request/response query
//!   API ([`engine::GedQuery`] in, [`engine::GedResponse`] out, per-call
//!   [`engine::QueryOpts`]) with method selection, filter–verify top-k
//!   and range similarity search over flat and sharded stores (one
//!   [`engine::StoreRef`]), pairwise matrices, dataset-scale GED joins
//!   (self-join and cross-store join), and cooperative query deadlines
//!   ([`engine::Deadline`]).
//! * [`plan`] — the unified tiered query pipeline every store-level plan
//!   (flat and sharded) runs through.
//! * [`error`] — [`error::GedError`], the unified error type of the
//!   query API.

#![warn(missing_docs)]

pub mod edge_labeled;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod gedgw;
pub mod gediot;
pub mod kbest;
pub mod lower_bound;
pub mod method;
pub mod pairs;
pub mod plan;
pub mod search;
pub mod solver;
pub mod workspace;

pub use edge_labeled::{gedgw_edge_labeled, EdgeLabeledGraph};
pub use engine::{
    Deadline, DistanceMatrix, ExactNeighbor, GedEngine, GedEngineBuilder, GedQuery, GedResponse,
    JoinPair, JoinResult, Neighbor, QueryOpts, RangeExactResult, SearchResult, SearchStats,
    StoreRef, UndecidedCandidate, UndecidedPair,
};
pub use ensemble::{Gedhot, GedhotPrediction};
pub use error::GedError;
pub use gedgw::{Gedgw, GedgwOptions, GedgwResult};
pub use gediot::{Gediot, GediotConfig, GediotPrediction};
pub use kbest::{kbest_edit_path, kbest_edit_path_in, KBestResult};
pub use lower_bound::{
    branch_lower_bound, branch_lower_bound_in, branch_slack, degree_sequence_lower_bound,
    degree_sequence_lower_bound_sig, label_set_lower_bound, label_set_lower_bound_sig,
};
pub use method::MethodKind;
pub use pairs::{ordered, GedPair};
pub use search::{
    bounded_exact_ged, bounded_exact_ged_with_budget, bounded_exact_ged_with_budget_in,
    fast_upper_bound, fast_upper_bound_in, pivot_distance, pivot_distance_in, prune_or_verify,
    prune_or_verify_in, prune_or_verify_with_pivot, prune_or_verify_with_pivot_in, BoundedSearch,
    CandidateOutcome, ExactSearchStats, JoinStats,
};
pub use solver::{
    BatchRunner, GedEstimate, GedSolver, GedgwSolver, GedhotSolver, GediotSolver, PathEstimate,
    SolverRegistry, SolverScratch,
};
pub use workspace::GedWorkspace;
