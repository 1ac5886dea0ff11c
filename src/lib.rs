//! # ot-ged — Approximate Graph Edit Distance via Optimal Transport
//!
//! A Rust reproduction of *"Computing Approximate Graph Edit Distance via
//! Optimal Transport"* (SIGMOD 2025): the supervised **GEDIOT** model
//! (inverse optimal transport with a learnable Sinkhorn layer), the
//! unsupervised **GEDGW** solver (optimal transport + Gromov–Wasserstein
//! discrepancy via conditional gradient), and the **GEDHOT** ensemble,
//! together with classical and neural baselines, exact A* ground truth,
//! edit-path generation via k-best bipartite matching, and a full
//! experiment harness.
//!
//! This crate is a facade that re-exports the workspace's public API.
//!
//! ## Quickstart: the query engine
//!
//! All dispatch goes through [`core::engine::GedEngine`] — a typed
//! request/response API with method selection and a unified error type:
//!
//! ```
//! use ot_ged::prelude::*;
//!
//! // Two labeled graphs (Figure 1 of the paper).
//! let g1 = Graph::from_edges(vec![Label(1), Label(1), Label(2)],
//!                            &[(0, 1), (0, 2), (1, 2)]);
//! let g2 = Graph::from_edges(vec![Label(1), Label(1), Label(3), Label(4)],
//!                            &[(0, 1), (0, 2), (2, 3)]);
//!
//! // An engine over the training-free GEDGW solver.
//! let mut registry = SolverRegistry::new();
//! registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
//! let engine = GedEngine::builder(registry).build().unwrap();
//!
//! // Value estimate and a feasible edit path, no panics on bad input:
//! let estimate = engine.ged(&g1, &g2).unwrap();
//! assert!(estimate.ged >= 2.0); // exact GED of this pair is 4
//! let path = engine.edit_path(&g1, &g2).unwrap();
//! assert!(path.ged >= 4); // feasible paths upper-bound the true GED
//! assert!(engine.ged(&Graph::new(), &g2).is_err()); // empty graph
//!
//! // Exact GED for reference (A*, small graphs only):
//! let exact = astar_exact(&g1, &g2);
//! assert_eq!(exact.ged, 4);
//! ```

pub use ged_baselines as baselines;
pub use ged_core as core;
pub use ged_eval as eval;
pub use ged_experiments as experiments;
pub use ged_graph as graph;
pub use ged_linalg as linalg;
pub use ged_nn as nn;
pub use ged_ot as ot;
pub use ged_server as server;

/// Convenient glob-import surface covering the common workflow.
pub mod prelude {
    pub use ged_baselines::astar::{astar_beam, astar_exact};
    pub use ged_baselines::classic::{classic_ged, hungarian_ged, vj_ged};
    pub use ged_core::engine::{
        Deadline, DistanceMatrix, ExactNeighbor, GedEngine, GedEngineBuilder, GedQuery,
        GedResponse, JoinPair, JoinResult, Neighbor, QueryOpts, RangeExactResult, SearchResult,
        SearchStats, StoreRef, UndecidedCandidate, UndecidedPair,
    };
    pub use ged_core::ensemble::Gedhot;
    pub use ged_core::error::GedError;
    pub use ged_core::gedgw::Gedgw;
    pub use ged_core::gediot::{Gediot, GediotConfig};
    pub use ged_core::kbest::kbest_edit_path;
    pub use ged_core::method::MethodKind;
    pub use ged_core::search::{
        bounded_exact_ged, bounded_exact_ged_with_budget, pivot_distance, BoundedSearch,
        ExactSearchStats, JoinStats,
    };
    pub use ged_core::solver::{
        BatchRunner, GedEstimate, GedSolver, GedgwSolver, PathEstimate, SolverRegistry,
    };
    pub use ged_eval::metrics;
    pub use ged_graph::{
        max_edit_ops, normalized_ged, DatasetKind, EditOp, EditPath, Graph, GraphDataset, GraphId,
        GraphSignature, GraphStore, Label, NodeMapping, PivotDistance, PivotIndex, Shard,
        ShardedStore, Split,
    };
}
