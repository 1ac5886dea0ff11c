//! The typed request/response query API over every GED method.
//!
//! [`GedEngine`] is the stable front door the harness, the examples, the
//! daemon and the benchmarks sit on. It owns a [`SolverRegistry`]
//! (method implementations keyed by [`MethodKind`]), a [`BatchRunner`]
//! (so store-level queries parallelize), a default method, a default
//! edit-path beam width, and an optional prediction cache — all chosen
//! through [`GedEngineBuilder`].
//!
//! # The query API
//!
//! Every request is a [`GedQuery`], answered by
//! [`GedEngine::query_with`] with a [`GedResponse`] of the matching
//! shape. Store-level shapes search a [`StoreRef`] — a borrowed flat
//! [`GraphStore`] or [`ShardedStore`] (`store.into()` converts either),
//! so one query form covers both store kinds and a sharded answer is
//! bit-identical to the flat one over the same graphs. [`QueryOpts`]
//! carries the two per-call choices: the method (`None` = the engine's
//! default) and a cooperative [`Deadline`] (`Deadline::NONE` by
//! default; store-level shapes check it between verification blocks).
//!
//! | query | answer | workload | typed shortcut |
//! |-------|--------|----------|----------------|
//! | [`GedQuery::Value`] | [`GedResponse::Value`] | one pair, value estimate | [`GedEngine::ged`], [`GedEngine::predict`] |
//! | [`GedQuery::Path`] | [`GedResponse::Path`] | one pair, feasible edit path | [`GedEngine::edit_path`] |
//! | [`GedQuery::TopK`] | [`GedResponse::TopK`] | query graph vs. store, ranked neighbors | [`GedEngine::top_k`] |
//! | [`GedQuery::Range`] | [`GedResponse::Range`] | query graph vs. store, all within estimated GED ≤ τ | [`GedEngine::range`] |
//! | [`GedQuery::RangeExact`] | [`GedResponse::RangeExact`] | query graph vs. store, all within **exact** GED ≤ τ | [`GedEngine::range_exact`] |
//! | [`GedQuery::Matrix`] | [`GedResponse::Matrix`] | full pairwise distance matrix | [`GedEngine::distance_matrix`] |
//! | [`GedQuery::SelfJoin`] | [`GedResponse::SelfJoin`] | all store pairs within **exact** GED ≤ τ | [`GedEngine::self_join`] |
//! | [`GedQuery::Join`] | [`GedResponse::Join`] | all cross-store pairs within **exact** GED ≤ τ | [`GedEngine::join`] |
//!
//! The typed shortcuts and [`GedEngine::query`] run the same plans with
//! the default method and no deadline, and take any
//! `impl Into<StoreRef>`; another method, a deadline or a batch
//! ([`GedEngine::query_batch`]) goes through [`QueryOpts`]. To query
//! around a stored graph, look it up first ([`StoreRef::get`]).
//!
//! Every failure mode (unknown method, method missing from the registry,
//! empty graphs, zero budgets, empty stores, NaN thresholds, an expired
//! deadline) is a [`GedError`] — the engine never panics on bad input.
//!
//! # Filter–verify search
//!
//! `TopK` and `Range` run as a two-phase *filter–verify* plan, the
//! classic GED search architecture the paper's similarity-search
//! application calls for. The **filter** phase reads only the store's
//! precomputed [`ged_graph::GraphSignature`]s and the query's, feeding
//! them to the admissible label-set and degree-sequence lower bounds:
//! any candidate whose bound already exceeds the range threshold τ (or,
//! for top-k, the running k-th-best distance) is discarded without ever
//! invoking a solver. A sharded store adds one tier in front: a shard
//! whose aggregate bound exceeds the threshold is skipped wholesale
//! ([`SearchStats::pruned_shard`]). The **verify** phase runs the
//! surviving candidates through the selected solver in parallel via the
//! engine's [`BatchRunner`]. For a solver that declares
//! [`crate::solver::GedSolver::respects_branch_bound`] (GEDGW), a
//! verify step first discards a candidate whose branch bound on GEDGW's
//! objective ([`crate::lower_bound::branch_lower_bound`]) exceeds the
//! threshold ([`SearchStats::pruned_branch`]): that bound holds for the
//! estimate itself, not only for the true GED.
//!
//! Verified distances are *bound-refined*: the reported value is
//! `max(prediction, lower bound)`. Since the bounds provably
//! under-estimate the true GED, the refinement only ever corrects a
//! prediction that was certainly too low — and it makes the pruned plan
//! **exactly** equal to a brute-force scan that evaluates every stored
//! graph (enforced by `tests/store_search.rs`). Each search answer
//! carries [`SearchStats`] counting candidates pruned per filter tier
//! vs. verified, so the saved solver invocations are observable.
//!
//! # Exact range search
//!
//! [`GedQuery::RangeExact`] is the τ-**exact** variant of `Range`: every
//! stored graph whose *true* GED to the query is `≤ τ`, with exact
//! distances, through the paper's three-tier filter–prune–verify plan
//! (Section 2; [`crate::search`] describes the tiers). No solver is
//! consulted: every tier is exact or admissible, so the answer is
//! **provably** equal to running [`crate::search::bounded_exact_ged`]
//! against every stored graph, whatever the method, thread count or
//! candidate order. [`GedEngineBuilder::verify_budget`] caps the node
//! expansions one verification may spend; candidates that exhaust it are
//! reported per id in [`RangeExactResult::budget_exhausted`] with the
//! membership evidence already proven
//! ([`UndecidedCandidate::known_match_ub`]) instead of failing or
//! stalling the whole query. [`ExactSearchStats`] accounts every stored
//! graph to exactly one tier. The joins (`SelfJoin`, `Join`) run the same
//! tiers over candidate pairs (see [`crate::plan`]).
//!
//! # The pivot tier
//!
//! GED is a metric, so exact distances to a few reference graphs bound
//! every query–candidate distance through the triangle inequality:
//! `max_i |d(q,p_i) − d(p_i,g)| ≤ GED(q,g) ≤ min_i d(q,p_i) + d(p_i,g)`.
//! With [`GedEngineBuilder::pivots`] set, a flat store's
//! [`ged_graph::PivotIndex`] is built lazily and kept in sync with the
//! queried store; a sharded store owns one block per shard, synced by
//! [`GedEngine::sync_sharded_pivots`] (stale blocks degrade to the
//! still-exact pivot-free plan). A query arms a block with `p`
//! query-to-pivot distances only once the shard tier failed to skip it
//! (a stored query copies its own table row instead;
//! [`SearchStats::pivot_distances`] counts the rest). The pivot lower
//! bound joins the discard tiers and its upper bound accepts early
//! ([`crate::plan`] gives the order). `TopK` and `Range` also clamp
//! verified estimates into `[lb, ub]`, so they can differ from (and are
//! never worse than) the pivot-disabled ones. `RangeExact` and the joins
//! stay bit-identical to the pivot-disabled plan under an unlimited
//! verify budget; under a finite one a candidate can land in `matches`
//! under one plan and in `budget_exhausted` under the other.
//!
//! # Example
//!
//! ```
//! use ged_core::engine::{Deadline, GedEngine, GedQuery, GedResponse, QueryOpts};
//! use ged_core::method::MethodKind;
//! use ged_core::solver::{GedgwSolver, SolverRegistry};
//! use ged_graph::{Graph, GraphStore, Label, ShardedStore};
//! use std::time::Duration;
//!
//! // A registry with the training-free GEDGW solver.
//! let mut registry = SolverRegistry::new();
//! registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
//! let engine = GedEngine::builder(registry)
//!     .method(MethodKind::Gedgw)
//!     .beam_width(16)
//!     .build()
//!     .expect("GEDGW is registered");
//!
//! // Figure 1 of the paper; exact GED of this pair is 4.
//! let g1 = Graph::from_edges(vec![Label(1), Label(1), Label(2)],
//!                            &[(0, 1), (0, 2), (1, 2)]);
//! let g2 = Graph::from_edges(vec![Label(1), Label(1), Label(3), Label(4)],
//!                            &[(0, 1), (0, 2), (2, 3)]);
//!
//! let estimate = engine.ged(&g1, &g2).unwrap();
//! assert!(estimate.ged > 0.0);
//!
//! // The same request in request/response form.
//! let pair = ged_core::pairs::GedPair::new(g1.clone(), g2.clone());
//! match engine.query(GedQuery::Value { pair: &pair }).unwrap() {
//!     GedResponse::Value(v) => assert_eq!(v, estimate),
//!     _ => unreachable!("Value queries yield Value responses"),
//! }
//!
//! // Similarity search over an indexed store: results carry GraphIds.
//! let mut store = GraphStore::new();
//! let id1 = store.insert(g1.clone());
//! let _id2 = store.insert(g2.clone());
//! let result = engine.top_k(&g1, &store, 1).unwrap();
//! assert_eq!(result.neighbors[0].id, id1, "g1 is its own nearest neighbor");
//!
//! // The same shortcut over a sharded store, and the request form with
//! // a deadline.
//! let mut sharded = ShardedStore::new(4);
//! let sid1 = sharded.insert(g1.clone());
//! sharded.insert(g2);
//! assert_eq!(engine.top_k(&g1, &sharded, 1).unwrap().neighbors[0].id, sid1);
//! let opts = QueryOpts {
//!     deadline: Deadline::within(Duration::from_secs(60)),
//!     ..QueryOpts::default()
//! };
//! let top = GedQuery::TopK { query: &g1, store: (&sharded).into(), k: 1 };
//! let answer = engine.query_with(top, opts).unwrap();
//! assert_eq!(answer.into_top_k().unwrap().neighbors[0].id, sid1);
//! ```

use crate::error::GedError;
use crate::method::MethodKind;
use crate::pairs::GedPair;
use crate::search::{pivot_distance_in, ExactSearchStats, JoinStats};
use crate::solver::{
    BatchRunner, GedEstimate, GedSolver, PathEstimate, SolverRegistry, SolverScratch,
};
use crate::workspace::GedWorkspace;
use ged_graph::{
    Graph, GraphDataset, GraphId, GraphSignature, GraphStore, PivotIndex, ShardedStore,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// One ranked result of a [`GedQuery::TopK`] or [`GedQuery::Range`]
/// search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Stable id of the matching graph in the searched [`GraphStore`].
    pub id: GraphId,
    /// Bound-refined GED estimate between the query and that graph (see
    /// the [module docs](self)).
    pub ged: f64,
}

/// Per-query statistics of a filter–verify search: how many candidates
/// each filter tier discarded and how many reached the solver. Always
/// satisfies `pruned() + verified == candidates`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Total graphs in the searched store.
    pub candidates: usize,
    /// Candidates discarded wholesale at the shard tier: their entire
    /// shard's aggregate lower bound already exceeded the threshold (or
    /// running k-th best), so not even their per-graph signatures were
    /// read. Always zero for flat-store plans (see
    /// [`ged_graph::shard::ShardedStore`]).
    pub pruned_shard: usize,
    /// Candidates discarded by the label-set lower bound.
    pub pruned_label: usize,
    /// Candidates that survived the label-set bound but were discarded by
    /// the degree-sequence lower bound.
    pub pruned_degree: usize,
    /// Candidates that survived both signature bounds but were discarded
    /// by the pivot-table triangle-inequality lower bound
    /// ([`GedEngineBuilder::pivots`]). Always zero without a pivot index.
    pub pruned_pivot: usize,
    /// Candidates that survived every bound above but were discarded by
    /// the branch bound on GEDGW's objective
    /// ([`crate::lower_bound::branch_lower_bound`]) against the k-th best
    /// at the start of their verify block, or τ. A bound on the
    /// estimator, not only on GED: always zero for solvers that do not
    /// declare [`crate::solver::GedSolver::respects_branch_bound`].
    pub pruned_branch: usize,
    /// Candidates verified by the solver (actual solver invocations).
    pub verified: usize,
    /// Of the verified candidates of a `Range` query, how many the
    /// pivot-table upper bound had already certified as true matches
    /// (`ub ≤ τ` proves exact GED ≤ τ) before the solver ran — an overlay
    /// over `verified`, **not** an extra accounting tier. Always zero for
    /// `TopK` (no fixed threshold to certify against) and without a pivot
    /// index.
    pub accepted_pivot: usize,
    /// Query-to-pivot distances the oracle computed to arm the pivot
    /// tier: a block's pivot count per armed unit, 0 for a unit whose
    /// table row a stored query reused, and 0 for units the shard tier
    /// skipped before arming them. An overlay count of work, **not** an
    /// accounting tier (outside [`SearchStats::pruned`]).
    pub pivot_distances: usize,
}

impl SearchStats {
    /// Total candidates discarded without a solver invocation.
    #[must_use]
    pub fn pruned(&self) -> usize {
        self.pruned_shard
            + self.pruned_label
            + self.pruned_degree
            + self.pruned_pivot
            + self.pruned_branch
    }
}

impl fmt::Display for SearchStats {
    /// One-line tier breakdown, filter order left to right:
    /// `candidates=.. shard=.. label=.. degree=.. pivot=.. branch=..
    /// verified=.. accept_pivot=.. pivot_distances=..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candidates={} shard={} label={} degree={} pivot={} branch={} verified={} \
             accept_pivot={} pivot_distances={}",
            self.candidates,
            self.pruned_shard,
            self.pruned_label,
            self.pruned_degree,
            self.pruned_pivot,
            self.pruned_branch,
            self.verified,
            self.accepted_pivot,
            self.pivot_distances
        )
    }
}

/// The answer to a store search: ranked [`Neighbor`]s plus the
/// [`SearchStats`] of the filter–verify plan that produced them.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResult {
    /// Matching graphs, sorted by ascending GED (ties broken by
    /// [`GraphId`]).
    pub neighbors: Vec<Neighbor>,
    /// How the filter–verify plan spent its work.
    pub stats: SearchStats,
}

/// One match of a [`GedQuery::RangeExact`] search: a stored graph whose
/// **exact** GED to the query is within the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactNeighbor {
    /// Stable id of the matching graph in the searched [`GraphStore`].
    pub id: GraphId,
    /// The exact GED between the query and that graph (`≤ τ`).
    pub ged: usize,
}

/// A candidate a [`GedQuery::RangeExact`] verify budget could not fully
/// resolve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndecidedCandidate {
    /// Stable id of the candidate in the searched [`GraphStore`].
    pub id: GraphId,
    /// `Some(ub)` when the prune tier had already proven membership
    /// (`GED ≤ ub ≤ τ`) and only the exact-distance recovery ran out of
    /// budget — the candidate **is** a match, with `ub` its best known
    /// distance; `None` when the τ-bounded verification itself was cut
    /// short and membership is genuinely unknown.
    pub known_match_ub: Option<usize>,
}

/// The answer to a [`GedQuery::RangeExact`] search (see the
/// [module docs](self)): every match with its exact GED, the candidates
/// the expansion budget could not fully resolve, and per-tier
/// statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeExactResult {
    /// Every stored graph with exact GED ≤ τ, in ascending [`GraphId`]
    /// order (deterministic, equal to a brute-force τ-bounded scan).
    /// Distances here are always exact; a proven match whose exact
    /// distance the budget could not recover is reported in
    /// [`Self::budget_exhausted`] with its feasible bound instead.
    pub matches: Vec<ExactNeighbor>,
    /// Candidates whose bounded search ran out of node expansions
    /// ([`GedEngineBuilder::verify_budget`]), in ascending [`GraphId`]
    /// order — each with the membership evidence that survived. Empty
    /// when the budget is unlimited (the default).
    pub budget_exhausted: Vec<UndecidedCandidate>,
    /// How the three-tier plan spent its work;
    /// [`ExactSearchStats::total`] always equals the store size.
    pub stats: ExactSearchStats,
}

/// One match of a GED join ([`GedQuery::SelfJoin`] / [`GedQuery::Join`]):
/// a pair of stored graphs whose **exact** GED is within the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPair {
    /// Id of the pair's first graph — for a self-join always the smaller
    /// id; for a cross-store join an id of the *left* store.
    pub a: GraphId,
    /// Id of the pair's second graph — for a self-join always the larger
    /// id; for a cross-store join an id of the *right* store.
    pub b: GraphId,
    /// The exact GED of the pair (`≤ τ`).
    pub ged: usize,
}

/// A candidate pair a join's verify budget could not fully resolve —
/// the pair-level analogue of [`UndecidedCandidate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndecidedPair {
    /// Id of the pair's first graph (see [`JoinPair::a`]).
    pub a: GraphId,
    /// Id of the pair's second graph (see [`JoinPair::b`]).
    pub b: GraphId,
    /// `Some(ub)` when membership was already proven (`GED ≤ ub ≤ τ`)
    /// and only the exact-distance recovery ran out of budget; `None`
    /// when membership is genuinely unknown.
    pub known_match_ub: Option<usize>,
}

/// The answer to a GED join ([`GedQuery::SelfJoin`] / [`GedQuery::Join`]):
/// every pair within the threshold with its exact GED, the pairs the
/// expansion budget could not resolve, and per-tier [`JoinStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinResult {
    /// Every candidate pair with exact GED ≤ τ, in ascending `(a, b)`
    /// order (deterministic, equal to a brute-force nested loop over
    /// the candidate matrix). Distances are always exact; a proven
    /// match whose exact distance the budget could not recover is
    /// reported in [`Self::budget_exhausted`] instead.
    pub pairs: Vec<JoinPair>,
    /// Pairs whose bounded search ran out of node expansions
    /// ([`GedEngineBuilder::verify_budget`]), in ascending `(a, b)`
    /// order — each with the membership evidence that survived. Empty
    /// when the budget is unlimited (the default).
    pub budget_exhausted: Vec<UndecidedPair>,
    /// How the join plan spent its work; [`JoinStats::total`] always
    /// equals the exact candidate pair count (`n·(n−1)/2` for a
    /// self-join, `n·m` for a cross-store join).
    pub stats: JoinStats,
}

/// A symmetric pairwise distance matrix over a store
/// ([`GedQuery::Matrix`]). The diagonal is zero by construction; only the
/// upper triangle is computed (GED is symmetric) and mirrored. Positions
/// follow the store's id order; [`DistanceMatrix::ids`] maps positions
/// back to [`GraphId`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    ids: Vec<GraphId>,
    data: Vec<f64>,
}

impl DistanceMatrix {
    fn new(ids: Vec<GraphId>) -> Self {
        let n = ids.len();
        DistanceMatrix {
            n,
            ids,
            data: vec![0.0; n * n],
        }
    }

    /// Number of graphs (the matrix is `size × size`).
    #[must_use]
    pub fn size(&self) -> usize {
        self.n
    }

    /// The store ids backing the matrix positions, in position order.
    #[must_use]
    pub fn ids(&self) -> &[GraphId] {
        &self.ids
    }

    /// The estimated GED between the graphs at positions `i` and `j`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// The estimated GED between the graphs with ids `a` and `b`, or
    /// `None` if either id is not part of this matrix.
    #[must_use]
    pub fn get_by_ids(&self, a: GraphId, b: GraphId) -> Option<f64> {
        // Positions follow the store's ascending id order.
        let i = self.ids.binary_search(&a).ok()?;
        let j = self.ids.binary_search(&b).ok()?;
        Some(self.data[i * self.n + j])
    }

    /// Row `i` as a slice (distances from the graph at position `i` to
    /// every graph).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "index out of bounds");
        &self.data[i * self.n..(i + 1) * self.n]
    }
}

/// A typed request against a [`GedEngine`], answered by
/// [`GedEngine::query_with`].
///
/// Pair-level queries borrow a normalized [`GedPair`]; store-level
/// queries borrow a flat or sharded store through a [`StoreRef`], so
/// building a query never clones graphs.
#[derive(Clone, Copy, Debug)]
pub enum GedQuery<'a> {
    /// Estimate the GED of one pair (value only, possibly infeasible).
    Value {
        /// The pair to estimate.
        pair: &'a GedPair,
    },
    /// Produce a feasible edit path for one pair.
    Path {
        /// The pair to transform.
        pair: &'a GedPair,
        /// Search effort (beam width / k-best candidates); `None` uses
        /// the engine's default [`GedEngine::beam_width`].
        k: Option<usize>,
    },
    /// Rank the store by estimated GED to `query` and return the `k`
    /// nearest graphs (`k` larger than the store is clamped), via the
    /// filter–verify plan of the [module docs](self).
    TopK {
        /// The query graph.
        query: &'a Graph,
        /// The store to search.
        store: StoreRef<'a>,
        /// How many neighbors to return (must be ≥ 1).
        k: usize,
    },
    /// Retrieve every stored graph whose (bound-refined) estimated GED to
    /// `query` is at most `tau`, via the filter–verify plan of the
    /// [module docs](self).
    Range {
        /// The query graph.
        query: &'a Graph,
        /// The store to search.
        store: StoreRef<'a>,
        /// The GED threshold τ (NaN is rejected; `+∞` degrades to a full
        /// scan; a negative τ simply matches nothing).
        tau: f64,
    },
    /// Retrieve every stored graph whose **exact** GED to `query` is at
    /// most `tau`, with exact distances, via the three-tier
    /// filter–prune–verify plan of the [module docs](self).
    RangeExact {
        /// The query graph.
        query: &'a Graph,
        /// The store to search.
        store: StoreRef<'a>,
        /// The GED threshold τ. GED is integral, so a fractional τ means
        /// `GED ≤ ⌊τ⌋`; NaN is rejected; `+∞` degrades to exact GED
        /// computation over the whole store (full scan); a negative τ
        /// matches nothing.
        tau: f64,
    },
    /// Compute the full pairwise distance matrix of a store.
    Matrix {
        /// The store to compare pairwise.
        store: StoreRef<'a>,
    },
    /// Retrieve every pair of stored graphs whose **exact** GED is at
    /// most `tau` — the GED self-join (all `n·(n−1)/2` unordered pairs),
    /// via the shared-work join plan of [`crate::plan`].
    SelfJoin {
        /// The store to join with itself.
        store: StoreRef<'a>,
        /// The GED threshold τ, with [`GedQuery::RangeExact`] semantics:
        /// fractional τ floors, NaN is rejected, `+∞` is a full join
        /// (exact GED of every pair), `0` joins isomorphism classes, a
        /// negative τ matches nothing.
        tau: f64,
    },
    /// Retrieve every cross-store pair (one graph from `store`, one from
    /// `other`) whose **exact** GED is at most `tau` — the GED join over
    /// all `n·m` pairs, via the shared-work join plan of [`crate::plan`].
    Join {
        /// The left store (e.g. a query batch).
        store: StoreRef<'a>,
        /// The right store (e.g. the corpus).
        other: StoreRef<'a>,
        /// The GED threshold τ (same semantics as [`GedQuery::SelfJoin`]).
        tau: f64,
    },
}

/// The answer to a [`GedQuery`], variant-matched to the request.
#[derive(Clone, Debug, PartialEq)]
pub enum GedResponse {
    /// Answer to [`GedQuery::Value`].
    Value(GedEstimate),
    /// Answer to [`GedQuery::Path`].
    Path(PathEstimate),
    /// Answer to [`GedQuery::TopK`]: at most `k` neighbors, sorted by
    /// ascending GED (ties broken by [`GraphId`]), plus search stats.
    TopK(SearchResult),
    /// Answer to [`GedQuery::Range`]: every neighbor within τ, sorted by
    /// ascending GED (ties broken by [`GraphId`]), plus search stats.
    Range(SearchResult),
    /// Answer to [`GedQuery::RangeExact`]: every exact match in id order,
    /// budget-undecided candidates, and per-tier stats.
    RangeExact(RangeExactResult),
    /// Answer to [`GedQuery::Matrix`].
    Matrix(DistanceMatrix),
    /// Answer to [`GedQuery::SelfJoin`]: every matching pair in
    /// ascending `(a, b)` order, budget-undecided pairs, and per-tier
    /// stats.
    SelfJoin(JoinResult),
    /// Answer to [`GedQuery::Join`]: every matching cross-store pair in
    /// ascending `(a, b)` order, budget-undecided pairs, and per-tier
    /// stats.
    Join(JoinResult),
}

impl GedResponse {
    /// The value estimate, if this is a [`GedResponse::Value`].
    #[must_use]
    pub fn into_value(self) -> Option<GedEstimate> {
        match self {
            GedResponse::Value(v) => Some(v),
            _ => None,
        }
    }

    /// The path estimate, if this is a [`GedResponse::Path`].
    #[must_use]
    pub fn into_path(self) -> Option<PathEstimate> {
        match self {
            GedResponse::Path(p) => Some(p),
            _ => None,
        }
    }

    /// The search result, if this is a [`GedResponse::TopK`].
    #[must_use]
    pub fn into_top_k(self) -> Option<SearchResult> {
        match self {
            GedResponse::TopK(r) => Some(r),
            _ => None,
        }
    }

    /// The search result, if this is a [`GedResponse::Range`].
    #[must_use]
    pub fn into_range(self) -> Option<SearchResult> {
        match self {
            GedResponse::Range(r) => Some(r),
            _ => None,
        }
    }

    /// The exact search result, if this is a [`GedResponse::RangeExact`].
    #[must_use]
    pub fn into_range_exact(self) -> Option<RangeExactResult> {
        match self {
            GedResponse::RangeExact(r) => Some(r),
            _ => None,
        }
    }

    /// The distance matrix, if this is a [`GedResponse::Matrix`].
    #[must_use]
    pub fn into_matrix(self) -> Option<DistanceMatrix> {
        match self {
            GedResponse::Matrix(m) => Some(m),
            _ => None,
        }
    }

    /// The join result, if this is a [`GedResponse::SelfJoin`].
    #[must_use]
    pub fn into_self_join(self) -> Option<JoinResult> {
        match self {
            GedResponse::SelfJoin(r) => Some(r),
            _ => None,
        }
    }

    /// The join result, if this is a [`GedResponse::Join`].
    #[must_use]
    pub fn into_join(self) -> Option<JoinResult> {
        match self {
            GedResponse::Join(r) => Some(r),
            _ => None,
        }
    }
}

/// A cooperative execution deadline for store-level queries.
///
/// Plans check the deadline between verification blocks (never inside a
/// solver or a bounded search, so one in-flight block bounds the
/// overshoot) and abandon the remaining work with
/// [`GedError::DeadlineExceeded`] instead of occupying the worker pool
/// for an answer nobody is waiting on. A deadline never changes a
/// completed answer — a query that finishes in time is bit-identical to
/// the deadline-free one. Attach one to a query through
/// [`QueryOpts::deadline`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deadline(Option<std::time::Instant>);

impl Deadline {
    /// No deadline: execution runs to completion.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline `budget` from now.
    #[must_use]
    pub fn within(budget: std::time::Duration) -> Self {
        Deadline(Some(std::time::Instant::now() + budget))
    }

    /// A deadline at an absolute instant.
    #[must_use]
    pub fn at(when: std::time::Instant) -> Self {
        Deadline(Some(when))
    }

    /// Whether a deadline is set at all.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the deadline has already passed (`false` when none is
    /// set).
    #[must_use]
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|when| std::time::Instant::now() >= when)
    }

    /// The cooperative checkpoint plans call between verification
    /// blocks.
    pub(crate) fn check(&self) -> Result<(), GedError> {
        if self.expired() {
            Err(GedError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

/// Per-call options of [`GedEngine::query_with`] and
/// [`GedEngine::query_batch`]. The default is the engine's own method and
/// no deadline — what the typed shortcuts use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOpts {
    /// The method to answer with; `None` uses [`GedEngine::method`].
    pub method: Option<MethodKind>,
    /// A cooperative deadline for store-level queries (pair-level
    /// `Value` and `Path` queries run to completion).
    pub deadline: Deadline,
}

impl QueryOpts {
    /// Options that answer with `method` instead of the engine's
    /// default, without a deadline.
    #[must_use]
    pub fn with_method(method: MethodKind) -> Self {
        QueryOpts {
            method: Some(method),
            deadline: Deadline::NONE,
        }
    }
}

/// A borrowed store of either kind, as store-level queries search it.
///
/// The plans of [`crate::plan`] run a flat [`GraphStore`] as the
/// one-shard special case of a [`ShardedStore`], so every store-level
/// query shape takes either: `(&store).into()` builds one, and the typed
/// shortcuts accept `impl Into<StoreRef>` directly.
#[derive(Clone, Copy, Debug)]
pub enum StoreRef<'a> {
    /// A flat store: one unit, no shard tier.
    Flat(&'a GraphStore),
    /// A size-bucketed sharded store: whole shards can be skipped.
    Sharded(&'a ShardedStore),
}

impl<'a> From<&'a GraphStore> for StoreRef<'a> {
    fn from(store: &'a GraphStore) -> Self {
        StoreRef::Flat(store)
    }
}

impl<'a> From<&'a ShardedStore> for StoreRef<'a> {
    fn from(store: &'a ShardedStore) -> Self {
        StoreRef::Sharded(store)
    }
}

/// A dataset is searched as the flat store it wraps.
impl<'a> From<&'a GraphDataset> for StoreRef<'a> {
    fn from(dataset: &'a GraphDataset) -> Self {
        StoreRef::Flat(dataset.store())
    }
}

impl<'a> StoreRef<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            StoreRef::Flat(s) => s.len(),
            StoreRef::Sharded(s) => s.len(),
        }
    }

    /// The graph stored under `id`, or `None` if `id` was minted by
    /// another store or its graph has been removed.
    #[must_use]
    pub fn get(self, id: GraphId) -> Option<&'a Graph> {
        match self {
            StoreRef::Flat(s) => s.get(id),
            StoreRef::Sharded(s) => s.get(id),
        }
    }

    /// Every graph in globally ascending id order (the matrix kernel's
    /// input order).
    pub(crate) fn graphs(self) -> Vec<(GraphId, &'a Graph)> {
        match self {
            StoreRef::Flat(s) => s.iter().collect(),
            StoreRef::Sharded(s) => s.iter().collect(),
        }
    }

    /// Rejects empty stores and stores containing node-less graphs. Reads
    /// only the precomputed signatures, so validation never touches a
    /// graph.
    pub(crate) fn validate(self) -> Result<(), GedError> {
        if self.len() == 0 {
            return Err(GedError::EmptyStore);
        }
        let empty = match self {
            StoreRef::Flat(s) => s.entries().find(|(_, _, sig)| sig.num_nodes() == 0),
            StoreRef::Sharded(s) => s.entries().find(|(_, _, sig)| sig.num_nodes() == 0),
        };
        match empty {
            Some((id, _, _)) => Err(GedError::EmptyGraph(format!("store graph {id}"))),
            None => Ok(()),
        }
    }
}

/// A bounded memoization table for value predictions.
///
/// Lookups probe by `(method, structural fingerprint)` — no graph clones
/// on the hot path — and exact-compare only within the matching bucket,
/// so a fingerprint collision can never return a wrong value. Graphs are
/// cloned into the table only on insert. When full it is cleared
/// wholesale — predictions are cheap relative to unbounded memory
/// growth, and the cache exists for repeated-query serving workloads,
/// not for completeness.
struct PredictionCache {
    capacity: usize,
    entries: usize,
    map: HashMap<(MethodKind, u64), CacheBucket>,
}

/// Exact-match entries sharing one fingerprint: `(g1, g2, prediction)`.
type CacheBucket = Vec<(Graph, Graph, f64)>;

/// Structural fingerprint of a normalized pair ([`Graph`]'s `Hash`).
fn pair_fingerprint(pair: &GedPair) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pair.g1.hash(&mut h);
    pair.g2.hash(&mut h);
    h.finish()
}

/// Configures and validates a [`GedEngine`].
///
/// ```
/// use ged_core::engine::GedEngine;
/// use ged_core::method::MethodKind;
/// use ged_core::solver::{GedgwSolver, SolverRegistry};
///
/// let mut registry = SolverRegistry::new();
/// registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
/// let engine = GedEngine::builder(registry)
///     .method(MethodKind::Gedgw)   // default method for every query
///     .threads(2)                  // store-level parallelism
///     .beam_width(24)              // default edit-path search effort
///     .prediction_cache(10_000)    // memoize repeated value queries
///     .build()
///     .unwrap();
/// assert_eq!(engine.method(), MethodKind::Gedgw);
/// ```
pub struct GedEngineBuilder {
    registry: SolverRegistry,
    method: Option<MethodKind>,
    runner: BatchRunner,
    beam_width: usize,
    cache_capacity: usize,
    verify_budget: usize,
    pivots: usize,
}

impl GedEngineBuilder {
    /// Starts a builder over `registry`. The default method is the first
    /// registered one unless [`Self::method`] overrides it.
    #[must_use]
    pub fn new(registry: SolverRegistry) -> Self {
        GedEngineBuilder {
            registry,
            method: None,
            runner: BatchRunner::default(),
            beam_width: 16,
            cache_capacity: 0,
            verify_budget: usize::MAX,
            pivots: 0,
        }
    }

    /// Selects the engine's default method (used by the typed shortcuts
    /// and by queries whose [`QueryOpts::method`] is `None`).
    #[must_use]
    pub fn method(mut self, method: MethodKind) -> Self {
        self.method = Some(method);
        self
    }

    /// Sets the thread count for store-level queries (`0` is clamped
    /// to 1, matching [`BatchRunner::new`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.runner = BatchRunner::new(threads);
        self
    }

    /// Installs a pre-configured [`BatchRunner`] (e.g.
    /// [`BatchRunner::try_from_env`] for `GED_THREADS` control).
    #[must_use]
    pub fn runner(mut self, runner: BatchRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Sets the default edit-path search effort `k` (beam width /
    /// k-best candidates). Must be ≥ 1 at [`Self::build`] time.
    #[must_use]
    pub fn beam_width(mut self, k: usize) -> Self {
        self.beam_width = k;
        self
    }

    /// Enables a bounded value-prediction cache (`capacity` entries;
    /// `0` disables it, the default). Caching only ever memoizes —
    /// predictions are deterministic, so results are unchanged.
    #[must_use]
    pub fn prediction_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Caps the node expansions any single τ-bounded exact verification
    /// ([`GedQuery::RangeExact`]) may spend, so one pathological pair
    /// cannot blow up a store-level query. Candidates that exhaust the
    /// budget surface per-id in [`RangeExactResult::budget_exhausted`]
    /// instead of failing the query. The default (`usize::MAX`) is
    /// unlimited; must be ≥ 1 at [`Self::build`] time.
    #[must_use]
    pub fn verify_budget(mut self, budget: usize) -> Self {
        self.verify_budget = budget;
        self
    }

    /// Enables the triangle-inequality pivot tier for store-level
    /// queries: the engine maintains a [`ged_graph::PivotIndex`] of up to
    /// `p` pivots (`0` disables it, the default; a `p` beyond the store
    /// size is clamped at selection time) whose exact graph-to-pivot GEDs
    /// it computes once and keeps in sync with the queried store
    /// incrementally. Each query then derives per-candidate metric
    /// `[lb, ub]` bounds from `p` query-to-pivot distances — see the
    /// [module docs](self) for how each plan consumes them. Pivot
    /// distance computations respect [`Self::verify_budget`], degrading
    /// to admissible intervals when a pair blows the budget.
    #[must_use]
    pub fn pivots(mut self, p: usize) -> Self {
        self.pivots = p;
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    /// * [`GedError::Config`] — the registry is empty, or the beam width
    ///   or verify budget is zero.
    /// * [`GedError::MethodNotRegistered`] — the selected default method
    ///   has no solver in the registry.
    pub fn build(self) -> Result<GedEngine, GedError> {
        if self.beam_width == 0 {
            return Err(GedError::Config(
                "beam width must be at least 1".to_string(),
            ));
        }
        if self.verify_budget == 0 {
            return Err(GedError::Config(
                "verify budget must be at least 1 (usize::MAX = unlimited)".to_string(),
            ));
        }
        let method = match self.method {
            Some(m) => m,
            None => *self.registry.methods().first().ok_or_else(|| {
                GedError::Config("cannot build an engine from an empty registry".to_string())
            })?,
        };
        if self.registry.get(method).is_none() {
            return Err(GedError::MethodNotRegistered(method));
        }
        let cache = (self.cache_capacity > 0).then(|| {
            Mutex::new(PredictionCache {
                capacity: self.cache_capacity,
                entries: 0,
                map: HashMap::new(),
            })
        });
        Ok(GedEngine {
            registry: self.registry,
            method,
            runner: self.runner,
            beam_width: self.beam_width,
            verify_budget: self.verify_budget,
            pivot_target: self.pivots,
            pivot_cache: Mutex::new(None),
            cache,
        })
    }
}

/// The query engine: typed requests in, typed responses or [`GedError`]s
/// out. See the [module docs](self) for the full contract.
pub struct GedEngine {
    registry: SolverRegistry,
    method: MethodKind,
    pub(crate) runner: BatchRunner,
    beam_width: usize,
    pub(crate) verify_budget: usize,
    /// How many pivots store-level queries may lean on (0 = disabled).
    pub(crate) pivot_target: usize,
    /// The lazily built, incrementally synced pivot table. One index
    /// serves one store at a time: alternating queries between stores
    /// re-syncs it wholesale (correct, but wasteful — prefer one engine
    /// per long-lived store when pivots are enabled). `Arc` so an
    /// unchanged store hands queries an `O(1)` snapshot.
    pivot_cache: Mutex<Option<Arc<PivotIndex>>>,
    cache: Option<Mutex<PredictionCache>>,
}

impl std::fmt::Debug for GedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GedEngine")
            .field("method", &self.method)
            .field("methods", &self.registry.methods())
            .field("beam_width", &self.beam_width)
            .field("verify_budget", &self.verify_budget)
            .field("pivots", &self.pivot_target)
            .field("threads", &self.runner.threads())
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl GedEngine {
    /// Starts building an engine over `registry`.
    #[must_use]
    pub fn builder(registry: SolverRegistry) -> GedEngineBuilder {
        GedEngineBuilder::new(registry)
    }

    /// The engine's default method.
    #[must_use]
    pub fn method(&self) -> MethodKind {
        self.method
    }

    /// The default edit-path search effort.
    #[must_use]
    pub fn beam_width(&self) -> usize {
        self.beam_width
    }

    /// The per-candidate node-expansion cap of exact verifications
    /// (`usize::MAX` = unlimited).
    #[must_use]
    pub fn verify_budget(&self) -> usize {
        self.verify_budget
    }

    /// The pivot count store-level queries aim for (`0` = pivot tier
    /// disabled; see [`GedEngineBuilder::pivots`]).
    #[must_use]
    pub fn pivot_target(&self) -> usize {
        self.pivot_target
    }

    /// Syncs (or lazily builds) the cached pivot index against `store`
    /// and returns a snapshot of it. The mutex is held only for the
    /// sync itself — on an unchanged store that is an `O(1)` revision
    /// check plus an `Arc` bump — so concurrent queries never serialize
    /// on the expensive per-query distance computations, and the table
    /// is only deep-copied when a mutated store must be re-synced while
    /// other queries still hold the previous snapshot. `None` when the
    /// pivot tier is disabled or the store is empty.
    pub(crate) fn synced_pivot_index(&self, store: &GraphStore) -> Option<Arc<PivotIndex>> {
        if self.pivot_target == 0 || store.is_empty() {
            return None;
        }
        let mut ws = GedWorkspace::new();
        let mut oracle =
            |a: &Graph, b: &Graph| pivot_distance_in(a, b, self.verify_budget, &mut ws);
        let mut cache = self.pivot_cache.lock().expect("pivot cache lock");
        match cache.as_mut() {
            Some(index) if index.revision() == store.revision() => {}
            Some(index) => Arc::make_mut(index).sync(store, &mut oracle),
            None => {
                *cache = Some(Arc::new(PivotIndex::build(
                    store,
                    self.pivot_target,
                    &mut oracle,
                )));
            }
        }
        cache.clone()
    }

    /// The ids currently serving as pivots for `store`, after syncing the
    /// engine's pivot index to it (building it on first use). Empty when
    /// the pivot tier is disabled or the store is empty. Primarily an
    /// observability hook — tests use it to remove a live pivot and watch
    /// reselection keep queries exact.
    #[must_use]
    pub fn pivot_ids(&self, store: &GraphStore) -> Vec<GraphId> {
        self.synced_pivot_index(store)
            .map(|index| index.pivots().to_vec())
            .unwrap_or_default()
    }

    /// The triangle-inequality `[lb, ub]` bounds on the exact GED between
    /// `query` and every graph of `store`, derived from the engine's
    /// pivot table (synced to the store first, built on first use; the
    /// `p` query-to-pivot distances are computed once per call, outside
    /// the index lock — none when `query` equals a stored graph, whose
    /// table row is reused). `None` when the pivot tier is disabled or the
    /// store is empty.
    ///
    /// This is the tier the store-level plans consume; it is public so
    /// callers (and the `ged-testkit` brute-force oracles) can observe
    /// exactly the bounds a query used.
    #[must_use]
    pub fn pivot_bounds(
        &self,
        query: &Graph,
        store: &GraphStore,
    ) -> Option<BTreeMap<GraphId, (usize, usize)>> {
        let index = self.synced_pivot_index(store)?;
        let qsig = GraphSignature::of(query);
        let (qdists, _) =
            self.arm_pivot_block(&index, store, query, &qsig, &mut GedWorkspace::new());
        Some(
            store
                .ids()
                .into_iter()
                .map(|id| (id, index.bounds(&qdists, id).expect("index is synced")))
                .collect(),
        )
    }

    /// Every method this engine can answer for, in registration order.
    #[must_use]
    pub fn methods(&self) -> Vec<MethodKind> {
        self.registry.methods()
    }

    /// Resolves a method to its registered solver — the typed
    /// replacement for string-keyed registry lookups.
    ///
    /// # Errors
    /// [`GedError::MethodNotRegistered`] if the registry has no solver
    /// for `method`.
    pub fn solver(&self, method: MethodKind) -> Result<&dyn GedSolver, GedError> {
        self.registry
            .get(method)
            .ok_or(GedError::MethodNotRegistered(method))
    }

    /// Number of cached value predictions (`None` when the cache is
    /// disabled).
    #[must_use]
    pub fn cached_predictions(&self) -> Option<usize> {
        self.cache
            .as_ref()
            .map(|c| c.lock().expect("cache lock").entries)
    }

    // -- the request/response surface ------------------------------------

    /// Answers `query` with the engine's default method and no deadline
    /// — [`Self::query_with`] under [`QueryOpts::default`].
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn query(&self, query: GedQuery<'_>) -> Result<GedResponse, GedError> {
        self.query_with(query, QueryOpts::default())
    }

    /// Answers `query` under `opts`: with [`QueryOpts::method`] (the
    /// engine's default when `None`), and — for store-level shapes —
    /// checking [`QueryOpts::deadline`] between verification blocks. A
    /// query that finishes in time is bit-identical to the deadline-free
    /// one, and a [`StoreRef::Sharded`] store answers bit-identically to
    /// a flat store holding the same graphs (under the id mapping).
    ///
    /// # Errors
    /// * [`GedError::MethodNotRegistered`] — no solver for the method.
    /// * [`GedError::EmptyGraph`] — an input graph has no nodes.
    /// * [`GedError::PathsUnsupported`] — a `Path` query against a pure
    ///   value regressor.
    /// * [`GedError::InvalidK`] — a zero beam width or top-k size.
    /// * [`GedError::EmptyStore`] — a store-level query against an
    ///   empty store.
    /// * [`GedError::Config`] — a NaN range threshold.
    /// * [`GedError::DeadlineExceeded`] — the deadline passed mid-query.
    pub fn query_with(
        &self,
        query: GedQuery<'_>,
        opts: QueryOpts,
    ) -> Result<GedResponse, GedError> {
        let method = opts.method.unwrap_or(self.method);
        let deadline = opts.deadline;
        match query {
            GedQuery::Value { pair } => self.predict_for(method, pair).map(GedResponse::Value),
            GedQuery::Path { pair, k } => {
                self.edit_path_for(method, pair, k).map(GedResponse::Path)
            }
            GedQuery::TopK { query, store, k } => self
                .plan_top_k(method, query, store, k, deadline)
                .map(GedResponse::TopK),
            GedQuery::Range { query, store, tau } => self
                .plan_range(method, query, store, tau, deadline)
                .map(GedResponse::Range),
            GedQuery::RangeExact { query, store, tau } => self
                .plan_range_exact(method, query, store, tau, deadline)
                .map(GedResponse::RangeExact),
            GedQuery::Matrix { store } => self
                .plan_matrix(method, store, deadline)
                .map(GedResponse::Matrix),
            GedQuery::SelfJoin { store, tau } => self
                .plan_self_join(method, store, tau, deadline)
                .map(GedResponse::SelfJoin),
            GedQuery::Join { store, other, tau } => self
                .plan_join(method, store, other, tau, deadline)
                .map(GedResponse::Join),
        }
    }

    /// Answers a batch of queries under one `opts` in parallel (input
    /// order preserved, results bit-identical to a sequential
    /// [`Self::query_with`] loop).
    #[must_use]
    pub fn query_batch(
        &self,
        queries: &[GedQuery<'_>],
        opts: QueryOpts,
    ) -> Vec<Result<GedResponse, GedError>> {
        self.runner.map(queries, |q| self.query_with(*q, opts))
    }

    // -- typed shortcuts: the default method, no deadline ------------------

    /// Estimates the GED of two graphs with the default method.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn ged(&self, g1: &Graph, g2: &Graph) -> Result<GedEstimate, GedError> {
        ensure_nonempty(g1, "g1")?;
        ensure_nonempty(g2, "g2")?;
        self.predict(&GedPair::new(g1.clone(), g2.clone()))
    }

    /// Estimates the GED of a prepared pair with the default method.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn predict(&self, pair: &GedPair) -> Result<GedEstimate, GedError> {
        self.predict_for(self.method, pair)
    }

    fn predict_for(&self, method: MethodKind, pair: &GedPair) -> Result<GedEstimate, GedError> {
        ensure_nonempty(&pair.g1, "g1")?;
        ensure_nonempty(&pair.g2, "g2")?;
        let solver = self.solver(method)?;
        Ok(GedEstimate {
            ged: self.predict_cached(method, solver, pair, &mut SolverScratch::new()),
        })
    }

    /// Generates a feasible edit path for two graphs with the default
    /// method and beam width. The path transforms the pair's smaller
    /// graph into its larger one; for equal node counts the caller's
    /// orientation is preserved ([`GedPair::directed`] — edit paths are
    /// direction-sensitive, so the equal-size canonicalization of
    /// [`GedPair::new`] must not silently invert them). Another beam
    /// width goes through [`GedQuery::Path`].
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn edit_path(&self, g1: &Graph, g2: &Graph) -> Result<PathEstimate, GedError> {
        ensure_nonempty(g1, "g1")?;
        ensure_nonempty(g2, "g2")?;
        self.edit_path_for(
            self.method,
            &GedPair::directed(g1.clone(), g2.clone()),
            None,
        )
    }

    fn edit_path_for(
        &self,
        method: MethodKind,
        pair: &GedPair,
        k: Option<usize>,
    ) -> Result<PathEstimate, GedError> {
        ensure_nonempty(&pair.g1, "g1")?;
        ensure_nonempty(&pair.g2, "g2")?;
        let k = k.unwrap_or(self.beam_width);
        if k == 0 {
            return Err(GedError::InvalidK { what: "beam width" });
        }
        let solver = self.solver(method)?;
        solver
            .edit_path(pair, k)
            .ok_or(GedError::PathsUnsupported(method))
    }

    /// [`GedQuery::TopK`]: the `k` graphs of `store` nearest to `query`
    /// by bound-refined estimated GED, ranked with ties broken by id
    /// (a `k` beyond the store clamps) — exactly a brute-force scan's
    /// answer, through the filter–verify plan of the
    /// [module docs](self).
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn top_k<'s>(
        &self,
        query: &Graph,
        store: impl Into<StoreRef<'s>>,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.plan_top_k(self.method, query, store.into(), k, Deadline::NONE)
    }

    /// [`GedQuery::Range`]: every graph of `store` within bound-refined
    /// estimated GED ≤ `tau` of `query`, ranked like [`Self::top_k`].
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn range<'s>(
        &self,
        query: &Graph,
        store: impl Into<StoreRef<'s>>,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.plan_range(self.method, query, store.into(), tau, Deadline::NONE)
    }

    /// [`GedQuery::RangeExact`]: every graph of `store` whose **exact**
    /// GED to `query` is ≤ `tau`, in id order, through the three-tier
    /// plan of the [module docs](self). No solver runs, so the answer
    /// does not depend on the method.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn range_exact<'s>(
        &self,
        query: &Graph,
        store: impl Into<StoreRef<'s>>,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.plan_range_exact(self.method, query, store.into(), tau, Deadline::NONE)
    }

    /// [`GedQuery::Matrix`]: the pairwise distance matrix of `store`.
    /// Only the upper triangle is predicted (in parallel), then
    /// mirrored; entries are raw solver predictions, bit-identical to
    /// per-pair [`Self::predict`] calls.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn distance_matrix<'s>(
        &self,
        store: impl Into<StoreRef<'s>>,
    ) -> Result<DistanceMatrix, GedError> {
        self.plan_matrix(self.method, store.into(), Deadline::NONE)
    }

    /// [`GedQuery::SelfJoin`]: every unordered pair of graphs of `store`
    /// whose **exact** GED is ≤ `tau`, through the shared-work join plan
    /// of [`crate::plan`] — provably a brute-force
    /// [`crate::search::bounded_exact_ged`] nested loop's answer.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn self_join<'s>(
        &self,
        store: impl Into<StoreRef<'s>>,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_self_join(self.method, store.into(), tau, Deadline::NONE)
    }

    /// [`GedQuery::Join`]: every pair of one graph of `left` and one of
    /// `right` whose **exact** GED is ≤ `tau`; either side may be flat or
    /// sharded. Answer semantics follow [`Self::self_join`].
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn join<'s>(
        &self,
        left: impl Into<StoreRef<'s>>,
        right: impl Into<StoreRef<'s>>,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_join(self.method, left.into(), right.into(), tau, Deadline::NONE)
    }

    /// [`Self::top_k`] over a [`ShardedStore`]. Kept for `perfbench`,
    /// which calls it by name; remove it when `perfbench` next changes.
    ///
    /// # Errors
    /// See [`Self::query_with`].
    pub fn top_k_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.top_k(query, store, k)
    }

    /// [`Self::range_exact`] over a [`ShardedStore`]. Kept for
    /// `perfbench`, which calls it by name; remove it when `perfbench`
    /// next changes.
    ///
    /// # Errors
    /// See [`Self::range_exact`].
    pub fn range_exact_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.range_exact(query, store, tau)
    }

    /// The matrix kernel shared by the flat and sharded plans: upper
    /// triangle over `graphs` (already in ascending id order), mirrored.
    /// With a deadline set, the prediction batch is chunked into blocks
    /// with a cooperative [`Deadline::check`] between them (per-pair
    /// predictions are independent, so chunking cannot change a value).
    pub(crate) fn matrix_of(
        &self,
        method: MethodKind,
        solver: &dyn GedSolver,
        graphs: Vec<(GraphId, &Graph)>,
        deadline: Deadline,
    ) -> Result<DistanceMatrix, GedError> {
        let n = graphs.len();
        let mut index_pairs = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                index_pairs.push((i, j));
            }
        }
        let predict = |scratch: &mut SolverScratch, &(i, j): &(usize, usize)| {
            let pair = GedPair::new(graphs[i].1.clone(), graphs[j].1.clone());
            self.predict_cached(method, solver, &pair, scratch)
        };
        let geds = if deadline.is_set() {
            let mut geds = Vec::with_capacity(index_pairs.len());
            for block in index_pairs.chunks(self.verify_block_len()) {
                deadline.check()?;
                geds.extend(self.runner.map_init(block, SolverScratch::new, predict));
            }
            geds
        } else {
            self.runner
                .map_init(&index_pairs, SolverScratch::new, predict)
        };
        let mut matrix = DistanceMatrix::new(graphs.into_iter().map(|(id, _)| id).collect());
        for (&(i, j), ged) in index_pairs.iter().zip(geds) {
            matrix.data[i * n + j] = ged;
            matrix.data[j * n + i] = ged;
        }
        Ok(matrix)
    }

    /// How many verifications one deadline-checked block holds: enough
    /// to keep every worker busy between cooperative checkpoints.
    pub(crate) fn verify_block_len(&self) -> usize {
        crate::plan::VERIFY_BLOCK * self.runner.threads().max(1)
    }

    // -- sharded pivot blocks ----------------------------------------------
    //
    // Shards own their pivot blocks (the engine cannot lazily sync a
    // `&ShardedStore`), so sharded plans use pivots only when
    // [`ShardedStore::pivots_ready`] holds for the engine's target — call
    // [`GedEngine::sync_sharded_pivots`] after mutations to keep the
    // blocks in sync. Stale or absent blocks degrade to the (still exact)
    // pivot-free plan, never to a wrong answer.

    /// Builds or incrementally syncs every shard's pivot block to this
    /// engine's [`GedEngineBuilder::pivots`] target, using the same
    /// bounded-exact oracle as the flat plans. Call after store mutations
    /// to (re)arm the sharded pivot tier; a no-op when the tier is
    /// disabled (the target is 0 clears the blocks) or nothing changed.
    pub fn sync_sharded_pivots(&self, store: &mut ShardedStore) {
        let mut ws = GedWorkspace::new();
        let mut oracle =
            |a: &Graph, b: &Graph| pivot_distance_in(a, b, self.verify_budget, &mut ws);
        store.sync_pivots(self.pivot_target, &mut oracle);
    }

    /// The triangle-inequality `[lb, ub]` bounds on the exact GED between
    /// `query` and every graph of `store`, from the shards' own pivot
    /// blocks — the sharded analogue of [`GedEngine::pivot_bounds`], and
    /// what the `ged-testkit` oracles consume to mirror sharded plans
    /// exactly. `None` unless every shard is synced at this engine's
    /// pivot target (see [`ShardedStore::pivots_ready`]).
    #[must_use]
    pub fn sharded_pivot_bounds(
        &self,
        query: &Graph,
        store: &ShardedStore,
    ) -> Option<BTreeMap<GraphId, (usize, usize)>> {
        if !store.pivots_ready(self.pivot_target) {
            return None;
        }
        let qsig = GraphSignature::of(query);
        let mut ws = GedWorkspace::new();
        let mut out = BTreeMap::new();
        for shard in store.shards() {
            let index = shard.pivot_index().expect("pivots_ready");
            let (qdists, _) = self.arm_pivot_block(index, shard.store(), query, &qsig, &mut ws);
            for id in shard.store().ids() {
                out.insert(id, index.bounds(&qdists, id).expect("index is synced"));
            }
        }
        Some(out)
    }

    /// Predicts through the cache when one is configured. Predictions
    /// are deterministic (and scratch-independent), so memoization never
    /// changes a result.
    pub(crate) fn predict_cached(
        &self,
        method: MethodKind,
        solver: &dyn GedSolver,
        pair: &GedPair,
        scratch: &mut SolverScratch,
    ) -> f64 {
        let Some(cache) = &self.cache else {
            return solver.predict_scratch(pair, scratch).ged;
        };
        let key = (method, pair_fingerprint(pair));
        {
            let cache = cache.lock().expect("cache lock");
            if let Some(bucket) = cache.map.get(&key) {
                if let Some((_, _, hit)) = bucket
                    .iter()
                    .find(|(a, b, _)| *a == pair.g1 && *b == pair.g2)
                {
                    return *hit;
                }
            }
        }
        // Compute outside the lock: predictions can be expensive and the
        // cache must not serialize them.
        let ged = solver.predict_scratch(pair, scratch).ged;
        let mut cache = cache.lock().expect("cache lock");
        if cache.entries >= cache.capacity {
            cache.map.clear();
            cache.entries = 0;
        }
        cache
            .map
            .entry(key)
            .or_default()
            .push((pair.g1.clone(), pair.g2.clone(), ged));
        cache.entries += 1;
        ged
    }
}

/// Rejects node-less graphs with a [`GedError::EmptyGraph`] naming the
/// offending input.
pub(crate) fn ensure_nonempty(g: &Graph, which: &str) -> Result<(), GedError> {
    if g.num_nodes() == 0 {
        return Err(GedError::EmptyGraph(which.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::{degree_sequence_lower_bound, label_set_lower_bound};
    use crate::solver::GedgwSolver;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gedgw_engine() -> GedEngine {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        GedEngine::builder(registry)
            .method(MethodKind::Gedgw)
            .threads(1)
            .build()
            .expect("valid configuration")
    }

    fn small_dataset(count: usize, seed: u64) -> GraphDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        GraphDataset::aids_like(count, &mut rng)
    }

    /// The brute-force reference: the bound-refined estimate for every
    /// stored graph, sorted ascending with id tie-breaks.
    fn brute_force(store: &GraphStore, query: &Graph) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = store
            .iter()
            .map(|(id, g)| {
                let pair = GedPair::new(query.clone(), g.clone());
                let lb = label_set_lower_bound(query, g).max(degree_sequence_lower_bound(query, g));
                Neighbor {
                    id,
                    ged: GedgwSolver.predict(&pair).ged.max(lb as f64),
                }
            })
            .collect();
        all.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
        all
    }

    #[test]
    fn builder_defaults_to_first_registered_method() {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let engine = GedEngine::builder(registry).build().unwrap();
        assert_eq!(engine.method(), MethodKind::Gedgw);
        assert_eq!(engine.methods(), vec![MethodKind::Gedgw]);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let err = GedEngine::builder(SolverRegistry::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, GedError::Config(_)), "{err:?}");

        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let err = GedEngine::builder(registry)
            .method(MethodKind::Gediot)
            .build()
            .unwrap_err();
        assert_eq!(err, GedError::MethodNotRegistered(MethodKind::Gediot));

        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let err = GedEngine::builder(registry)
            .beam_width(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GedError::Config("beam width must be at least 1".to_string())
        );

        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let err = GedEngine::builder(registry)
            .verify_budget(0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GedError::Config(
                "verify budget must be at least 1 (usize::MAX = unlimited)".to_string()
            )
        );
    }

    #[test]
    fn value_and_path_queries_agree_with_direct_solver_calls() {
        let engine = gedgw_engine();
        let ds = small_dataset(4, 42);
        let gs: Vec<&Graph> = ds.graphs().collect();
        let pair = GedPair::new(gs[0].clone(), gs[1].clone());

        let direct = GedgwSolver.predict(&pair);
        let value = engine
            .query(GedQuery::Value { pair: &pair })
            .unwrap()
            .into_value()
            .unwrap();
        assert_eq!(value, direct);

        let direct_path = GedgwSolver.edit_path(&pair, engine.beam_width()).unwrap();
        let path = engine
            .query(GedQuery::Path {
                pair: &pair,
                k: None,
            })
            .unwrap()
            .into_path()
            .unwrap();
        assert_eq!(path, direct_path);
    }

    #[test]
    fn edit_path_preserves_equal_size_orientation() {
        // Edit paths are direction-sensitive: the equal-size
        // canonicalization of GedPair::new must not invert the caller's
        // requested transformation.
        let engine = gedgw_engine();
        let mut rng = SmallRng::seed_from_u64(62);
        let ds = GraphDataset::aids_like(30, &mut rng);
        let gs: Vec<&Graph> = ds.graphs().collect();
        let mut checked = 0;
        for i in 0..gs.len() {
            for j in (i + 1)..gs.len() {
                let (a, b) = (gs[i], gs[j]);
                if a.num_nodes() != b.num_nodes() || a == b {
                    continue;
                }
                let got = engine.edit_path(a, b).unwrap();
                let want = GedgwSolver
                    .edit_path(
                        &GedPair::directed(a.clone(), b.clone()),
                        engine.beam_width(),
                    )
                    .unwrap();
                assert_eq!(got, want, "path must transform a into b, not b into a");
                checked += 1;
                if checked >= 5 {
                    return;
                }
            }
        }
        assert!(checked > 0, "the sweep must exercise equal-size pairs");
    }

    #[test]
    fn empty_graphs_are_typed_errors() {
        let engine = gedgw_engine();
        let empty = Graph::new();
        let ok = small_dataset(1, 7).graphs().next().unwrap().clone();
        let err = engine.ged(&empty, &ok).unwrap_err();
        assert_eq!(err, GedError::EmptyGraph("g1".to_string()));
        let err = engine.ged(&ok, &empty).unwrap_err();
        assert_eq!(err, GedError::EmptyGraph("g2".to_string()));
    }

    #[test]
    fn top_k_errors_and_clamping() {
        let engine = gedgw_engine();
        let ds = small_dataset(5, 3);
        let query = ds.graphs().next().unwrap().clone();

        let err = engine.top_k(&query, &ds, 0).unwrap_err();
        assert_eq!(err, GedError::InvalidK { what: "top-k" });

        let empty = GraphStore::new();
        let err = engine.top_k(&query, &empty, 3).unwrap_err();
        assert_eq!(err, GedError::EmptyStore);

        // k beyond the store is clamped: everything comes back, ranked.
        let all = engine.top_k(&query, &ds, 100).unwrap();
        assert_eq!(all.neighbors.len(), ds.len());
        for w in all.neighbors.windows(2) {
            assert!(w[0].ged <= w[1].ged, "ranking must be ascending");
        }
        assert_eq!(
            all.stats.pruned() + all.stats.verified,
            all.stats.candidates
        );
    }

    #[test]
    fn top_k_equals_brute_force_and_prunes() {
        let engine = gedgw_engine();
        let ds = small_dataset(40, 99);
        let mut rng = SmallRng::seed_from_u64(100);
        let query = GraphDataset::aids_like(1, &mut rng)
            .graphs()
            .next()
            .unwrap()
            .clone();
        let brute = brute_force(&ds, &query);
        for k in [1usize, 3, 10] {
            let result = engine.top_k(&query, &ds, k).unwrap();
            assert_eq!(result.neighbors.len(), k);
            for (got, want) in result.neighbors.iter().zip(&brute) {
                assert_eq!(got.id, want.id, "k={k}");
                assert_eq!(got.ged.to_bits(), want.ged.to_bits(), "k={k}");
            }
            assert_eq!(
                result.stats.pruned() + result.stats.verified,
                result.stats.candidates
            );
        }
        // Small k over a labeled dataset must save solver calls.
        let result = engine.top_k(&query, &ds, 1).unwrap();
        assert!(
            result.stats.verified < ds.len(),
            "stats: {:?}",
            result.stats
        );
        assert!(result.stats.pruned() > 0, "stats: {:?}", result.stats);
    }

    #[test]
    fn range_equals_brute_force_and_prunes() {
        let engine = gedgw_engine();
        let ds = small_dataset(40, 77);
        let mut rng = SmallRng::seed_from_u64(101);
        let query = GraphDataset::aids_like(1, &mut rng)
            .graphs()
            .next()
            .unwrap()
            .clone();
        let brute = brute_force(&ds, &query);
        // A threshold at the 8th-smallest distance keeps the result
        // non-trivial on both sides.
        let tau = brute[7].ged;
        let result = engine
            .query(GedQuery::Range {
                query: &query,
                store: (&ds).into(),
                tau,
            })
            .unwrap()
            .into_range()
            .unwrap();
        let want: Vec<&Neighbor> = brute.iter().filter(|n| n.ged <= tau).collect();
        assert_eq!(result.neighbors.len(), want.len());
        for (got, want) in result.neighbors.iter().zip(want) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.ged.to_bits(), want.ged.to_bits());
        }
        assert!(result.stats.pruned() > 0, "stats: {:?}", result.stats);
        assert_eq!(
            result.stats.pruned() + result.stats.verified,
            result.stats.candidates
        );

        // NaN thresholds are rejected, negative ones match nothing.
        assert!(matches!(
            engine.range(&query, &ds, f64::NAN).unwrap_err(),
            GedError::Config(_)
        ));
        let none = engine.range(&query, &ds, -1.0).unwrap();
        assert!(none.neighbors.is_empty());
    }

    #[test]
    fn range_with_infinite_tau_is_a_full_scan() {
        // The search module promises "τ = ∞ degrades to exact GED
        // computation"; the approximate plan analogously degrades to a
        // full verified scan returning every stored graph.
        let engine = gedgw_engine();
        let ds = small_dataset(20, 78);
        let mut rng = SmallRng::seed_from_u64(102);
        let query = GraphDataset::aids_like(1, &mut rng)
            .graphs()
            .next()
            .unwrap()
            .clone();
        let result = engine.range(&query, &ds, f64::INFINITY).unwrap();
        assert_eq!(result.neighbors.len(), ds.len(), "every graph matches");
        assert_eq!(result.stats.verified, ds.len(), "nothing can be pruned");
        assert_eq!(result.stats.pruned(), 0);
        let brute = brute_force(&ds, &query);
        for (got, want) in result.neighbors.iter().zip(&brute) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.ged.to_bits(), want.ged.to_bits());
        }
    }

    /// The brute-force reference for exact range search: τ-bounded exact
    /// search against every stored graph, in id order.
    fn brute_force_exact(store: &GraphStore, query: &Graph, tau: usize) -> Vec<ExactNeighbor> {
        store
            .iter()
            .filter_map(|(id, g)| {
                crate::search::bounded_exact_ged(query, g, tau).map(|ged| ExactNeighbor { id, ged })
            })
            .collect()
    }

    #[test]
    fn range_exact_equals_brute_force_bounded_scan() {
        let engine = gedgw_engine();
        let ds = small_dataset(25, 55);
        let query = ds.graphs().next().unwrap().clone();
        for tau in [0.0, 2.0, 4.0, 6.5] {
            let result = engine
                .query(GedQuery::RangeExact {
                    query: &query,
                    store: (&ds).into(),
                    tau,
                })
                .unwrap()
                .into_range_exact()
                .unwrap();
            let want = brute_force_exact(&ds, &query, tau.floor() as usize);
            assert_eq!(result.matches, want, "tau={tau}");
            assert!(result.budget_exhausted.is_empty(), "unlimited budget");
            assert_eq!(result.stats.total(), ds.len(), "accounting closes");
        }
        // The member query matches itself with exact distance zero.
        let self_hit = engine.range_exact(&query, &ds, 0.0).unwrap();
        assert!(self_hit.matches.iter().any(|m| m.ged == 0));
    }

    #[test]
    fn range_exact_tau_edge_cases() {
        let engine = gedgw_engine();
        let ds = small_dataset(10, 56);
        let query = ds.graphs().next().unwrap().clone();

        assert!(matches!(
            engine.range_exact(&query, &ds, f64::NAN).unwrap_err(),
            GedError::Config(_)
        ));

        // Negative τ matches nothing; the filter discards everything.
        let none = engine.range_exact(&query, &ds, -3.0).unwrap();
        assert!(none.matches.is_empty());
        assert_eq!(none.stats.filtered, ds.len());

        // τ = +∞ degrades to exact GED computation over the whole store.
        let all = engine.range_exact(&query, &ds, f64::INFINITY).unwrap();
        assert_eq!(all.matches.len(), ds.len(), "every graph matches at ∞");
        assert_eq!(all.stats.filtered, 0, "nothing can be filtered at ∞");
        let unbounded = brute_force_exact(&ds, &query, usize::MAX);
        assert_eq!(all.matches, unbounded, "distances are plain exact GEDs");
    }

    #[test]
    fn range_exact_is_method_independent() {
        use crate::gediot::{Gediot, GediotConfig};
        use crate::solver::GedhotSolver;
        use std::sync::Arc;

        let mut rng = SmallRng::seed_from_u64(57);
        let gediot = Arc::new(Gediot::new(GediotConfig::small(29), &mut rng));
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        registry.register(MethodKind::Gedhot, Box::new(GedhotSolver::new(gediot)));
        let engine = GedEngine::builder(registry).threads(1).build().unwrap();

        let ds = small_dataset(12, 58);
        let ids = ds.ids();
        let query = ds[ids[0]].clone();

        let exact_as = |method| {
            let q = GedQuery::RangeExact {
                query: &query,
                store: (&ds).into(),
                tau: 4.0,
            };
            let opts = QueryOpts::with_method(method);
            engine
                .query_with(q, opts)
                .map(|r| r.into_range_exact().unwrap())
        };
        // Exact search consults no solver: every method gives the answer.
        let a = exact_as(MethodKind::Gedgw).unwrap();
        let b = exact_as(MethodKind::Gedhot).unwrap();
        assert_eq!(a, b, "exact answers cannot depend on the method");
        assert!(a.matches.iter().any(|m| m.id == ids[0] && m.ged == 0));
        // ... but an unregistered method still errors, like every query.
        let err = exact_as(MethodKind::Classic).unwrap_err();
        assert_eq!(err, GedError::MethodNotRegistered(MethodKind::Classic));
    }

    #[test]
    fn range_exact_budget_surfaces_per_id_instead_of_poisoning() {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let strangled = GedEngine::builder(registry)
            .threads(1)
            .verify_budget(1)
            .build()
            .unwrap();

        let ds = small_dataset(15, 60);
        let query = ds.graphs().next().unwrap().clone();
        let result = strangled.range_exact(&query, &ds, 3.0).unwrap();
        assert_eq!(result.stats.total(), ds.len(), "accounting still closes");
        assert_eq!(
            result.stats.budget_exceeded,
            result.budget_exhausted.len(),
            "stats mirror the per-id list"
        );
        // Whatever *was* decided must agree with the unbudgeted truth.
        let want = brute_force_exact(&ds, &query, 3);
        for m in &result.matches {
            assert!(want.contains(m), "budgeted match must be a true match");
        }
        for w in &want {
            assert!(
                result.matches.contains(w) || result.budget_exhausted.iter().any(|u| u.id == w.id),
                "a true match may only be missing because it was undecided"
            );
        }
        // An exhausted candidate with a surviving membership proof really
        // is a match, and the reported bound really bounds its GED.
        for u in &result.budget_exhausted {
            if let Some(ub) = u.known_match_ub {
                assert!(ub <= 3, "the accepting bound must be within τ");
                let truth = want.iter().find(|w| w.id == u.id);
                let truth = truth.expect("proven membership must be true membership");
                assert!(truth.ged <= ub, "ub must upper-bound the exact GED");
            }
        }
    }

    #[test]
    fn pivot_tier_preserves_exact_results_and_saves_work() {
        let ds = small_dataset(20, 63);
        let query = ds.graphs().next().unwrap().clone();
        let plain = gedgw_engine();
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let pivoted = GedEngine::builder(registry)
            .threads(1)
            .pivots(3)
            .build()
            .unwrap();
        assert_eq!(pivoted.pivot_target(), 3);
        assert_eq!(plain.pivot_target(), 0);
        assert!(plain.pivot_ids(&ds).is_empty());
        assert!(plain.pivot_bounds(&query, &ds).is_none());

        let pivots = pivoted.pivot_ids(&ds);
        assert_eq!(pivots.len(), 3);
        assert!(pivots.iter().all(|&p| ds.contains(p)));

        // The pivot bounds sandwich the true GED for every stored graph.
        let bounds = pivoted.pivot_bounds(&query, &ds).expect("pivots enabled");
        assert_eq!(bounds.len(), ds.len());
        for (id, g) in ds.iter() {
            let (lb, ub) = bounds[&id];
            let exact = crate::search::bounded_exact_ged(&query, g, usize::MAX / 2).unwrap();
            assert!(
                lb <= exact && exact <= ub,
                "[{lb}, {ub}] must contain {exact} for {id}"
            );
        }

        // RangeExact: bit-identical to the pivot-disabled plan, with the
        // pivot tiers visibly firing (the member query certifies itself).
        for tau in [0.0, 2.0, 4.0] {
            let with = pivoted.range_exact(&query, &ds, tau).unwrap();
            let without = plain.range_exact(&query, &ds, tau).unwrap();
            assert_eq!(with.matches, without.matches, "tau={tau}");
            assert_eq!(with.budget_exhausted, without.budget_exhausted);
            assert_eq!(with.stats.total(), ds.len(), "accounting closes");
            assert!(
                with.stats.pruned_pivot + with.stats.accepted_pivot > 0,
                "tau={tau}: pivot tier must fire: {:?}",
                with.stats
            );
        }
    }

    #[test]
    fn disabled_pivot_tier_never_certifies_at_infinite_tau() {
        // Regression: the vacuous (0, usize::MAX) bound of a pivot-less
        // engine must not count as a membership certificate when τ
        // saturates to usize::MAX — accepted_pivot stayed "certifying"
        // the whole store and the exact-distance recovery ran bounded by
        // usize::MAX instead of the tight GEDGW upper bound.
        let engine = gedgw_engine();
        let ds = small_dataset(12, 64);
        let query = ds.graphs().next().unwrap().clone();

        let exact = engine.range_exact(&query, &ds, f64::INFINITY).unwrap();
        assert_eq!(exact.stats.pruned_pivot, 0, "no pivot index, no tier");
        assert_eq!(exact.stats.accepted_pivot, 0, "no pivot index, no tier");
        assert_eq!(
            exact.stats.accepted_pivot + exact.stats.accepted_early + exact.stats.verified,
            ds.len(),
            "τ = ∞ still resolves every candidate through the real tiers"
        );

        let range = engine.range(&query, &ds, f64::INFINITY).unwrap();
        assert_eq!(range.stats.pruned_pivot, 0);
        assert_eq!(range.stats.accepted_pivot, 0);

        // With pivots enabled the exact table is finite, so τ = ∞ *does*
        // certify — through real bounds, not the vacuous one.
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let pivoted = GedEngine::builder(registry)
            .threads(1)
            .pivots(2)
            .build()
            .unwrap();
        let exact = pivoted.range_exact(&query, &ds, f64::INFINITY).unwrap();
        assert_eq!(exact.stats.accepted_pivot, ds.len());
        assert_eq!(exact.matches.len(), ds.len());
    }

    #[test]
    fn equal_size_pair_predictions_are_symmetric_and_cache_once() {
        // Regression: GedPair::new only swapped on node count, so
        // equal-size pairs kept caller orientation — predict(a, b) and
        // predict(b, a) could differ and occupied two cache entries.
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let engine = GedEngine::builder(registry)
            .prediction_cache(64)
            .threads(1)
            .build()
            .unwrap();

        let mut rng = SmallRng::seed_from_u64(61);
        let ds = GraphDataset::aids_like(40, &mut rng);
        let gs: Vec<&Graph> = ds.graphs().collect();
        // Sweep equal-size pairs — the regression shape: only the node
        // count used to decide the orientation, so these kept whatever
        // order the caller happened to use.
        let mut checked = 0;
        for i in 0..gs.len() {
            for j in (i + 1)..gs.len() {
                let (a, b) = (gs[i], gs[j]);
                if a.num_nodes() != b.num_nodes() || a == b {
                    continue;
                }
                checked += 1;
                let before = engine.cached_predictions().unwrap();
                let ab = engine.ged(a, b).unwrap();
                let ba = engine.ged(b, a).unwrap();
                assert_eq!(ab.ged.to_bits(), ba.ged.to_bits());
                assert_eq!(
                    engine.cached_predictions(),
                    Some(before + 1),
                    "equal-size swapped query must be one cache entry"
                );
                if checked >= 25 {
                    return;
                }
            }
        }
        assert!(checked > 5, "the sweep must exercise real pairs");
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let engine = gedgw_engine();
        let ds = small_dataset(6, 11);
        let m = engine.distance_matrix(&ds).unwrap();
        assert_eq!(m.size(), 6);
        assert_eq!(m.ids(), ds.ids().as_slice());
        for i in 0..6 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..6 {
                assert_eq!(m.get(i, j).to_bits(), m.get(j, i).to_bits());
                assert_eq!(m.get_by_ids(m.ids()[i], m.ids()[j]), Some(m.get(i, j)));
            }
            assert_eq!(m.row(i).len(), 6);
        }
        let foreign = small_dataset(1, 12).ids()[0];
        assert_eq!(m.get_by_ids(foreign, m.ids()[0]), None);
    }

    #[test]
    fn prediction_cache_memoizes_without_changing_results() {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let cached = GedEngine::builder(registry)
            .prediction_cache(64)
            .threads(1)
            .build()
            .unwrap();
        let plain = gedgw_engine();

        let ds = small_dataset(4, 21);
        let gs: Vec<&Graph> = ds.graphs().collect();
        let pair = GedPair::new(gs[0].clone(), gs[1].clone());
        let a = cached.predict(&pair).unwrap();
        assert_eq!(cached.cached_predictions(), Some(1));
        let b = cached.predict(&pair).unwrap();
        assert_eq!(cached.cached_predictions(), Some(1), "second hit memoized");
        let reference = plain.predict(&pair).unwrap();
        assert_eq!(a.ged.to_bits(), reference.ged.to_bits());
        assert_eq!(b.ged.to_bits(), reference.ged.to_bits());
        assert_eq!(plain.cached_predictions(), None);
    }

    #[test]
    fn batch_queries_preserve_order() {
        let engine = gedgw_engine();
        let ds = small_dataset(6, 33);
        let gs: Vec<&Graph> = ds.graphs().collect();
        let pairs: Vec<GedPair> = (0..ds.len() - 1)
            .map(|i| GedPair::new(gs[i].clone(), gs[i + 1].clone()))
            .collect();
        let queries: Vec<GedQuery<'_>> =
            pairs.iter().map(|pair| GedQuery::Value { pair }).collect();
        let batch = engine.query_batch(&queries, QueryOpts::default());
        assert_eq!(batch.len(), pairs.len());
        for (res, pair) in batch.into_iter().zip(&pairs) {
            let got = res.unwrap().into_value().unwrap();
            let want = engine.predict(pair).unwrap();
            assert_eq!(got.ged.to_bits(), want.ged.to_bits());
        }
    }
}
