//! The typed request/response query API over every GED method.
//!
//! [`GedEngine`] is the stable front door the harness, the examples, and
//! any future server/CLI layer sit on. It owns a [`SolverRegistry`]
//! (method implementations keyed by [`MethodKind`]), a [`BatchRunner`]
//! (so store-level queries parallelize), a default method, a default
//! edit-path beam width, and an optional prediction cache — all chosen
//! through [`GedEngineBuilder`].
//!
//! Requests are [`GedQuery`] values, answers are [`GedResponse`] values,
//! and every failure mode (unknown method, method missing from the
//! registry, empty graphs, zero budgets, empty stores, foreign or removed
//! [`GraphId`]s) is a [`GedError`] — the engine never panics on bad
//! input.
//!
//! | query | answer | workload |
//! |-------|--------|----------|
//! | [`GedQuery::Value`] | [`GedResponse::Value`] | one pair, value estimate |
//! | [`GedQuery::Path`] | [`GedResponse::Path`] | one pair, feasible edit path |
//! | [`GedQuery::TopK`] | [`GedResponse::TopK`] | query graph vs. store, ranked neighbors |
//! | [`GedQuery::Range`] | [`GedResponse::Range`] | query graph vs. store, all within estimated GED ≤ τ |
//! | [`GedQuery::RangeExact`] | [`GedResponse::RangeExact`] | query graph vs. store, all within **exact** GED ≤ τ |
//! | [`GedQuery::Matrix`] | [`GedResponse::Matrix`] | full pairwise distance matrix |
//! | [`GedQuery::SelfJoin`] | [`GedResponse::SelfJoin`] | all store pairs within **exact** GED ≤ τ |
//! | [`GedQuery::Join`] | [`GedResponse::Join`] | all cross-store pairs within **exact** GED ≤ τ |
//!
//! # Filter–verify search
//!
//! `TopK` and `Range` run over a [`GraphStore`] as a two-phase
//! *filter–verify* plan, the classic GED search architecture the paper's
//! similarity-search application calls for. The **filter** phase reads
//! only the store's precomputed [`ged_graph::GraphSignature`]s and the
//! query's, feeding them to the admissible label-set and degree-sequence
//! lower bounds: any candidate whose bound already exceeds the range
//! threshold τ (or, for top-k, the running k-th-best distance) is
//! discarded without ever invoking a solver. The **verify** phase runs
//! the surviving candidates through the selected solver in parallel via
//! the engine's [`BatchRunner`]. For a solver that declares
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
//! [`GedQuery::RangeExact`] is the τ-**exact** variant of `Range`: it
//! retrieves every stored graph whose *true* GED to the query is `≤ τ`,
//! with exact distances, through the paper's three-tier
//! filter–prune–verify plan (Section 2; see [`crate::search`]):
//!
//! 1. **filter** — the signature-fed label-set and degree-sequence lower
//!    bounds discard candidates with `bound > τ` (no graph access at all);
//! 2. **prune** — the feasible GEDGW best-matching-rounding upper bound
//!    ([`crate::search::fast_upper_bound`]) *accepts* candidates with
//!    `bound ≤ τ` without any τ-bounded search (the exact distance is then
//!    recovered by a search bounded by the tighter feasible bound itself);
//! 3. **verify** — survivors run the τ-bounded exact A\*
//!    ([`crate::search::bounded_exact_ged_with_budget`]) in parallel
//!    through the engine's [`BatchRunner`].
//!
//! Unlike the approximate plan, no solver is consulted: every tier is
//! exact or admissible, so the answer is **provably** equal to running
//! [`crate::search::bounded_exact_ged`] against every stored graph —
//! independent of the selected method, the thread count, the order
//! candidates are processed in, and (under an unlimited
//! [`GedEngineBuilder::verify_budget`]) whether the pivot tier below is
//! enabled; a finite budget decides the same candidates correctly but
//! may split them differently between `matches` and `budget_exhausted`
//! depending on which bound each plan searched under. Exact search can still blow up on a
//! pathological pair, so [`GedEngineBuilder::verify_budget`] caps the
//! node expansions any single verification may spend; candidates that
//! exhaust the budget are reported per-id in
//! [`RangeExactResult::budget_exhausted`] — keeping whatever membership
//! evidence was already proven ([`UndecidedCandidate::known_match_ub`])
//! — instead of failing or stalling the whole query.
//! [`ExactSearchStats`] accounts every stored graph to exactly one tier.
//!
//! # The pivot tier
//!
//! GED is a metric, so exact distances to a few reference graphs bound
//! every query–candidate distance through the triangle inequality:
//! `max_i |d(q,p_i) − d(p_i,g)| ≤ GED(q,g) ≤ min_i d(q,p_i) + d(p_i,g)`.
//! [`GedEngineBuilder::pivots`] makes the engine maintain a
//! [`ged_graph::PivotIndex`] — `p` pivots chosen by deterministic
//! farthest-point selection, graph-to-pivot GEDs computed by the
//! τ-free budgeted exact search ([`crate::search::pivot_distance`],
//! degrading to admissible `[lb, ub]` intervals when
//! [`GedEngineBuilder::verify_budget`] bites) and kept in sync with the
//! queried store incrementally. Each store query then spends `p`
//! query-to-pivot distance computations per pivot block it reaches to
//! get per-candidate metric bounds for free. Arming is lazy: a shard is
//! armed only after the signature shard tier failed to skip it, and a
//! query equal to a stored graph copies that graph's table row instead
//! (zero computations; [`SearchStats::pivot_distances`] counts the rest).
//! The bounds are wired in as:
//!
//! * **`TopK` / `Range`** — the pivot lower bound joins the filter phase
//!   (prune when `lb > ` k-th best / τ; [`SearchStats::pruned_pivot`]),
//!   and verified estimates clamp into `[lb, ub]`
//!   (`min(max(prediction, lb), ub)`). The interval provably contains
//!   the exact GED, so clamping only moves estimates toward it; for
//!   `Range`, a pivot upper bound within τ additionally *certifies*
//!   membership before the solver runs ([`SearchStats::accepted_pivot`]).
//!   The plans stay exactly equal to a brute-force scan applying the
//!   same two-sided refinement (the PR-3 contract, extended) — but note
//!   the refinement means reported *estimates* can differ from (and are
//!   never worse than) the pivot-disabled ones.
//! * **`RangeExact`** — the pivot lower bound discards *before* the
//!   signature bounds ([`ExactSearchStats::pruned_pivot`]) and the pivot
//!   upper bound accepts *before* the GEDGW bound
//!   ([`ExactSearchStats::accepted_pivot`], exact distance recovered by
//!   a pivot-ub-bounded search). Every tier is exact or admissible, so
//!   with an unlimited verify budget results are bit-identical to the
//!   pivot-disabled plan — the tier only saves work. Under a finite
//!   budget every decided answer is still correct, but the two plans
//!   search under different bounds, so a candidate can land in
//!   `matches` under one and in `budget_exhausted` under the other.
//!
//! # Example
//!
//! ```
//! use ged_core::engine::{GedEngine, GedQuery, GedResponse};
//! use ged_core::method::MethodKind;
//! use ged_core::solver::{GedgwSolver, SolverRegistry};
//! use ged_graph::{Graph, GraphStore, Label};
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
//! let _id2 = store.insert(g2);
//! let result = engine.top_k(&g1, &store, 1).unwrap();
//! assert_eq!(result.neighbors[0].id, id1, "g1 is its own nearest neighbor");
//! ```

use crate::error::GedError;
use crate::method::MethodKind;
use crate::pairs::GedPair;
use crate::plan::PlanStore;
use crate::search::{pivot_distance_in, ExactSearchStats, JoinStats};
use crate::solver::{
    BatchRunner, GedEstimate, GedSolver, PathEstimate, SolverRegistry, SolverScratch,
};
use crate::workspace::GedWorkspace;
use ged_graph::{Graph, GraphId, GraphSignature, GraphStore, PivotIndex, ShardedStore};
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

/// A typed request against a [`GedEngine`].
///
/// Pair-level queries borrow a normalized [`GedPair`]; store-level
/// queries borrow the [`GraphStore`], so building a query never clones
/// graphs.
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
        store: &'a GraphStore,
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
        store: &'a GraphStore,
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
        store: &'a GraphStore,
        /// The GED threshold τ. GED is integral, so a fractional τ means
        /// `GED ≤ ⌊τ⌋`; NaN is rejected; `+∞` degrades to exact GED
        /// computation over the whole store (full scan); a negative τ
        /// matches nothing.
        tau: f64,
    },
    /// Compute the full pairwise distance matrix of a store.
    Matrix {
        /// The store to compare pairwise.
        store: &'a GraphStore,
    },
    /// Retrieve every pair of stored graphs whose **exact** GED is at
    /// most `tau` — the GED self-join (all `n·(n−1)/2` unordered pairs),
    /// via the shared-work join plan of [`crate::plan`].
    SelfJoin {
        /// The store to join with itself.
        store: &'a GraphStore,
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
        store: &'a GraphStore,
        /// The right store (e.g. the corpus).
        other: &'a GraphStore,
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
/// the deadline-free one. Attach one to an engine call via
/// [`GedEngine::with_deadline`].
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
    default_tau: Option<f64>,
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
            default_tau: None,
        }
    }

    /// Selects the engine's default method (used by [`GedEngine::query`]
    /// and the typed convenience calls).
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

    /// Sets the engine's default range threshold τ, consumed by
    /// [`GedEngine::range_default`] and [`GedEngine::range_exact_default`]
    /// (unset by default). Must not be NaN at [`Self::build`] time; the
    /// other τ semantics (`+∞` full scan, negative matches nothing)
    /// follow [`GedQuery::Range`].
    #[must_use]
    pub fn default_tau(mut self, tau: f64) -> Self {
        self.default_tau = Some(tau);
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    /// * [`GedError::Config`] — the registry is empty, the beam width or
    ///   verify budget is zero, or the default τ is NaN.
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
        if self.default_tau.is_some_and(f64::is_nan) {
            return Err(GedError::Config(
                "default range threshold must not be NaN".to_string(),
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
            default_tau: self.default_tau,
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
    /// The default range threshold of [`Self::range_default`] /
    /// [`Self::range_exact_default`] (validated non-NaN at build time).
    default_tau: Option<f64>,
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

    /// The configured default range threshold
    /// ([`GedEngineBuilder::default_tau`]), if any. Never NaN.
    #[must_use]
    pub fn default_tau(&self) -> Option<f64> {
        self.default_tau
    }

    /// Range search at the engine's default threshold
    /// ([`GedEngineBuilder::default_tau`]), with the default method.
    ///
    /// # Errors
    /// [`GedError::Config`] if no default τ was configured; otherwise see
    /// [`Self::range_as`].
    pub fn range_default(
        &self,
        query: &Graph,
        store: &GraphStore,
    ) -> Result<SearchResult, GedError> {
        let tau = self.require_default_tau()?;
        self.range_as(self.method, query, store, tau)
    }

    /// Exact range search at the engine's default threshold
    /// ([`GedEngineBuilder::default_tau`]), with the default method.
    ///
    /// # Errors
    /// [`GedError::Config`] if no default τ was configured; otherwise see
    /// [`Self::range_exact_as`].
    pub fn range_exact_default(
        &self,
        query: &Graph,
        store: &GraphStore,
    ) -> Result<RangeExactResult, GedError> {
        let tau = self.require_default_tau()?;
        self.range_exact_as(self.method, query, store, tau)
    }

    fn require_default_tau(&self) -> Result<f64, GedError> {
        self.default_tau.ok_or_else(|| {
            GedError::Config(
                "no default range threshold configured (GedEngineBuilder::default_tau)".to_string(),
            )
        })
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

    /// Answers `query` with the engine's default method.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn query(&self, query: GedQuery<'_>) -> Result<GedResponse, GedError> {
        self.query_as(self.method, query)
    }

    /// Answers `query` with an explicit method, overriding the default.
    ///
    /// # Errors
    /// * [`GedError::MethodNotRegistered`] — no solver for `method`.
    /// * [`GedError::EmptyGraph`] — an input graph has no nodes.
    /// * [`GedError::PathsUnsupported`] — a `Path` query against a pure
    ///   value regressor.
    /// * [`GedError::InvalidK`] — a zero beam width or top-k size.
    /// * [`GedError::EmptyStore`] — a store-level query against an
    ///   empty store.
    /// * [`GedError::Config`] — a NaN range threshold.
    pub fn query_as(
        &self,
        method: MethodKind,
        query: GedQuery<'_>,
    ) -> Result<GedResponse, GedError> {
        match query {
            GedQuery::Value { pair } => self.predict_as(method, pair).map(GedResponse::Value),
            GedQuery::Path { pair, k } => self.edit_path_as(method, pair, k).map(GedResponse::Path),
            GedQuery::TopK { query, store, k } => self
                .top_k_as(method, query, store, k)
                .map(GedResponse::TopK),
            GedQuery::Range { query, store, tau } => self
                .range_as(method, query, store, tau)
                .map(GedResponse::Range),
            GedQuery::RangeExact { query, store, tau } => self
                .range_exact_as(method, query, store, tau)
                .map(GedResponse::RangeExact),
            GedQuery::Matrix { store } => self
                .distance_matrix_as(method, store)
                .map(GedResponse::Matrix),
            GedQuery::SelfJoin { store, tau } => self
                .self_join_as(method, store, tau)
                .map(GedResponse::SelfJoin),
            GedQuery::Join { store, other, tau } => self
                .join_as(method, store, other, tau)
                .map(GedResponse::Join),
        }
    }

    /// Answers a batch of queries in parallel (input order preserved,
    /// results bit-identical to a sequential loop), with the default
    /// method.
    #[must_use]
    pub fn query_batch(&self, queries: &[GedQuery<'_>]) -> Vec<Result<GedResponse, GedError>> {
        self.query_batch_as(self.method, queries)
    }

    /// Answers a batch of queries in parallel with an explicit method.
    #[must_use]
    pub fn query_batch_as(
        &self,
        method: MethodKind,
        queries: &[GedQuery<'_>],
    ) -> Vec<Result<GedResponse, GedError>> {
        self.runner.map(queries, |q| self.query_as(method, *q))
    }

    // -- typed conveniences (thin wrappers over the same logic) ----------

    /// Estimates the GED of two graphs with the default method.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn ged(&self, g1: &Graph, g2: &Graph) -> Result<GedEstimate, GedError> {
        self.ged_as(self.method, g1, g2)
    }

    /// Estimates the GED of two graphs with an explicit method.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn ged_as(
        &self,
        method: MethodKind,
        g1: &Graph,
        g2: &Graph,
    ) -> Result<GedEstimate, GedError> {
        ensure_nonempty(g1, "g1")?;
        ensure_nonempty(g2, "g2")?;
        self.predict_as(method, &GedPair::new(g1.clone(), g2.clone()))
    }

    /// Estimates the GED of two *stored* graphs, addressed by id, with
    /// the default method.
    ///
    /// # Errors
    /// See [`Self::ged_by_ids_as`].
    pub fn ged_by_ids(
        &self,
        store: &GraphStore,
        a: GraphId,
        b: GraphId,
    ) -> Result<GedEstimate, GedError> {
        self.ged_by_ids_as(self.method, store, a, b)
    }

    /// Estimates the GED of two stored graphs, addressed by id, with an
    /// explicit method.
    ///
    /// # Errors
    /// [`GedError::UnknownGraphId`] if either id is foreign to `store` or
    /// was removed; otherwise see [`Self::query_as`].
    pub fn ged_by_ids_as(
        &self,
        method: MethodKind,
        store: &GraphStore,
        a: GraphId,
        b: GraphId,
    ) -> Result<GedEstimate, GedError> {
        let ga = resolve(store, a)?;
        let gb = resolve(store, b)?;
        self.ged_as(method, ga, gb)
    }

    /// Estimates the GED of a prepared pair with the default method.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn predict(&self, pair: &GedPair) -> Result<GedEstimate, GedError> {
        self.predict_as(self.method, pair)
    }

    /// Estimates the GED of a prepared pair with an explicit method.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn predict_as(&self, method: MethodKind, pair: &GedPair) -> Result<GedEstimate, GedError> {
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
    /// [`GedPair::new`] must not silently invert them).
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn edit_path(&self, g1: &Graph, g2: &Graph) -> Result<PathEstimate, GedError> {
        ensure_nonempty(g1, "g1")?;
        ensure_nonempty(g2, "g2")?;
        self.edit_path_as(
            self.method,
            &GedPair::directed(g1.clone(), g2.clone()),
            None,
        )
    }

    /// Generates a feasible edit path for a prepared pair with an
    /// explicit method; `k = None` uses the engine's beam width.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn edit_path_as(
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

    /// Ranks `store` by estimated GED to `query` and returns the `k`
    /// nearest graphs, with the default method. See [`Self::top_k_as`].
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn top_k(
        &self,
        query: &Graph,
        store: &GraphStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.top_k_as(self.method, query, store, k)
    }

    /// Ranks `store` by estimated GED to `query` with an explicit method,
    /// through the unified filter–verify pipeline of [`crate::plan`]
    /// (the flat store is the one-shard special case): candidates are
    /// processed in ascending-lower-bound order, and once `k` candidates
    /// are verified, any candidate whose lower bound exceeds the running
    /// k-th-best distance is discarded unverified. Verification runs in
    /// parallel through the engine's [`BatchRunner`]; the ranking sorts
    /// by ascending (bound-refined) GED with ties broken by id, so it is
    /// fully deterministic and exactly equal to a brute-force scan. A `k`
    /// larger than the store is clamped (every graph is returned,
    /// ranked).
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn top_k_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &GraphStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.plan_top_k(method, query, PlanStore::Flat(store), k, Deadline::NONE)
    }

    /// Ranks `store` by estimated GED to the *stored* graph `id`, with
    /// the default method.
    ///
    /// # Errors
    /// See [`Self::top_k_by_id_as`].
    pub fn top_k_by_id(
        &self,
        store: &GraphStore,
        id: GraphId,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.top_k_by_id_as(self.method, store, id, k)
    }

    /// Ranks `store` by estimated GED to the stored graph `id` with an
    /// explicit method. The query graph itself stays in the candidate set
    /// (its self-distance ranks it first for any sane solver).
    ///
    /// # Errors
    /// [`GedError::UnknownGraphId`] if `id` is foreign to `store` or was
    /// removed; otherwise see [`Self::query_as`].
    pub fn top_k_by_id_as(
        &self,
        method: MethodKind,
        store: &GraphStore,
        id: GraphId,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        let query = resolve(store, id)?;
        self.top_k_as(method, query, store, k)
    }

    /// Retrieves every stored graph within GED ≤ `tau` of `query`, with
    /// the default method. See [`Self::range_as`].
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn range(
        &self,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.range_as(self.method, query, store, tau)
    }

    /// Retrieves every stored graph within GED ≤ `tau` of `query` with an
    /// explicit method, through the filter–verify plan of the
    /// [module docs](self): the label-set bound discards first, the
    /// degree-sequence bound second, and only the surviving candidates
    /// are verified (in parallel through the engine's [`BatchRunner`]).
    /// Results sort by ascending (bound-refined) GED with ties broken by
    /// id, exactly equal to a brute-force scan. `tau = +∞` degrades to a
    /// full scan — every candidate is verified and returned — matching
    /// the τ = ∞ semantics of [`crate::search`].
    ///
    /// # Errors
    /// [`GedError::Config`] if `tau` is NaN; otherwise see
    /// [`Self::query_as`].
    pub fn range_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.plan_range(method, query, PlanStore::Flat(store), tau, Deadline::NONE)
    }

    /// Range search around the *stored* graph `id`, with the default
    /// method — the `Range` counterpart of [`Self::top_k_by_id`]. The
    /// query graph itself stays in the candidate set (its self-distance
    /// 0 always matches for τ ≥ 0).
    ///
    /// # Errors
    /// See [`Self::range_by_id_as`].
    pub fn range_by_id(
        &self,
        store: &GraphStore,
        id: GraphId,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.range_by_id_as(self.method, store, id, tau)
    }

    /// Range search around the stored graph `id` with an explicit method.
    ///
    /// # Errors
    /// [`GedError::UnknownGraphId`] if `id` is foreign to `store` or was
    /// removed; otherwise see [`Self::range_as`].
    pub fn range_by_id_as(
        &self,
        method: MethodKind,
        store: &GraphStore,
        id: GraphId,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        let query = resolve(store, id)?;
        self.range_as(method, query, store, tau)
    }

    /// Retrieves every stored graph whose **exact** GED to `query` is
    /// ≤ `tau`, with the default method. See [`Self::range_exact_as`].
    ///
    /// # Errors
    /// See [`Self::range_exact_as`].
    pub fn range_exact(
        &self,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.range_exact_as(self.method, query, store, tau)
    }

    /// Retrieves every stored graph whose **exact** GED to `query` is
    /// ≤ `tau`, through the three-tier filter–prune–verify plan of the
    /// [module docs](self): the signature-fed lower bounds discard,
    /// the feasible GEDGW upper bound accepts early, and survivors run
    /// the τ-bounded exact search in parallel through the engine's
    /// [`BatchRunner`], each capped at [`Self::verify_budget`] node
    /// expansions.
    ///
    /// Every tier is exact or admissible, so — unlike every other store
    /// query — the answer does **not** depend on `method`: the parameter
    /// is validated for dispatch symmetry with [`Self::query_as`] but
    /// cannot change the result. `tau` follows [`GedQuery::RangeExact`]:
    /// fractional τ floors, `+∞` is a full exact scan, negative matches
    /// nothing.
    ///
    /// # Errors
    /// [`GedError::Config`] if `tau` is NaN; otherwise see
    /// [`Self::query_as`].
    pub fn range_exact_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.plan_range_exact(method, query, PlanStore::Flat(store), tau, Deadline::NONE)
    }

    /// Exact range search around the *stored* graph `id`, with the
    /// default method. The query graph itself stays in the candidate set
    /// (its self-distance 0 always matches for τ ≥ 0).
    ///
    /// # Errors
    /// [`GedError::UnknownGraphId`] if `id` is foreign to `store` or was
    /// removed; otherwise see [`Self::range_exact_as`].
    pub fn range_exact_by_id(
        &self,
        store: &GraphStore,
        id: GraphId,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        let query = resolve(store, id)?;
        self.range_exact_as(self.method, query, store, tau)
    }

    /// Computes the pairwise distance matrix of `store` with the
    /// default method. See [`Self::distance_matrix_as`].
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn distance_matrix(&self, store: &GraphStore) -> Result<DistanceMatrix, GedError> {
        self.distance_matrix_as(self.method, store)
    }

    /// Computes the pairwise distance matrix of `store` with an
    /// explicit method. Only the upper triangle is evaluated (GED is
    /// symmetric) — `n·(n−1)/2` predictions, parallelized through the
    /// engine's [`BatchRunner`] — then mirrored; the diagonal is zero.
    /// Entries are raw solver predictions (no bound refinement), matching
    /// per-pair [`Self::predict_as`] calls bit for bit.
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn distance_matrix_as(
        &self,
        method: MethodKind,
        store: &GraphStore,
    ) -> Result<DistanceMatrix, GedError> {
        self.plan_matrix(method, PlanStore::Flat(store), Deadline::NONE)
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

    // -- sharded-store plans ----------------------------------------------
    //
    // The same filter–verify plans, one tier taller: a per-shard
    // aggregate lower bound discards whole shards before any per-graph
    // metadata is read. Shards are visited in ascending
    // [`Shard::signature_lower_bound`] order; a shard that bound does
    // not skip is armed (its query-to-pivot distances computed) and
    // tried again with [`Shard::pivot_lower_bound`] folded in. Per-shard
    // results merge through a result set bounded at `k` (top-k) or
    // filtered at τ (range).
    // Every aggregate bound under-approximates the corresponding
    // per-graph bound, so the answers are bit-identical to the flat
    // plans over the same graphs (ged-testkit property-tests this).
    //
    // The pivot tier is all-or-nothing: shards own their pivot blocks
    // (the engine cannot lazily sync a `&ShardedStore`), so plans use
    // pivots only when [`ShardedStore::pivots_ready`] holds for the
    // engine's target — call [`GedEngine::sync_sharded_pivots`] after
    // mutations to keep the blocks in sync. Stale or absent blocks degrade
    // to the (still exact) pivot-free plan, never to a wrong answer.

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

    /// Ranks the `k` nearest stored graphs with the default method. The
    /// sharded counterpart of [`GedEngine::top_k`]; see
    /// [`GedEngine::top_k_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::top_k_sharded_as`].
    pub fn top_k_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.top_k_sharded_as(self.method, query, store, k)
    }

    /// The four-tier top-k plan over a [`ShardedStore`]: shards whose
    /// aggregate bound exceeds the running k-th best are skipped wholesale
    /// (`pruned_shard`); surviving shards run the flat per-graph plan and
    /// merge into one result set bounded at `k`. Answers are bit-identical
    /// to [`GedEngine::top_k_as`] over the same graphs.
    ///
    /// # Errors
    /// See [`Self::top_k_as`].
    pub fn top_k_sharded_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &ShardedStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        self.plan_top_k(method, query, PlanStore::Sharded(store), k, Deadline::NONE)
    }

    /// Range search with the default method. The sharded counterpart of
    /// [`GedEngine::range`]; see [`GedEngine::range_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::range_sharded_as`].
    pub fn range_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.range_sharded_as(self.method, query, store, tau)
    }

    /// The four-tier range plan over a [`ShardedStore`]: shards whose
    /// aggregate bound exceeds `tau` are skipped wholesale, survivors run
    /// the flat per-graph plan. Answers are bit-identical to
    /// [`GedEngine::range_as`] over the same graphs.
    ///
    /// # Errors
    /// See [`Self::range_as`].
    pub fn range_sharded_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.plan_range(
            method,
            query,
            PlanStore::Sharded(store),
            tau,
            Deadline::NONE,
        )
    }

    /// Range search around the *stored* graph `id` of a [`ShardedStore`],
    /// with the default method — the sharded counterpart of
    /// [`Self::range_by_id`].
    ///
    /// # Errors
    /// See [`Self::range_sharded_by_id_as`].
    pub fn range_sharded_by_id(
        &self,
        store: &ShardedStore,
        id: GraphId,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        self.range_sharded_by_id_as(self.method, store, id, tau)
    }

    /// Range search around the stored graph `id` of a [`ShardedStore`]
    /// with an explicit method.
    ///
    /// # Errors
    /// [`GedError::UnknownGraphId`] if `id` is foreign to `store` or was
    /// removed; otherwise see [`Self::range_sharded_as`].
    pub fn range_sharded_by_id_as(
        &self,
        method: MethodKind,
        store: &ShardedStore,
        id: GraphId,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        let query = resolve_sharded(store, id)?;
        self.range_sharded_as(method, query, store, tau)
    }

    /// Exact range search with the default method. The sharded
    /// counterpart of [`GedEngine::range_exact`]; see
    /// [`GedEngine::range_exact_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::range_exact_sharded_as`].
    pub fn range_exact_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.range_exact_sharded_as(self.method, query, store, tau)
    }

    /// The four-tier exact range plan over a [`ShardedStore`]: shard →
    /// pivot → signature → verify. Shards whose aggregate bound exceeds
    /// ⌊τ⌋ contribute their whole population to `pruned_shard`; survivors
    /// run the flat per-graph tiers, and the cross-shard survivor set is
    /// verified in one parallel batch in globally ascending id order —
    /// the same order, outcomes, and matches as
    /// [`GedEngine::range_exact_as`] over the same graphs.
    /// [`ExactSearchStats::total`] still closes to the store size.
    ///
    /// # Errors
    /// See [`Self::range_exact_as`].
    pub fn range_exact_sharded_as(
        &self,
        method: MethodKind,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        self.plan_range_exact(
            method,
            query,
            PlanStore::Sharded(store),
            tau,
            Deadline::NONE,
        )
    }

    /// Pairwise distance matrix of a [`ShardedStore`] with the default
    /// method. See [`Self::distance_matrix_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn distance_matrix_sharded(
        &self,
        store: &ShardedStore,
    ) -> Result<DistanceMatrix, GedError> {
        self.distance_matrix_sharded_as(self.method, store)
    }

    /// Pairwise distance matrix of a [`ShardedStore`]: the same kernel as
    /// [`GedEngine::distance_matrix_as`] over the globally id-ordered
    /// graph sequence, so the result is bit-identical to the flat matrix
    /// of the same graphs. (No shard tier here — every pair must be
    /// computed.)
    ///
    /// # Errors
    /// See [`Self::query_as`].
    pub fn distance_matrix_sharded_as(
        &self,
        method: MethodKind,
        store: &ShardedStore,
    ) -> Result<DistanceMatrix, GedError> {
        self.plan_matrix(method, PlanStore::Sharded(store), Deadline::NONE)
    }

    // -- GED joins --------------------------------------------------------

    /// GED self-join with the default method: every unordered pair of
    /// stored graphs with exact GED ≤ `tau`. See [`Self::self_join_as`].
    ///
    /// # Errors
    /// See [`Self::self_join_as`].
    pub fn self_join(&self, store: &GraphStore, tau: f64) -> Result<JoinResult, GedError> {
        self.self_join_as(self.method, store, tau)
    }

    /// GED self-join over a flat store: every unordered pair of stored
    /// graphs (all `n·(n−1)/2`) whose **exact** GED is ≤ `tau`, through
    /// the shared-work join plan of [`crate::plan`] — one pivot-table
    /// arming serves every row, candidates stream in signature-sort
    /// order so the size-difference bound prunes whole contiguous
    /// bands, duplicate pairs verify once, and survivors run the
    /// τ-bounded exact search in parallel under
    /// [`Self::verify_budget`].
    ///
    /// Like [`Self::range_exact_as`], every tier is exact or
    /// admissible, so the answer does not depend on `method` (validated
    /// for dispatch symmetry only) and is provably equal to a
    /// brute-force [`crate::search::bounded_exact_ged`] nested loop.
    /// `tau` semantics follow [`GedQuery::SelfJoin`].
    ///
    /// # Errors
    /// [`GedError::Config`] if `tau` is NaN; otherwise see
    /// [`Self::query_as`].
    pub fn self_join_as(
        &self,
        method: MethodKind,
        store: &GraphStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_self_join(method, PlanStore::Flat(store), tau, Deadline::NONE)
    }

    /// GED self-join of a [`ShardedStore`] with the default method. See
    /// [`Self::self_join_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::self_join_sharded_as`].
    pub fn self_join_sharded(
        &self,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.self_join_sharded_as(self.method, store, tau)
    }

    /// GED self-join of a [`ShardedStore`]: shard×shard blocks whose
    /// aggregate bound ([`ged_graph::Shard::block_lower_bound`]) exceeds
    /// ⌊τ⌋ are discarded wholesale before any per-graph work; surviving
    /// blocks run the same banded per-pair tiers as the flat plan (the
    /// pivot tier serves same-shard pairs from each shard's own block
    /// when [`ShardedStore::pivots_ready`] holds). With an unlimited
    /// verify budget the matches are bit-identical to
    /// [`Self::self_join_as`] over the same graphs.
    ///
    /// # Errors
    /// See [`Self::self_join_as`].
    pub fn self_join_sharded_as(
        &self,
        method: MethodKind,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_self_join(method, PlanStore::Sharded(store), tau, Deadline::NONE)
    }

    /// GED cross-store join with the default method: every pair with
    /// one graph from `left` and one from `right` and exact GED ≤
    /// `tau`. See [`Self::join_as`].
    ///
    /// # Errors
    /// See [`Self::join_as`].
    pub fn join(
        &self,
        left: &GraphStore,
        right: &GraphStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.join_as(self.method, left, right, tau)
    }

    /// GED cross-store join over two flat stores: every `(a, b)` pair
    /// (`a` from `left`, `b` from `right`, all `n·m`) whose **exact**
    /// GED is ≤ `tau`, through the shared-work join plan of
    /// [`crate::plan`] — the right store's pivot table is built once
    /// and armed once per left row, both sides stream in signature-sort
    /// order so the size-difference bound prunes contiguous bands, and
    /// structurally identical pairs (including `left == right`
    /// symmetric duplicates, via [`GedPair`]'s canonical orientation)
    /// verify once. Answer semantics follow [`Self::self_join_as`].
    ///
    /// # Errors
    /// [`GedError::Config`] if `tau` is NaN; otherwise see
    /// [`Self::query_as`].
    pub fn join_as(
        &self,
        method: MethodKind,
        left: &GraphStore,
        right: &GraphStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_join(
            method,
            PlanStore::Flat(left),
            PlanStore::Flat(right),
            tau,
            Deadline::NONE,
        )
    }

    /// GED join of a flat query batch against a sharded corpus, with
    /// the default method. See [`Self::join_sharded_as`].
    ///
    /// # Errors
    /// See [`Self::join_sharded_as`].
    pub fn join_sharded(
        &self,
        left: &GraphStore,
        right: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.join_sharded_as(self.method, left, right, tau)
    }

    /// GED join of a flat query batch (`left`) against a sharded corpus
    /// (`right`): corpus shards whose aggregate block bound against the
    /// batch exceeds ⌊τ⌋ are discarded wholesale, and each surviving
    /// shard's pivot block serves its candidates (armed once per left
    /// row per shard) when [`ShardedStore::pivots_ready`] holds. With
    /// an unlimited verify budget the matches are bit-identical to
    /// [`Self::join_as`] over the same graphs.
    ///
    /// # Errors
    /// See [`Self::join_as`].
    pub fn join_sharded_as(
        &self,
        method: MethodKind,
        left: &GraphStore,
        right: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        self.plan_join(
            method,
            PlanStore::Flat(left),
            PlanStore::Sharded(right),
            tau,
            Deadline::NONE,
        )
    }

    /// Binds a cooperative [`Deadline`] to this engine's store-level
    /// queries: every call through the returned handle checks the
    /// deadline between verification blocks and answers
    /// [`GedError::DeadlineExceeded`] instead of running long past it.
    /// `Deadline::NONE` recovers the plain methods exactly.
    #[must_use]
    pub fn with_deadline(&self, deadline: Deadline) -> DeadlineBound<'_> {
        DeadlineBound {
            engine: self,
            deadline,
        }
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

/// A [`GedEngine`] handle with a cooperative [`Deadline`] bound to every
/// store-level query (see [`GedEngine::with_deadline`]). All methods use
/// the engine's default method and mirror the plain entry points
/// exactly, except that execution stops with
/// [`GedError::DeadlineExceeded`] at the first verification-block
/// boundary past the deadline.
#[derive(Clone, Copy)]
pub struct DeadlineBound<'e> {
    engine: &'e GedEngine,
    deadline: Deadline,
}

impl DeadlineBound<'_> {
    /// Deadline-checked [`GedEngine::top_k`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::top_k_as`].
    pub fn top_k(
        &self,
        query: &Graph,
        store: &GraphStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        let e = self.engine;
        e.plan_top_k(e.method, query, PlanStore::Flat(store), k, self.deadline)
    }

    /// Deadline-checked [`GedEngine::top_k_sharded`].
    ///
    /// # Errors
    /// See [`Self::top_k`].
    pub fn top_k_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        k: usize,
    ) -> Result<SearchResult, GedError> {
        let e = self.engine;
        e.plan_top_k(e.method, query, PlanStore::Sharded(store), k, self.deadline)
    }

    /// Deadline-checked [`GedEngine::range`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::range_as`].
    pub fn range(
        &self,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        let e = self.engine;
        e.plan_range(e.method, query, PlanStore::Flat(store), tau, self.deadline)
    }

    /// Deadline-checked [`GedEngine::range_sharded`].
    ///
    /// # Errors
    /// See [`Self::range`].
    pub fn range_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<SearchResult, GedError> {
        let e = self.engine;
        e.plan_range(
            e.method,
            query,
            PlanStore::Sharded(store),
            tau,
            self.deadline,
        )
    }

    /// Deadline-checked [`GedEngine::range_exact`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::range_exact_as`].
    pub fn range_exact(
        &self,
        query: &Graph,
        store: &GraphStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        let e = self.engine;
        e.plan_range_exact(e.method, query, PlanStore::Flat(store), tau, self.deadline)
    }

    /// Deadline-checked [`GedEngine::range_exact_sharded`].
    ///
    /// # Errors
    /// See [`Self::range_exact`].
    pub fn range_exact_sharded(
        &self,
        query: &Graph,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<RangeExactResult, GedError> {
        let e = self.engine;
        e.plan_range_exact(
            e.method,
            query,
            PlanStore::Sharded(store),
            tau,
            self.deadline,
        )
    }

    /// Deadline-checked [`GedEngine::distance_matrix`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::distance_matrix_as`].
    pub fn distance_matrix(&self, store: &GraphStore) -> Result<DistanceMatrix, GedError> {
        let e = self.engine;
        e.plan_matrix(e.method, PlanStore::Flat(store), self.deadline)
    }

    /// Deadline-checked [`GedEngine::distance_matrix_sharded`].
    ///
    /// # Errors
    /// See [`Self::distance_matrix`].
    pub fn distance_matrix_sharded(
        &self,
        store: &ShardedStore,
    ) -> Result<DistanceMatrix, GedError> {
        let e = self.engine;
        e.plan_matrix(e.method, PlanStore::Sharded(store), self.deadline)
    }

    /// Deadline-checked [`GedEngine::self_join`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::self_join_as`].
    pub fn self_join(&self, store: &GraphStore, tau: f64) -> Result<JoinResult, GedError> {
        let e = self.engine;
        e.plan_self_join(e.method, PlanStore::Flat(store), tau, self.deadline)
    }

    /// Deadline-checked [`GedEngine::self_join_sharded`].
    ///
    /// # Errors
    /// See [`Self::self_join`].
    pub fn self_join_sharded(
        &self,
        store: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        let e = self.engine;
        e.plan_self_join(e.method, PlanStore::Sharded(store), tau, self.deadline)
    }

    /// Deadline-checked [`GedEngine::join`].
    ///
    /// # Errors
    /// [`GedError::DeadlineExceeded`] past the deadline; otherwise see
    /// [`GedEngine::join_as`].
    pub fn join(
        &self,
        left: &GraphStore,
        right: &GraphStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        let e = self.engine;
        e.plan_join(
            e.method,
            PlanStore::Flat(left),
            PlanStore::Flat(right),
            tau,
            self.deadline,
        )
    }

    /// Deadline-checked [`GedEngine::join_sharded`].
    ///
    /// # Errors
    /// See [`Self::join`].
    pub fn join_sharded(
        &self,
        left: &GraphStore,
        right: &ShardedStore,
        tau: f64,
    ) -> Result<JoinResult, GedError> {
        let e = self.engine;
        e.plan_join(
            e.method,
            PlanStore::Flat(left),
            PlanStore::Sharded(right),
            tau,
            self.deadline,
        )
    }
}

/// Resolves `id` in `store`, surfacing a typed error instead of a panic.
fn resolve(store: &GraphStore, id: GraphId) -> Result<&Graph, GedError> {
    store.get(id).ok_or(GedError::UnknownGraphId(id))
}

/// Resolves `id` in a [`ShardedStore`] — the sharded analogue of
/// [`resolve`].
fn resolve_sharded(store: &ShardedStore, id: GraphId) -> Result<&Graph, GedError> {
    store.get(id).ok_or(GedError::UnknownGraphId(id))
}

/// Rejects empty stores and stores containing node-less graphs. Reads
/// only the precomputed signatures, so validation never touches a graph.
pub(crate) fn ensure_store_valid(store: &GraphStore) -> Result<(), GedError> {
    if store.is_empty() {
        return Err(GedError::EmptyStore);
    }
    for (id, _, sig) in store.entries() {
        if sig.num_nodes() == 0 {
            return Err(GedError::EmptyGraph(format!("store graph {id}")));
        }
    }
    Ok(())
}

/// Rejects node-less graphs with a [`GedError::EmptyGraph`] naming the
/// offending input.
pub(crate) fn ensure_nonempty(g: &Graph, which: &str) -> Result<(), GedError> {
    if g.num_nodes() == 0 {
        return Err(GedError::EmptyGraph(which.to_string()));
    }
    Ok(())
}

/// Rejects empty sharded stores and stores containing node-less graphs —
/// the same contract (and error messages) as [`ensure_store_valid`].
pub(crate) fn ensure_sharded_store_valid(store: &ShardedStore) -> Result<(), GedError> {
    if store.is_empty() {
        return Err(GedError::EmptyStore);
    }
    for (id, _, sig) in store.entries() {
        if sig.num_nodes() == 0 {
            return Err(GedError::EmptyGraph(format!("store graph {id}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bound::{degree_sequence_lower_bound, label_set_lower_bound};
    use crate::solver::GedgwSolver;
    use ged_graph::GraphDataset;
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

        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let err = GedEngine::builder(registry)
            .default_tau(f64::NAN)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GedError::Config("default range threshold must not be NaN".to_string())
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
                store: &ds,
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
                    store: &ds,
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
    fn range_exact_is_method_independent_and_resolves_ids() {
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

        // Exact search consults no solver: every method gives the answer.
        let a = engine
            .range_exact_as(MethodKind::Gedgw, &query, &ds, 4.0)
            .unwrap();
        let b = engine
            .range_exact_as(MethodKind::Gedhot, &query, &ds, 4.0)
            .unwrap();
        assert_eq!(a, b, "exact answers cannot depend on the method");
        // ... but an unregistered method still errors, like every query.
        let err = engine
            .range_exact_as(MethodKind::Classic, &query, &ds, 4.0)
            .unwrap_err();
        assert_eq!(err, GedError::MethodNotRegistered(MethodKind::Classic));

        let by_id = engine.range_exact_by_id(&ds, ids[0], 4.0).unwrap();
        assert_eq!(by_id, a, "by-id resolves to the same query");
        assert!(by_id.matches.iter().any(|m| m.id == ids[0] && m.ged == 0));

        let foreign = small_dataset(1, 59).ids()[0];
        let err = engine.range_exact_by_id(&ds, foreign, 4.0).unwrap_err();
        assert_eq!(err, GedError::UnknownGraphId(foreign));
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
    fn by_id_queries_resolve_and_error() {
        let engine = gedgw_engine();
        let ds = small_dataset(6, 5);
        let ids = ds.ids();

        let direct = engine.ged(&ds[ids[0]], &ds[ids[1]]).unwrap();
        let by_id = engine.ged_by_ids(&ds, ids[0], ids[1]).unwrap();
        assert_eq!(direct, by_id);

        let result = engine.top_k_by_id(&ds, ids[2], 3).unwrap();
        assert_eq!(result.neighbors[0].id, ids[2], "self-distance ranks first");

        // A foreign id comes from another store entirely.
        let foreign = small_dataset(2, 6).ids()[0];
        let err = engine.ged_by_ids(&ds, foreign, ids[1]).unwrap_err();
        assert_eq!(err, GedError::UnknownGraphId(foreign));
        let err = engine.top_k_by_id(&ds, foreign, 2).unwrap_err();
        assert_eq!(err, GedError::UnknownGraphId(foreign));

        // A removed id stops resolving.
        let mut ds = ds;
        ds.remove(ids[3]);
        let err = engine.top_k_by_id(&ds, ids[3], 2).unwrap_err();
        assert_eq!(err, GedError::UnknownGraphId(ids[3]));
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
        let batch = engine.query_batch(&queries);
        assert_eq!(batch.len(), pairs.len());
        for (res, pair) in batch.into_iter().zip(&pairs) {
            let got = res.unwrap().into_value().unwrap();
            let want = engine.predict(pair).unwrap();
            assert_eq!(got.ged.to_bits(), want.ged.to_bits());
        }
    }
}
