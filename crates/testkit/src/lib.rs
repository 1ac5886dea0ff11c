//! Shared test harness for the `ot-ged` workspace: deterministic
//! store/dataset builders, seeded RNG fixtures, engine constructors over
//! the training-free solvers, and the brute-force oracles every
//! filter–verify search plan must reproduce exactly.
//!
//! The integration suites (`tests/engine.rs`, `tests/store_search.rs`,
//! `tests/pivot_search.rs`) had accreted copy-pasted store builders and
//! per-file brute-force scans; this crate is their single home. Every
//! fixture is seeded, so each helper returns bit-identical data on every
//! call, in every test binary, at any thread count.
//!
//! # Oracles
//!
//! * [`brute_force_refined`] — the full bound-refined ranking the
//!   approximate plans (`TopK` / `Range`) must equal: one solver call
//!   per stored graph, each prediction clamped into the admissible
//!   bound interval the engine applies, sorted by `(ged, id)`.
//! * [`brute_top_k`] / [`brute_range`] — the same ranking truncated /
//!   thresholded exactly like the engine's queries.
//! * [`brute_range_exact`] — the τ-bounded **exact** scan
//!   (`GedQuery::RangeExact` ground truth): every stored graph searched
//!   directly, ascending id order.
//!
//! The approximate oracles take the engine's pivot bounds
//! ([`ged_core::engine::GedEngine::pivot_bounds`]) as an `Option` so one
//! oracle covers both the signature-only plan (`None` — the classic
//! `max(prediction, lb)` refinement) and the pivot plan (`Some` — the
//! two-sided `min(max(prediction, lb), ub)` refinement).
//!
//! Every oracle has a `_sharded` twin over [`ged_graph::ShardedStore`]
//! (taking [`ged_core::engine::GedEngine::sharded_pivot_bounds`] for the
//! pivot plans), and [`sharded_copy`] builds a sharded replica of a flat
//! store together with the id translation the comparisons need.

#![warn(missing_docs)]

pub mod served;
pub mod wire;

use ged_baselines::solvers::ClassicSolver;
use ged_core::engine::{ExactNeighbor, GedEngine, GedEngineBuilder, JoinPair, Neighbor};
use ged_core::lower_bound::{degree_sequence_lower_bound, label_set_lower_bound};
use ged_core::method::MethodKind;
use ged_core::pairs::GedPair;
use ged_core::search::bounded_exact_ged;
use ged_core::solver::{
    GedEstimate, GedSolver, GedgwSolver, PathEstimate, SolverRegistry, SolverScratch,
};
use ged_graph::{Graph, GraphDataset, GraphId, GraphStore, ShardedStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The canonical seed of the property-test stores ([`property_stores`]).
pub const PROPERTY_SEED: u64 = 20_270_101;

/// The engine's per-candidate pivot bounds, as returned by
/// [`ged_core::engine::GedEngine::pivot_bounds`].
pub type PivotBounds = BTreeMap<GraphId, (usize, usize)>;

/// 64-bit FNV-1a, the hash the golden-digest tests (`tests/gedgw_golden.rs`,
/// `tests/kbest_golden.rs`) fold result bits with: a fixed function,
/// unlike `DefaultHasher`, whose output may change between Rust releases.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The empty digest (the FNV offset basis).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the eight little-endian bytes of `x`.
    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministically seeded RNG — the single fixture every builder
/// below derives from.
#[must_use]
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A `count`-graph AIDS-like store (labeled sparse compound graphs —
/// the label-set filter tier bites).
#[must_use]
pub fn aids_store(count: usize, seed: u64) -> GraphDataset {
    GraphDataset::aids_like(count, &mut rng(seed))
}

/// A `count`-graph LINUX-like store (unlabeled sparse graphs — only the
/// structural bounds can prune).
#[must_use]
pub fn linux_store(count: usize, seed: u64) -> GraphDataset {
    GraphDataset::linux_like(count, &mut rng(seed))
}

/// The two stores the property suites sweep: a 60-graph AIDS-like and a
/// 50-graph LINUX-like dataset, drawn from one [`PROPERTY_SEED`] stream
/// (bit-identical on every call).
#[must_use]
pub fn property_stores() -> Vec<GraphDataset> {
    let mut rng = rng(PROPERTY_SEED);
    vec![
        GraphDataset::aids_like(60, &mut rng),
        GraphDataset::linux_like(50, &mut rng),
    ]
}

/// One AIDS-like query graph that is a member of no store built by the
/// helpers above (a fresh seed stream per call site keeps queries and
/// stores independent).
#[must_use]
pub fn external_query(seed: u64) -> Graph {
    GraphDataset::aids_like(1, &mut rng(seed))
        .graphs()
        .next()
        .expect("one graph")
        .clone()
}

/// A boxed solver for the training-free methods the suites sweep.
///
/// # Panics
/// Panics for methods that would require model training — tests stick to
/// GEDGW and Classic on purpose.
#[must_use]
pub fn solver_for(method: MethodKind) -> Box<dyn GedSolver> {
    match method {
        MethodKind::Gedgw => Box::new(GedgwSolver),
        MethodKind::Classic => Box::new(ClassicSolver),
        other => panic!("ged-testkit only covers training-free methods, not {other}"),
    }
}

/// A builder over a registry holding the given training-free methods
/// (see [`solver_for`]) — tweak threads / pivots / budgets, then
/// `build()`. The first listed method becomes the default.
#[must_use]
pub fn engine_builder(methods: &[MethodKind]) -> GedEngineBuilder {
    let mut registry = SolverRegistry::new();
    for &m in methods {
        registry.register(m, solver_for(m));
    }
    let mut builder = GedEngine::builder(registry);
    if let Some(&first) = methods.first() {
        builder = builder.method(first);
    }
    builder
}

/// A [`GedgwSolver`] that counts its prediction calls — the probe the
/// suites use to show how much solver work a plan performs, e.g. that
/// collapsed (`lb == ub`) verification makes none.
///
/// Both [`GedSolver::predict`] and [`GedSolver::predict_scratch`] bump
/// the same shared counter (the engine's batched drivers call either),
/// and both delegate to the real GEDGW solver, so every result — and
/// therefore every search answer — is bit-identical to the stock
/// engine's. Clone the handle from [`CountingSolver::calls`] before
/// registering the solver; the count survives the move into the
/// registry.
pub struct CountingSolver {
    calls: Arc<AtomicUsize>,
}

impl CountingSolver {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        CountingSolver {
            calls: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The shared call counter (reads stay valid after the solver moves
    /// into a [`SolverRegistry`]).
    #[must_use]
    pub fn calls(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.calls)
    }
}

impl Default for CountingSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl GedSolver for CountingSolver {
    fn name(&self) -> &str {
        "GEDGW"
    }

    fn predict(&self, pair: &GedPair) -> GedEstimate {
        self.calls.fetch_add(1, Ordering::Relaxed);
        GedgwSolver.predict(pair)
    }

    fn predict_scratch(&self, pair: &GedPair, scratch: &mut SolverScratch) -> GedEstimate {
        self.calls.fetch_add(1, Ordering::Relaxed);
        GedgwSolver.predict_scratch(pair, scratch)
    }

    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate> {
        GedgwSolver.edit_path(pair, k)
    }
}

/// A builder over a registry holding a single [`CountingSolver`]
/// registered as GEDGW, plus the shared call counter. Results are
/// bit-identical to [`engine_builder`]`(&[MethodKind::Gedgw])`; only
/// the counter is extra.
#[must_use]
pub fn counting_engine_builder() -> (GedEngineBuilder, Arc<AtomicUsize>) {
    let solver = CountingSolver::new();
    let calls = solver.calls();
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(solver));
    let builder = GedEngine::builder(registry).method(MethodKind::Gedgw);
    (builder, calls)
}

/// The standard single-method engine of the suites: GEDGW, `threads`
/// worker threads, no pivots.
#[must_use]
pub fn gedgw_engine(threads: usize) -> GedEngine {
    engine_builder(&[MethodKind::Gedgw])
        .threads(threads)
        .build()
        .expect("GEDGW is registered")
}

/// The two-method engine the method-sweep properties use (GEDGW default,
/// Classic registered alongside).
#[must_use]
pub fn gedgw_classic_engine() -> GedEngine {
    engine_builder(&[MethodKind::Gedgw, MethodKind::Classic])
        .build()
        .expect("both methods are registered")
}

/// The brute-force reference a filter–verify search must reproduce
/// exactly: evaluate every stored graph directly on the solver, refine
/// each prediction into the admissible bound interval the engine applies
/// — `max(prediction, lb)` against the signature lower bounds, further
/// clamped into the pivot `[lb, ub]` interval when `pivot` carries one —
/// and sort by `(ged, id)`.
#[must_use]
pub fn brute_force_refined(
    store: &GraphStore,
    query: &Graph,
    solver: &dyn GedSolver,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = store
        .iter()
        .map(|(id, g)| {
            let pair = GedPair::new(query.clone(), g.clone());
            let mut lb = label_set_lower_bound(query, g).max(degree_sequence_lower_bound(query, g));
            let mut ub = usize::MAX;
            if let Some((plb, pub_)) = pivot.and_then(|m| m.get(&id).copied()) {
                lb = lb.max(plb);
                ub = pub_;
            }
            Neighbor {
                id,
                ged: solver.predict(&pair).ged.max(lb as f64).min(ub as f64),
            }
        })
        .collect();
    all.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
    all
}

/// [`brute_force_refined`] truncated to the `k` nearest neighbors —
/// exactly what `GedQuery::TopK` promises (`k` beyond the store clamps).
#[must_use]
pub fn brute_top_k(
    store: &GraphStore,
    query: &Graph,
    solver: &dyn GedSolver,
    k: usize,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    let mut all = brute_force_refined(store, query, solver, pivot);
    all.truncate(k);
    all
}

/// [`brute_force_refined`] thresholded at `tau` — exactly what
/// `GedQuery::Range` promises.
#[must_use]
pub fn brute_range(
    store: &GraphStore,
    query: &Graph,
    solver: &dyn GedSolver,
    tau: f64,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    brute_force_refined(store, query, solver, pivot)
        .into_iter()
        .filter(|n| n.ged <= tau)
        .collect()
}

/// The brute-force reference for exact range search: the τ-bounded exact
/// search run against every stored graph, in ascending id order —
/// exactly what `GedQuery::RangeExact` promises (for any pivot
/// configuration and any thread count).
#[must_use]
pub fn brute_range_exact(store: &GraphStore, query: &Graph, tau: usize) -> Vec<ExactNeighbor> {
    store
        .iter()
        .filter_map(|(id, g)| bounded_exact_ged(query, g, tau).map(|ged| ExactNeighbor { id, ged }))
        .collect()
}

/// The brute-force self-join ground truth: the τ-bounded exact search
/// run against every unordered pair of stored graphs, in ascending
/// `(a, b)` id order — exactly what `GedQuery::SelfJoin` promises (for
/// any store kind, pivot configuration, and thread count) under an
/// unlimited verify budget.
#[must_use]
pub fn brute_self_join(store: &GraphStore, tau: usize) -> Vec<JoinPair> {
    let entries: Vec<(GraphId, &Graph)> = store.iter().collect();
    let mut out = Vec::new();
    for (i, &(a, ga)) in entries.iter().enumerate() {
        for &(b, gb) in &entries[i + 1..] {
            if let Some(ged) = bounded_exact_ged(ga, gb, tau) {
                out.push(JoinPair { a, b, ged });
            }
        }
    }
    out
}

/// The brute-force cross-store join ground truth: the τ-bounded exact
/// search over the full `left × right` product (all `n·m` ordered
/// pairs, diagonal included when the stores overlap), in ascending
/// `(a, b)` order — exactly what `GedQuery::Join` promises under an
/// unlimited verify budget.
#[must_use]
pub fn brute_join(left: &GraphStore, right: &GraphStore, tau: usize) -> Vec<JoinPair> {
    let mut out = Vec::new();
    for (a, ga) in left.iter() {
        for (b, gb) in right.iter() {
            if let Some(ged) = bounded_exact_ged(ga, gb, tau) {
                out.push(JoinPair { a, b, ged });
            }
        }
    }
    out
}

/// A sharded copy of `store` at the given bucket width, plus the
/// flat-id → sharded-id translation (GraphIds are process-global mints,
/// so the copy necessarily carries fresh ids). Graphs are inserted in
/// the flat store's id order, making the translation — and therefore
/// every flat-vs-sharded comparison — deterministic.
#[must_use]
pub fn sharded_copy(
    store: &GraphStore,
    bucket_width: usize,
) -> (ShardedStore, BTreeMap<GraphId, GraphId>) {
    let mut sharded = ShardedStore::new(bucket_width);
    let map = store
        .iter()
        .map(|(flat_id, g)| (flat_id, sharded.insert(g.clone())))
        .collect();
    (sharded, map)
}

/// [`brute_force_refined`] over a [`ShardedStore`]: identical refinement
/// (clamp into signature bounds, then into the per-id pivot interval when
/// `pivot` carries one — pass
/// [`ged_core::engine::GedEngine::sharded_pivot_bounds`]), identical
/// `(ged, id)` order. The sharded plans must reproduce this bit for bit.
#[must_use]
pub fn brute_force_refined_sharded(
    store: &ShardedStore,
    query: &Graph,
    solver: &dyn GedSolver,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = store
        .iter()
        .map(|(id, g)| {
            let pair = GedPair::new(query.clone(), g.clone());
            let mut lb = label_set_lower_bound(query, g).max(degree_sequence_lower_bound(query, g));
            let mut ub = usize::MAX;
            if let Some((plb, pub_)) = pivot.and_then(|m| m.get(&id).copied()) {
                lb = lb.max(plb);
                ub = pub_;
            }
            Neighbor {
                id,
                ged: solver.predict(&pair).ged.max(lb as f64).min(ub as f64),
            }
        })
        .collect();
    all.sort_by(|a, b| a.ged.total_cmp(&b.ged).then(a.id.cmp(&b.id)));
    all
}

/// [`brute_force_refined_sharded`] truncated to the `k` nearest —
/// the sharded-store `top_k` ground truth.
#[must_use]
pub fn brute_top_k_sharded(
    store: &ShardedStore,
    query: &Graph,
    solver: &dyn GedSolver,
    k: usize,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    let mut all = brute_force_refined_sharded(store, query, solver, pivot);
    all.truncate(k);
    all
}

/// [`brute_force_refined_sharded`] thresholded at `tau` — the
/// sharded-store `range` ground truth.
#[must_use]
pub fn brute_range_sharded(
    store: &ShardedStore,
    query: &Graph,
    solver: &dyn GedSolver,
    tau: f64,
    pivot: Option<&PivotBounds>,
) -> Vec<Neighbor> {
    brute_force_refined_sharded(store, query, solver, pivot)
        .into_iter()
        .filter(|n| n.ged <= tau)
        .collect()
}

/// The τ-bounded exact scan over a [`ShardedStore`] in globally
/// ascending id order — the sharded-store `range_exact` ground truth (for any
/// bucket width, pivot configuration, and thread count).
#[must_use]
pub fn brute_range_exact_sharded(
    store: &ShardedStore,
    query: &Graph,
    tau: usize,
) -> Vec<ExactNeighbor> {
    store
        .iter()
        .filter_map(|(id, g)| bounded_exact_ged(query, g, tau).map(|ged| ExactNeighbor { id, ged }))
        .collect()
}

/// Asserts two neighbor lists are bit-identical (ids, order, and the
/// exact f64 bits of every distance).
///
/// # Panics
/// Panics with `ctx` on the first divergence.
pub fn assert_same_neighbors(got: &[Neighbor], want: &[Neighbor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result size");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{ctx}: id order");
        assert_eq!(g.ged.to_bits(), w.ged.to_bits(), "{ctx}: value at {}", g.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = property_stores();
        let b = property_stores();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // GraphIds are process-global (never reused), so only the
            // *content* repeats across calls — not the id values.
            assert_eq!(x.len(), y.len());
            for (gx, gy) in x.graphs().zip(y.graphs()) {
                assert_eq!(gx, gy, "graphs are bit-identical across calls");
            }
        }
        assert_eq!(external_query(7), external_query(7));
        assert_eq!(aids_store(5, 3).len(), 5);
        assert_eq!(linux_store(4, 3).len(), 4);
    }

    #[test]
    fn property_stores_have_the_contracted_shape() {
        let stores = property_stores();
        assert_eq!(stores[0].len(), 60, "AIDS-like store");
        assert_eq!(stores[1].len(), 50, "LINUX-like store");
        assert!(stores[0].len() >= 50 && stores[1].len() >= 50);
    }

    #[test]
    fn brute_force_refined_is_sorted_and_complete() {
        let ds = aids_store(12, 11);
        let query = external_query(12);
        let ranking = brute_force_refined(&ds, &query, &GedgwSolver, None);
        assert_eq!(ranking.len(), ds.len());
        for w in ranking.windows(2) {
            assert!(
                w[0].ged < w[1].ged || (w[0].ged == w[1].ged && w[0].id < w[1].id),
                "(ged, id) order"
            );
        }
        // Refinement: every value respects the admissible lower bound.
        for n in &ranking {
            let g = ds.get(n.id).unwrap();
            let lb = label_set_lower_bound(&query, g).max(degree_sequence_lower_bound(&query, g));
            assert!(n.ged >= lb as f64);
        }
        // top-k / range are plain views of the same ranking.
        assert_eq!(
            brute_top_k(&ds, &query, &GedgwSolver, 3, None),
            ranking[..3]
        );
        let tau = ranking[4].ged;
        let within = brute_range(&ds, &query, &GedgwSolver, tau, None);
        assert!(within.iter().all(|n| n.ged <= tau));
        assert!(within.len() >= 5);
    }

    #[test]
    fn pivot_bounds_clamp_the_refined_ranking() {
        let ds = aids_store(10, 21);
        let query = ds.graphs().next().unwrap().clone();
        // A fake — but sound — pivot table: exact two-sided bounds.
        let bounds: PivotBounds = ds
            .iter()
            .map(|(id, g)| {
                let d = bounded_exact_ged(&query, g, usize::MAX / 2).unwrap();
                (id, (d, d))
            })
            .collect();
        let clamped = brute_force_refined(&ds, &query, &GedgwSolver, Some(&bounds));
        for n in &clamped {
            let (lb, ub) = bounds[&n.id];
            assert!(
                n.ged >= lb as f64 && n.ged <= ub as f64,
                "clamped into [lb, ub]"
            );
        }
    }

    #[test]
    fn brute_range_exact_is_id_ordered_ground_truth() {
        let ds = aids_store(10, 31);
        let query = ds.graphs().next().unwrap().clone();
        let hits = brute_range_exact(&ds, &query, 3);
        assert!(
            hits.iter().any(|m| m.ged == 0),
            "the member query matches itself"
        );
        for w in hits.windows(2) {
            assert!(w[0].id < w[1].id, "ascending id order");
        }
        for m in &hits {
            assert!(m.ged <= 3);
            let g = ds.get(m.id).unwrap();
            assert_eq!(bounded_exact_ged(&query, g, 3), Some(m.ged));
        }
    }

    #[test]
    fn sharded_copy_preserves_content_and_oracle_agreement() {
        let ds = aids_store(14, 41);
        let query = external_query(42);
        let (sharded, map) = sharded_copy(&ds, 4);
        assert_eq!(sharded.len(), ds.len());
        assert!(sharded.shard_count() > 1, "width 4 splits an AIDS store");
        for (flat_id, g) in ds.iter() {
            assert_eq!(sharded.get(map[&flat_id]), Some(g), "same graph bits");
        }
        // The sharded oracle is the flat oracle under id translation.
        let flat = brute_force_refined(&ds, &query, &GedgwSolver, None);
        let shard = brute_force_refined_sharded(&sharded, &query, &GedgwSolver, None);
        let translated: Vec<Neighbor> = flat
            .iter()
            .map(|n| Neighbor {
                id: map[&n.id],
                ged: n.ged,
            })
            .collect();
        // Translation preserves relative id order (both mints are
        // insertion-ordered), so the (ged, id) sort is unchanged.
        assert_same_neighbors(&shard, &translated, "sharded oracle");
        let exact_flat = brute_range_exact(&ds, &query, 6);
        let exact_shard = brute_range_exact_sharded(&sharded, &query, 6);
        assert_eq!(exact_flat.len(), exact_shard.len());
        for (f, s) in exact_flat.iter().zip(&exact_shard) {
            assert_eq!(map[&f.id], s.id);
            assert_eq!(f.ged, s.ged);
        }
    }

    #[test]
    fn counting_solver_counts_and_matches_gedgw_bitwise() {
        let ds = aids_store(6, 51);
        let query = external_query(52);
        let (builder, calls) = counting_engine_builder();
        let counted = builder.build().expect("GEDGW is registered");
        let stock = gedgw_engine(1);
        let a = counted.top_k(&query, &ds, 3).unwrap();
        let b = stock.top_k(&query, &ds, 3).unwrap();
        assert_same_neighbors(&a.neighbors, &b.neighbors, "counted vs stock");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            a.stats.verified,
            "one prediction per verified candidate"
        );
    }

    #[test]
    fn engine_builders_cover_the_training_free_methods() {
        let e = gedgw_engine(2);
        assert_eq!(e.method(), MethodKind::Gedgw);
        let e2 = gedgw_classic_engine();
        assert_eq!(e2.method(), MethodKind::Gedgw);
        assert_eq!(
            e2.methods(),
            vec![MethodKind::Gedgw, MethodKind::Classic],
            "registration order"
        );
    }
}
