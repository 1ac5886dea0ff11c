//! The polymorphic solver layer: every GED method behind one trait.
//!
//! # The [`GedSolver`] contract
//!
//! A solver is any object that can estimate the GED of a [`GedPair`]:
//!
//! * [`GedSolver::name`] — the display name used in the paper's tables
//!   (`"GEDIOT"`, `"Classic"`, …). Names are unique within a
//!   [`SolverRegistry`] and are the lookup key.
//! * [`GedSolver::predict`] — a value-only estimate. May be infeasible
//!   (below the true GED) for regression models; must be finite and
//!   deterministic for a fixed trained model.
//! * [`GedSolver::edit_path`] — a *feasible* estimate: a concrete node
//!   mapping whose induced edit path transforms `g1` into `g2`, found with
//!   search effort `k` (beam width / k-best candidates). Returns `None`
//!   for methods that cannot produce paths (pure regressors such as
//!   SimGNN or TaGSim); when `Some`, `ged` must equal the realized path
//!   length, so it is always an upper bound on the true GED.
//!
//! Solvers are `Send + Sync`: predictions take `&self` and share no
//! mutable state, so one trained model can serve any number of threads.
//! Trained-model adapters hold their models behind [`Arc`], which lets a
//! registry hand the same trained weights to several solvers (the GEDHOT
//! ensemble and Noah's guidance both reuse other solvers' models) without
//! retraining or cloning parameters.
//!
//! # Batching
//!
//! [`BatchRunner`] evaluates a solver over a slice of pairs across scoped
//! threads with chunked work-stealing. Results are written back in input
//! order and are **bit-identical** to a sequential loop — per-pair
//! computations are independent, so parallelism changes throughput only,
//! never values. This is the seam every future scaling layer (sharding,
//! caching, async serving) plugs into.
//!
//! Implementations for the paper's own methods (GEDIOT, GEDGW, GEDHOT)
//! live here; the baseline adapters (SimGNN, GPN, TaGSim, GEDGNN,
//! Classic, Noah) live in `ged-baselines::solvers`.

use crate::ensemble::Gedhot;
use crate::error::GedError;
use crate::gedgw::Gedgw;
use crate::gediot::Gediot;
use crate::kbest::kbest_edit_path;
use crate::method::MethodKind;
use crate::pairs::GedPair;
use crate::workspace::GedWorkspace;
use ged_graph::{CanonicalOp, NodeMapping};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-thread scratch state batched prediction hands each worker
/// ([`BatchRunner::map_init`]); solvers that implement
/// [`GedSolver::predict_scratch`] draw their buffers from it instead of
/// allocating per pair. Opaque on purpose — the contents track whatever
/// the workspace-backed solvers need.
#[derive(Debug, Default)]
pub struct SolverScratch {
    pub(crate) ged: GedWorkspace,
}

impl SolverScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A value-only GED estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GedEstimate {
    /// The estimated GED. May be fractional (regression heads) and, for
    /// non-path methods, may under-shoot the true GED.
    pub ged: f64,
}

impl fmt::Display for GedEstimate {
    /// Renders the estimate the way the result tables do: three decimals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GED ≈ {:.3}", self.ged)
    }
}

/// A feasible GED estimate realized by a concrete edit path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathEstimate {
    /// The realized path length (an upper bound on the true GED).
    pub ged: usize,
    /// The node mapping `V1 -> V2` that induces the path.
    pub mapping: NodeMapping,
    /// The path as order-independent canonical operations (the unit the
    /// paper's path precision/recall metrics compare).
    pub ops: Vec<CanonicalOp>,
}

impl PathEstimate {
    /// Builds an estimate from a mapping, deriving the canonical ops.
    #[must_use]
    pub fn from_mapping(pair: &GedPair, ged: usize, mapping: NodeMapping) -> Self {
        let ops = mapping.canonical_ops(&pair.g1, &pair.g2);
        PathEstimate { ged, mapping, ops }
    }
}

impl fmt::Display for PathEstimate {
    /// `GED 4 (feasible, 4 ops)` — the realized length plus a reminder
    /// that path estimates are always feasible upper bounds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GED {} (feasible, {} ops)", self.ged, self.ops.len())
    }
}

/// One GED method behind a uniform, thread-safe interface.
pub trait GedSolver: Send + Sync {
    /// Display name as in the paper's tables; the registry lookup key.
    fn name(&self) -> &str;

    /// Estimates the GED of `pair` (value only, possibly infeasible).
    fn predict(&self, pair: &GedPair) -> GedEstimate;

    /// [`Self::predict`] with caller-provided scratch buffers. The default
    /// ignores the scratch and delegates to [`Self::predict`]; solvers
    /// with a workspace-backed hot path (GEDIOT, GEDGW, GEDHOT) override it. Must
    /// return results bit-identical to [`Self::predict`] — batched drivers
    /// pick freely between the two.
    fn predict_scratch(&self, pair: &GedPair, _scratch: &mut SolverScratch) -> GedEstimate {
        self.predict(pair)
    }

    /// Produces a feasible edit path with search effort `k`, or `None` if
    /// this method cannot generate paths.
    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate>;

    /// Whether every [`Self::predict`] of a pair is at least
    /// [`crate::lower_bound::branch_lower_bound`] minus
    /// [`crate::lower_bound::branch_slack`] of that pair. The `TopK` and
    /// `Range` plans discard a candidate on that bound only for solvers
    /// that declare it. The default is `false`; it holds for
    /// [`GedgwSolver`], whose estimate is its relaxation's objective at a
    /// doubly stochastic coupling. Learned estimates (GEDIOT, GEDHOT's
    /// minimum, the regressors) can lie below the bound.
    fn respects_branch_bound(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Adapters for the paper's own methods.
// ---------------------------------------------------------------------------

/// [`GedSolver`] adapter for the supervised GEDIOT model.
pub struct GediotSolver {
    model: Arc<Gediot>,
}

impl GediotSolver {
    /// Wraps a trained model.
    #[must_use]
    pub fn new(model: Arc<Gediot>) -> Self {
        GediotSolver { model }
    }
}

impl GedSolver for GediotSolver {
    fn name(&self) -> &str {
        "GEDIOT"
    }

    fn predict(&self, pair: &GedPair) -> GedEstimate {
        GedEstimate {
            ged: self.model.predict(&pair.g1, &pair.g2).ged,
        }
    }

    fn predict_scratch(&self, pair: &GedPair, scratch: &mut SolverScratch) -> GedEstimate {
        GedEstimate {
            ged: self
                .model
                .predict_in(&pair.g1, &pair.g2, &mut scratch.ged)
                .ged,
        }
    }

    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate> {
        let (_, path) = self.model.predict_with_path(&pair.g1, &pair.g2, k);
        Some(PathEstimate::from_mapping(pair, path.ged, path.mapping))
    }
}

/// [`GedSolver`] adapter for the unsupervised GEDGW solver (training-free,
/// so the adapter is stateless).
#[derive(Clone, Copy, Debug, Default)]
pub struct GedgwSolver;

impl GedSolver for GedgwSolver {
    fn name(&self) -> &str {
        "GEDGW"
    }

    fn predict(&self, pair: &GedPair) -> GedEstimate {
        GedEstimate {
            ged: Gedgw::new(&pair.g1, &pair.g2).solve().ged,
        }
    }

    fn predict_scratch(&self, pair: &GedPair, scratch: &mut SolverScratch) -> GedEstimate {
        GedEstimate {
            ged: Gedgw::new(&pair.g1, &pair.g2)
                .solve_in(&mut scratch.ged)
                .ged,
        }
    }

    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate> {
        let gw = Gedgw::new(&pair.g1, &pair.g2).solve();
        let path = kbest_edit_path(&pair.g1, &pair.g2, &gw.coupling, k);
        Some(PathEstimate::from_mapping(pair, path.ged, path.mapping))
    }

    fn respects_branch_bound(&self) -> bool {
        true
    }
}

/// [`GedSolver`] adapter for the GEDHOT ensemble (the better of GEDIOT and
/// GEDGW per pair). Shares the trained GEDIOT model via [`Arc`].
pub struct GedhotSolver {
    gediot: Arc<Gediot>,
}

impl GedhotSolver {
    /// Wraps the trained GEDIOT model the ensemble combines with GEDGW.
    #[must_use]
    pub fn new(gediot: Arc<Gediot>) -> Self {
        GedhotSolver { gediot }
    }
}

impl GedSolver for GedhotSolver {
    fn name(&self) -> &str {
        "GEDHOT"
    }

    fn predict(&self, pair: &GedPair) -> GedEstimate {
        GedEstimate {
            ged: Gedhot::new(&self.gediot).predict(&pair.g1, &pair.g2).ged,
        }
    }

    fn predict_scratch(&self, pair: &GedPair, scratch: &mut SolverScratch) -> GedEstimate {
        GedEstimate {
            ged: Gedhot::new(&self.gediot)
                .predict_in(&pair.g1, &pair.g2, &mut scratch.ged)
                .ged,
        }
    }

    fn edit_path(&self, pair: &GedPair, k: usize) -> Option<PathEstimate> {
        let (_, path, _) = Gedhot::new(&self.gediot).predict_with_path(&pair.g1, &pair.g2, k);
        Some(PathEstimate::from_mapping(pair, path.ged, path.mapping))
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// An ordered collection of solvers keyed by [`MethodKind`].
///
/// Registration order is preserved (the experiment tables iterate it as
/// the paper's row order), and kinds are unique — registering the same
/// [`MethodKind`] twice panics, because two solvers answering to one
/// method is always a bug. Lookups are typed; display names are only a
/// rendering concern (`Default` builds an empty registry).
#[derive(Default)]
pub struct SolverRegistry {
    solvers: Vec<(MethodKind, Box<dyn GedSolver>)>,
}

impl SolverRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `solver` as the implementation of `method`.
    ///
    /// # Panics
    /// Panics if `method` is already registered.
    pub fn register(&mut self, method: MethodKind, solver: Box<dyn GedSolver>) {
        assert!(
            self.get(method).is_none(),
            "duplicate solver for method {method}"
        );
        self.solvers.push((method, solver));
    }

    /// Looks a solver up by its method kind.
    #[must_use]
    pub fn get(&self, method: MethodKind) -> Option<&dyn GedSolver> {
        self.solvers
            .iter()
            .find(|(m, _)| *m == method)
            .map(|(_, s)| s.as_ref())
    }

    /// Registered method kinds, in registration order.
    #[must_use]
    pub fn methods(&self) -> Vec<MethodKind> {
        self.solvers.iter().map(|(m, _)| *m).collect()
    }

    /// Registered display names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.solvers.iter().map(|(_, s)| s.name()).collect()
    }

    /// Iterates `(method, solver)` entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodKind, &dyn GedSolver)> {
        self.solvers.iter().map(|(m, s)| (*m, s.as_ref()))
    }

    /// Number of registered solvers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Parallel batch evaluation.
// ---------------------------------------------------------------------------

/// Evaluates a solver over pair sets across scoped threads.
///
/// Work is split into fixed-size chunks claimed from a shared atomic
/// counter (work-stealing: fast threads pick up the slack of slow ones,
/// which matters because per-pair cost varies wildly with graph size).
/// Outputs land in input order and are bit-identical to a sequential
/// loop.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
    chunk_size: usize,
}

impl Default for BatchRunner {
    /// One thread per available core, chunks of 8 pairs.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        BatchRunner {
            threads,
            chunk_size: 8,
        }
    }
}

impl BatchRunner {
    /// A runner with an explicit thread count (`0` is clamped to 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            chunk_size: 8,
        }
    }

    /// Default parallelism, overridable with the `GED_THREADS` env var
    /// (`GED_THREADS=1` forces sequential evaluation). Errors with
    /// [`GedError::Config`] when the variable is set but unparsable —
    /// silently ignoring a typo'd thread count hides the misconfiguration.
    pub fn try_from_env() -> Result<Self, GedError> {
        match std::env::var("GED_THREADS") {
            Ok(v) => v.trim().parse::<usize>().map(Self::new).map_err(|_| {
                GedError::Config(format!(
                    "GED_THREADS must be a non-negative integer, got {v:?}"
                ))
            }),
            Err(std::env::VarError::NotPresent) => Ok(Self::default()),
            Err(std::env::VarError::NotUnicode(_)) => Err(GedError::Config(
                "GED_THREADS is not valid unicode".to_string(),
            )),
        }
    }

    /// Infallible [`Self::try_from_env`]: an unparsable `GED_THREADS`
    /// prints a warning to stderr and falls back to default parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| {
            eprintln!("warning: {e}; using default parallelism");
            Self::default()
        })
    }

    /// Sets the work-stealing chunk size (`0` is clamped to 1).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, preserving input order.
    ///
    /// Generic over the item type so callers can hand in `&[GedPair]`,
    /// `&[&GedPair]` (flattened query groups without cloning), or any
    /// other work list.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.map_init(items, || (), |(), item| f(item))
    }

    /// [`Self::map`] with per-worker state: `init` runs once per worker
    /// thread (once total on the sequential path) and the resulting state
    /// is threaded through every call that worker makes. This is how
    /// batched queries share one [`SolverScratch`]/workspace per thread —
    /// `O(threads)` allocations instead of `O(items)` — and it is only
    /// sound because workspace-backed computations are bit-identical
    /// regardless of the scratch state they start from, which keeps the
    /// output independent of how chunks land on workers.
    pub fn map_init<S, I, T, N, F>(&self, items: &[I], init: N, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        N: Fn() -> S + Sync,
        F: Fn(&mut S, &I) -> T + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || items.len() <= self.chunk_size {
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }
        let num_chunks = items.len().div_ceil(self.chunk_size);
        // One slot per chunk: written exactly once by whichever worker
        // claims the chunk, then drained in order — so the output order is
        // the input order regardless of which thread computed what.
        let slots: Vec<Mutex<Option<Vec<T>>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(num_chunks);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let lo = c * self.chunk_size;
                        let hi = (lo + self.chunk_size).min(items.len());
                        let out: Vec<T> = items[lo..hi]
                            .iter()
                            .map(|item| f(&mut state, item))
                            .collect();
                        *slots[c]
                            .lock()
                            .expect("no worker panicked holding the slot") = Some(out);
                    }
                });
            }
        });
        let mut results = Vec::with_capacity(items.len());
        for slot in slots {
            let chunk = slot
                .into_inner()
                .expect("no worker panicked holding the slot")
                .expect("every chunk was claimed and computed");
            results.extend(chunk);
        }
        results
    }

    /// Batch [`GedSolver::predict`], in input order, with one
    /// [`SolverScratch`] per worker thread.
    #[must_use]
    pub fn predict_batch(&self, solver: &dyn GedSolver, pairs: &[GedPair]) -> Vec<GedEstimate> {
        self.map_init(pairs, SolverScratch::new, |scratch, p| {
            solver.predict_scratch(p, scratch)
        })
    }

    /// Batch [`GedSolver::edit_path`], in input order.
    #[must_use]
    pub fn edit_path_batch(
        &self,
        solver: &dyn GedSolver,
        pairs: &[GedPair],
        k: usize,
    ) -> Vec<Option<PathEstimate>> {
        self.map(pairs, |p| solver.edit_path(p, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pairs(n: usize) -> Vec<GedPair> {
        let mut rng = SmallRng::seed_from_u64(99);
        (0..n)
            .map(|_| {
                let g = generate::random_connected(5, 1, &[0.6, 0.4], &mut rng);
                let p = generate::perturb_with_edits(&g, 2, 2, &mut rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect()
    }

    #[test]
    fn registry_preserves_order_and_rejects_duplicates() {
        let mut reg = SolverRegistry::new();
        reg.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        assert_eq!(reg.names(), vec!["GEDGW"]);
        assert_eq!(reg.methods(), vec![MethodKind::Gedgw]);
        assert_eq!(reg.len(), 1);
        assert!(reg.get(MethodKind::Gedgw).is_some());
        assert!(reg.get(MethodKind::Classic).is_none());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        }));
        assert!(result.is_err(), "duplicate registration must panic");
    }

    #[test]
    fn estimate_displays() {
        let est = GedEstimate { ged: 1.23456 };
        assert_eq!(est.to_string(), "GED ≈ 1.235");
    }

    #[test]
    fn batch_matches_sequential_bit_for_bit() {
        let pairs = pairs(23); // not a multiple of the chunk size
        let solver = GedgwSolver;
        let sequential: Vec<f64> = pairs.iter().map(|p| solver.predict(p).ged).collect();
        for threads in [1, 2, 7] {
            let runner = BatchRunner::new(threads).with_chunk_size(4);
            let batch = runner.predict_batch(&solver, &pairs);
            assert_eq!(batch.len(), sequential.len());
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert!(
                    b.ged.to_bits() == s.to_bits(),
                    "pair {i} differs at {threads} threads: {} vs {s}",
                    b.ged
                );
            }
        }
    }

    #[test]
    fn gedgw_edit_path_is_feasible_and_consistent() {
        for pair in pairs(6) {
            let est = GedgwSolver
                .edit_path(&pair, 8)
                .expect("GEDGW generates paths");
            assert_eq!(
                est.ops.len(),
                est.ged,
                "canonical op count must equal path length"
            );
            let lb = crate::lower_bound::label_set_lower_bound(&pair.g1, &pair.g2);
            assert!(
                est.ged >= lb,
                "feasible path cannot beat the label-set lower bound"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let runner = BatchRunner::default();
        assert!(runner.predict_batch(&GedgwSolver, &[]).is_empty());
    }
}
