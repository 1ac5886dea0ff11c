//! Partitioned graph storage: shard-level filtering one tier above the
//! per-graph filter–verify pipeline.
//!
//! A [`ShardedStore`] buckets graphs by node count (`bucket = n /
//! bucket_width`) into [`Shard`]s. Each shard is a full [`GraphStore`] of
//! its own — signature table, CSR arena, and optionally a
//! [`PivotIndex`] column block — plus *aggregate bounds* over its
//! members:
//!
//! * node-count range `[min_nodes, max_nodes]` and edge-count range
//!   `[min_edges, max_edges]`;
//! * the label-universe union (which label values occur anywhere in the
//!   shard);
//! * per pivot column, the range `[min lb, max ub]` of stored distances.
//!
//! From these, [`Shard::signature_lower_bound`] and
//! [`Shard::pivot_lower_bound`] derive a lower bound on the GED between a
//! query and *every* member of the shard, before any per-graph work:
//!
//! ```text
//! shard_lb = max(node_gap, missing_labels) + edge_gap
//! ```
//!
//! where `node_gap`/`edge_gap` are the distances from the query's counts
//! to the shard's ranges and `missing_labels` counts query labels (with
//! multiplicity) absent from the shard's label universe. Every term
//! under-approximates the corresponding term of the per-graph label-set
//! lower bound, so `shard_lb ≤ lb(query, g)` for every member `g` — a
//! search plan may discard the whole shard once `shard_lb` exceeds its
//! threshold without changing any answer. `ged-core` stacks this as a
//! fourth filter tier: shard → pivot → signature → verify.
//!
//! [`GraphId`]s remain stable and globally unique: an id → bucket
//! directory resolves handles across shards, so a `ShardedStore` is a
//! drop-in answer-compatible replacement for one flat store.
//!
//! Snapshots ([`ShardedStore::save`] / [`ShardedStore::load`]) persist
//! graphs, ids, revisions, and the pivot tables through the hand-rolled
//! [`crate::io`] grammar (see its module docs for the exact shape), so a
//! restarted process resumes incremental [`PivotIndex::sync`] instead of
//! rebuilding — syncing a just-loaded, unchanged store is an `O(1)`
//! no-op.
//!
//! ```
//! use ged_graph::{Graph, Label, ShardedStore};
//!
//! let mut store = ShardedStore::new(4);
//! let a = store.insert(Graph::from_edges(vec![Label(1), Label(2)], &[(0, 1)]));
//! let b = store.insert(Graph::unlabeled_from_edges(9, &[(0, 1), (1, 2)]));
//! assert_eq!(store.len(), 2);
//! assert_eq!(store.shard_count(), 2, "2 and 9 nodes land in different buckets");
//! store.remove(a);
//! assert!(store.get(a).is_none());
//! assert!(store.get(b).is_some());
//! ```

use crate::csr::CsrView;
use crate::graph::{Graph, Label};
use crate::io::{ParseError, ParseErrorKind, Reader};
use crate::pivot::{PivotDistance, PivotIndex};
use crate::store::{GraphId, GraphSignature, GraphStore};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// A pivot-table row as read: its position, graph id and distances.
type PivotRow = (usize, GraphId, Vec<PivotDistance>);

/// One partition of a [`ShardedStore`]: a full [`GraphStore`] plus the
/// aggregate bounds the shard planner tier prunes with. Shards are
/// created when their first graph arrives and dropped when their last
/// one leaves, so the aggregates always describe a nonempty member set.
#[derive(Clone, Debug)]
pub struct Shard {
    bucket: usize,
    store: GraphStore,
    pivots: Option<PivotIndex>,
    /// Per pivot column, `(min lb, max ub)` over all member rows.
    pivot_aggregates: Vec<(usize, usize)>,
    min_nodes: usize,
    max_nodes: usize,
    min_edges: usize,
    max_edges: usize,
    /// Label → number of occurrences across all members. The key set is
    /// the shard's label universe; counts make removal maintenance O(L).
    label_counts: BTreeMap<Label, usize>,
}

impl Shard {
    fn new(bucket: usize) -> Self {
        Shard {
            bucket,
            store: GraphStore::new(),
            pivots: None,
            pivot_aggregates: Vec::new(),
            min_nodes: usize::MAX,
            max_nodes: 0,
            min_edges: usize::MAX,
            max_edges: 0,
            label_counts: BTreeMap::new(),
        }
    }

    /// The bucket index this shard holds (`num_nodes / bucket_width`).
    #[must_use]
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// The shard's member store (read access; mutate via the owning
    /// [`ShardedStore`] so directory and aggregates stay consistent).
    #[must_use]
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Number of member graphs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the shard holds no graphs (never true for a shard reached
    /// through [`ShardedStore::shards`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Smallest member node count.
    #[must_use]
    pub fn min_nodes(&self) -> usize {
        self.min_nodes
    }

    /// Largest member node count.
    #[must_use]
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Smallest member edge count.
    #[must_use]
    pub fn min_edges(&self) -> usize {
        self.min_edges
    }

    /// Largest member edge count.
    #[must_use]
    pub fn max_edges(&self) -> usize {
        self.max_edges
    }

    /// The shard's pivot column block, if one has been built via
    /// [`ShardedStore::sync_pivots`].
    #[must_use]
    pub fn pivot_index(&self) -> Option<&PivotIndex> {
        self.pivots.as_ref()
    }

    /// Per pivot column, the `(min lb, max ub)` aggregate over all member
    /// rows — the inputs of [`Shard::pivot_lower_bound`].
    #[must_use]
    pub fn pivot_aggregates(&self) -> &[(usize, usize)] {
        &self.pivot_aggregates
    }

    /// The per-query arming cost of this shard's pivot tier, in
    /// query-to-pivot distance computations ([`PivotIndex::query_cost`];
    /// 0 when no pivot block is built).
    #[must_use]
    pub fn pivot_query_cost(&self) -> usize {
        self.pivots.as_ref().map_or(0, PivotIndex::query_cost)
    }

    /// A lower bound on `GED(query, g)` valid for **every** member `g`,
    /// from the aggregate bounds alone.
    ///
    /// Admissibility: the label-set lower bound between two graphs is
    /// `max(only_q, only_g) + |e_q − e_g|`, where `only_q` counts query
    /// labels unmatched in `g`. For any member, `only_q` is at least the
    /// number of query labels absent from the entire shard, and also at
    /// least `n_q − max_nodes`; `only_g ≥ min_nodes − n_q`; and
    /// `|e_q − e_g|` is at least the gap from `e_q` to the shard's edge
    /// range. Hence the returned value never exceeds the per-graph
    /// label-set bound (itself a GED lower bound) of any member.
    #[must_use]
    pub fn signature_lower_bound(&self, query: &GraphSignature) -> usize {
        let node_gap = range_gap(query.num_nodes(), self.min_nodes, self.max_nodes);
        let edge_gap = range_gap(query.num_edges(), self.min_edges, self.max_edges);
        let missing = query
            .labels()
            .iter()
            .filter(|l| !self.label_counts.contains_key(l))
            .count();
        node_gap.max(missing) + edge_gap
    }

    /// A lower bound on `GED(query, g)` valid for every member `g`, from
    /// the pivot column aggregates: per pivot `i`, every member's
    /// triangle bound `max(q_i.lb − g_i.ub, g_i.lb − q_i.ub)` is at least
    /// `max(q_i.lb − max_ub_i, min_lb_i − q_i.ub)`. Vacuously 0 when no
    /// pivot block is built. Call only with query distances computed
    /// against this shard's own [`Shard::pivot_index`].
    #[must_use]
    pub fn pivot_lower_bound(&self, query_dists: &[PivotDistance]) -> usize {
        debug_assert_eq!(query_dists.len(), self.pivot_aggregates.len());
        query_dists
            .iter()
            .zip(&self.pivot_aggregates)
            .map(|(q, &(min_lb, max_ub))| {
                q.lb()
                    .saturating_sub(max_ub)
                    .max(min_lb.saturating_sub(q.ub()))
            })
            .max()
            .unwrap_or(0)
    }

    /// A lower bound on `GED(a, b)` valid for **every** pair with `a`
    /// a member of `self` and `b` a member of `other`, from the two
    /// shards' size aggregates alone — the block bound a join plan uses
    /// to discard an entire shard×shard block before any per-graph
    /// work.
    ///
    /// Admissibility: the label-set lower bound between two graphs is
    /// `max(only_a, only_b) + |e_a − e_b|`, which is at least
    /// `|n_a − n_b| + |e_a − e_b|`; over all member pairs, `|n_a − n_b|`
    /// is at least the gap between the two shards' node-count ranges
    /// and `|e_a − e_b|` at least the gap between their edge-count
    /// ranges, so the returned value never exceeds any member pair's
    /// per-graph signature bound.
    #[must_use]
    pub fn block_lower_bound(&self, other: &Shard) -> usize {
        let node_gap = range_distance(
            (self.min_nodes, self.max_nodes),
            (other.min_nodes, other.max_nodes),
        );
        let edge_gap = range_distance(
            (self.min_edges, self.max_edges),
            (other.min_edges, other.max_edges),
        );
        node_gap + edge_gap
    }

    fn insert(&mut self, graph: Graph) -> GraphId {
        let id = self.store.insert(graph);
        let sig = self.store.signature(id).expect("just inserted");
        self.min_nodes = self.min_nodes.min(sig.num_nodes());
        self.max_nodes = self.max_nodes.max(sig.num_nodes());
        self.min_edges = self.min_edges.min(sig.num_edges());
        self.max_edges = self.max_edges.max(sig.num_edges());
        for &label in sig.labels() {
            *self.label_counts.entry(label).or_insert(0) += 1;
        }
        id
    }

    fn remove(&mut self, id: GraphId) -> Option<Graph> {
        let removed = self.store.remove(id)?;
        for label in removed.label_multiset() {
            match self.label_counts.get_mut(&label) {
                Some(1) => {
                    self.label_counts.remove(&label);
                }
                Some(count) => *count -= 1,
                None => debug_assert!(false, "label counts out of sync"),
            }
        }
        // Count ranges can only shrink from one side per removal, but a
        // full rescan keeps them tight and is O(shard), matching the
        // store's own O(shard) removal splice.
        self.min_nodes = usize::MAX;
        self.max_nodes = 0;
        self.min_edges = usize::MAX;
        self.max_edges = 0;
        for (_, _, sig) in self.store.entries() {
            self.min_nodes = self.min_nodes.min(sig.num_nodes());
            self.max_nodes = self.max_nodes.max(sig.num_nodes());
            self.min_edges = self.min_edges.min(sig.num_edges());
            self.max_edges = self.max_edges.max(sig.num_edges());
        }
        Some(removed)
    }

    fn sync_pivots<F>(&mut self, target: usize, oracle: &mut F)
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        if target == 0 {
            self.pivots = None;
            self.pivot_aggregates.clear();
            return;
        }
        match &mut self.pivots {
            Some(index) if index.target() == target => index.sync(&self.store, oracle),
            slot => *slot = Some(PivotIndex::build(&self.store, target, oracle)),
        }
        self.recompute_pivot_aggregates();
    }

    fn recompute_pivot_aggregates(&mut self) {
        self.pivot_aggregates.clear();
        let Some(index) = &self.pivots else {
            return;
        };
        self.pivot_aggregates
            .resize(index.pivot_count(), (usize::MAX, 0));
        for id in self.store.ids() {
            let row = index.distances(id).expect("index is synced");
            for (agg, d) in self.pivot_aggregates.iter_mut().zip(row) {
                agg.0 = agg.0.min(d.lb());
                agg.1 = agg.1.max(d.ub());
            }
        }
    }

    /// Rebuilds every aggregate from the member signatures (snapshot
    /// load, where members arrive pre-assembled rather than one by one).
    fn recompute_aggregates(&mut self) {
        self.min_nodes = usize::MAX;
        self.max_nodes = 0;
        self.min_edges = usize::MAX;
        self.max_edges = 0;
        self.label_counts.clear();
        for (_, _, sig) in self.store.entries() {
            self.min_nodes = self.min_nodes.min(sig.num_nodes());
            self.max_nodes = self.max_nodes.max(sig.num_nodes());
            self.min_edges = self.min_edges.min(sig.num_edges());
            self.max_edges = self.max_edges.max(sig.num_edges());
            for &label in sig.labels() {
                *self.label_counts.entry(label).or_insert(0) += 1;
            }
        }
        self.recompute_pivot_aggregates();
    }
}

/// Distance from `x` to the closed range `[lo, hi]` (0 when inside).
fn range_gap(x: usize, lo: usize, hi: usize) -> usize {
    if x < lo {
        lo - x
    } else {
        x.saturating_sub(hi)
    }
}

/// Distance between two closed ranges `[a.0, a.1]` and `[b.0, b.1]`
/// (0 when they overlap): the smallest `|x − y|` over `x ∈ a, y ∈ b`.
/// The aggregate primitive behind [`Shard::block_lower_bound`], public
/// so join plans can apply the same bound to non-sharded (flat) unit
/// aggregates.
#[must_use]
pub fn range_distance(a: (usize, usize), b: (usize, usize)) -> usize {
    b.0.saturating_sub(a.1).max(a.0.saturating_sub(b.1))
}

/// A graph store partitioned into size-bucketed [`Shard`]s. See the
/// [module docs](self) for the design; the flat-store API surface
/// ([`ShardedStore::insert`] / [`ShardedStore::remove`] / lookups /
/// id-ordered iteration) carries over unchanged, and ids stay globally
/// unique and stable.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    bucket_width: usize,
    shards: BTreeMap<usize, Shard>,
    /// id → bucket, for O(log n) cross-shard handle resolution. Also the
    /// source of globally id-ordered iteration.
    directory: BTreeMap<GraphId, usize>,
    revision: u64,
}

impl ShardedStore {
    /// Creates an empty store whose shards each hold graphs of
    /// `bucket_width` consecutive node counts (`bucket = n /
    /// bucket_width`). Width 1 gives one shard per node count;
    /// `usize::MAX` collapses everything into a single shard (the flat
    /// layout, useful as a baseline).
    ///
    /// # Panics
    /// Panics if `bucket_width` is 0.
    #[must_use]
    pub fn new(bucket_width: usize) -> Self {
        assert!(bucket_width != 0, "ShardedStore: bucket width must be ≥ 1");
        ShardedStore {
            bucket_width,
            shards: BTreeMap::new(),
            directory: BTreeMap::new(),
            revision: 0,
        }
    }

    /// Builds a store by inserting every graph of `graphs` in order.
    #[must_use]
    pub fn from_graphs<I: IntoIterator<Item = Graph>>(bucket_width: usize, graphs: I) -> Self {
        let mut store = Self::new(bucket_width);
        for g in graphs {
            store.insert(g);
        }
        store
    }

    /// The configured bucket width.
    #[must_use]
    pub fn bucket_width(&self) -> usize {
        self.bucket_width
    }

    /// The bucket a graph with `num_nodes` nodes belongs to.
    #[must_use]
    pub fn bucket_of(&self, num_nodes: usize) -> usize {
        num_nodes / self.bucket_width
    }

    /// Inserts `graph` into its size bucket and returns the freshly
    /// minted, globally unique [`GraphId`].
    pub fn insert(&mut self, graph: Graph) -> GraphId {
        let bucket = self.bucket_of(graph.num_nodes());
        let shard = self
            .shards
            .entry(bucket)
            .or_insert_with(|| Shard::new(bucket));
        let id = shard.insert(graph);
        self.directory.insert(id, bucket);
        // Shard store revisions are minted from the global allocator, so
        // adopting one keeps "same revision ⇒ same content" across
        // sharded and flat stores alike.
        self.revision = shard.store.revision();
        id
    }

    /// Removes the graph behind `id`, returning it, or `None` for a
    /// foreign or removed id. A shard losing its last graph is dropped.
    pub fn remove(&mut self, id: GraphId) -> Option<Graph> {
        let bucket = *self.directory.get(&id)?;
        let shard = self.shards.get_mut(&bucket).expect("directory in sync");
        let removed = shard.remove(id)?;
        self.revision = shard.store.revision();
        if shard.is_empty() {
            self.shards.remove(&bucket);
        }
        self.directory.remove(&id);
        Some(removed)
    }

    /// A change-detection fingerprint with the same contract as
    /// [`GraphStore::revision`]: bumped to a globally unique value by
    /// every successful mutation, equal only for identical contents.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The graph behind `id`, or `None` for a foreign or removed id.
    #[must_use]
    pub fn get(&self, id: GraphId) -> Option<&Graph> {
        self.shard_of(id)?.store.get(id)
    }

    /// The precomputed signature behind `id`, or `None`.
    #[must_use]
    pub fn signature(&self, id: GraphId) -> Option<&GraphSignature> {
        self.shard_of(id)?.store.signature(id)
    }

    /// The precomputed CSR view behind `id`, or `None`.
    #[must_use]
    pub fn csr(&self, id: GraphId) -> Option<&CsrView> {
        self.shard_of(id)?.store.csr(id)
    }

    /// Whether `id` currently resolves in this store.
    #[must_use]
    pub fn contains(&self, id: GraphId) -> bool {
        self.directory.contains_key(&id)
    }

    /// The shard holding `id`, or `None` for a foreign or removed id.
    #[must_use]
    pub fn shard_of(&self, id: GraphId) -> Option<&Shard> {
        self.shards.get(self.directory.get(&id)?)
    }

    /// Number of stored graphs across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the store holds no graphs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Number of (nonempty) shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Iterates the shards in ascending bucket order.
    pub fn shards(&self) -> impl Iterator<Item = &Shard> {
        self.shards.values()
    }

    /// Every live id, ascending across all shards (= insertion order).
    #[must_use]
    pub fn ids(&self) -> Vec<GraphId> {
        self.directory.keys().copied().collect()
    }

    /// Iterates `(id, graph)` in globally ascending id order — the same
    /// deterministic traversal a flat [`GraphStore`] provides.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, &Graph)> {
        self.directory.iter().map(|(&id, &bucket)| {
            let graph = self.shards[&bucket]
                .store
                .get(id)
                .expect("directory in sync");
            (id, graph)
        })
    }

    /// Iterates `(id, graph, signature)` in globally ascending id order.
    pub fn entries(&self) -> impl Iterator<Item = (GraphId, &Graph, &GraphSignature)> {
        self.directory.iter().map(|(&id, &bucket)| {
            let store = &self.shards[&bucket].store;
            let graph = store.get(id).expect("directory in sync");
            let sig = store.signature(id).expect("directory in sync");
            (id, graph, sig)
        })
    }

    /// Iterates the stored graphs in globally ascending id order.
    pub fn graphs(&self) -> impl Iterator<Item = &Graph> {
        self.iter().map(|(_, g)| g)
    }

    /// Builds or incrementally syncs every shard's pivot block to
    /// `target` pivots per shard (0 clears them), then refreshes the
    /// pivot aggregates. Costs oracle calls only for shards whose store
    /// actually changed (or whose target changed) — a clean store syncs
    /// in `O(shards)`.
    pub fn sync_pivots<F>(&mut self, target: usize, oracle: &mut F)
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        for shard in self.shards.values_mut() {
            shard.sync_pivots(target, oracle);
        }
    }

    /// Whether **every** shard's pivot block is built for `target` pivots
    /// and in sync with its member store. Search plans use the pivot tier
    /// all-or-nothing: mixing synced and stale shards would make answers
    /// depend on mutation history.
    #[must_use]
    pub fn pivots_ready(&self, target: usize) -> bool {
        target > 0
            && self.shards.values().all(|s| {
                s.pivots.as_ref().is_some_and(|idx| {
                    idx.target() == target && idx.revision() == s.store.revision()
                })
            })
    }

    /// Serializes the store (graphs, ids, revisions, pivot tables) to the
    /// snapshot grammar documented in [`crate::io`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"schema\":1,\"bucket_width\":{},\"revision\":{},\"shards\":[",
            self.bucket_width, self.revision
        );
        for (i, shard) in self.shards.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"bucket\":{},\"revision\":{},\"entries\":[",
                shard.bucket,
                shard.store.revision()
            ));
            for (j, (id, graph)) in shard.store.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{{\"seq\":{},\"graph\":", id.seq()));
                s.push_str(&crate::io::graph_to_json(graph));
                s.push('}');
            }
            s.push_str("],\"pivots\":");
            match &shard.pivots {
                None => s.push_str("null"),
                Some(index) => {
                    s.push_str(&format!(
                        "{{\"target\":{},\"revision\":{},\"ids\":[",
                        index.target(),
                        index.revision()
                    ));
                    for (j, p) in index.pivots().iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&p.seq().to_string());
                    }
                    s.push_str("],\"rows\":[");
                    for (j, id) in shard.store.ids().into_iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        s.push_str(&format!("{{\"seq\":{},\"dists\":[", id.seq()));
                        let row = index.distances(id).expect("index covers the store");
                        for (c, d) in row.iter().enumerate() {
                            if c > 0 {
                                s.push(',');
                            }
                            s.push_str(&format!("[{},{}]", d.lb(), d.ub()));
                        }
                        s.push_str("]}");
                    }
                    s.push_str("]}");
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parses a snapshot from a JSON string.
    ///
    /// # Errors
    /// Returns a [`ParseError`] if the JSON is malformed or internally
    /// inconsistent (duplicate ids, graphs in the wrong bucket, pivot
    /// tables not matching the member set).
    pub fn from_json(s: &str) -> Result<Self, ParseError> {
        let mut r = Reader::new(s);
        let store = Self::read(&mut r)?;
        r.end()?;
        Ok(store)
    }

    /// Reads a `snapshot` object (see [`crate::io`]): what grammars
    /// embedding a store snapshot, such as `ged-server`'s, call. Checks
    /// across members run after the `}`, as they may come in any order.
    ///
    /// # Errors
    /// As [`ShardedStore::from_json`].
    pub fn read(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let (mut schema, mut width, mut revision, mut shards) = (None, None, None, None);
        let keys = ["schema", "bucket_width", "revision", "shards"];
        let m = r.object(&keys, |r, key| {
            let at = r.next_at();
            let invalid = |r: &Reader<'_>, what| r.err(at, ParseErrorKind::Invalid(what));
            match key {
                "schema" => {
                    if r.u64()? != 1 {
                        return Err(invalid(r, "snapshot schema"));
                    }
                    schema = Some(());
                }
                "bucket_width" => {
                    let w = usize::try_from(r.u64()?).ok().filter(|&w| w >= 1);
                    width = Some(w.ok_or_else(|| invalid(r, "bucket width"))?);
                }
                "revision" => revision = Some(r.u64()?),
                _ => shards = Some(r.list(Self::read_shard)?),
            }
            Ok(())
        })?;
        m.need(r, schema, "\"schema\"")?;
        let mut out = ShardedStore::new(m.need(r, width, "\"bucket_width\"")?);
        out.revision = m.need(r, revision, "\"revision\"")?;
        for (shard_at, shard, entries) in m.need(r, shards, "\"shards\"")? {
            let bucket = shard.bucket;
            if out.shards.contains_key(&bucket) {
                return Err(r.err(shard_at, ParseErrorKind::Invalid("duplicate bucket")));
            }
            for (at, id) in entries {
                let graph = shard.store.get(id).expect("the shard holds its entries");
                let kind = if out.bucket_of(graph.num_nodes()) != bucket {
                    "graph outside its bucket"
                } else if out.directory.insert(id, bucket).is_some() {
                    "duplicate sequence number"
                } else {
                    continue;
                };
                return Err(r.err(at, ParseErrorKind::Invalid(kind)));
            }
            out.shards.insert(bucket, shard);
        }
        Ok(out)
    }

    /// One `shard` object, with its position and each entry's, for the
    /// store-level checks.
    #[allow(clippy::type_complexity)]
    fn read_shard(r: &mut Reader<'_>) -> Result<(usize, Shard, Vec<(usize, GraphId)>), ParseError> {
        let shard_at = r.next_at();
        let (mut bucket, mut revision, mut entries, mut pivots) = (None, None, None, None);
        let m = r.object(&["bucket", "revision", "entries", "pivots"], |r, key| {
            match key {
                "bucket" => bucket = Some(r.uint()?),
                "revision" => revision = Some(r.u64()?),
                "entries" => {
                    entries = Some(r.list(|r| {
                        let at = r.next_at();
                        let (mut seq, mut graph) = (None, None);
                        let m = r.object(&["seq", "graph"], |r, key| {
                            match key {
                                "seq" => seq = Some(r.u64()?),
                                _ => graph = Some(r.graph()?),
                            }
                            Ok(())
                        })?;
                        let seq = m.need(r, seq, "\"seq\"")?;
                        Ok((at, seq, m.need(r, graph, "\"graph\"")?))
                    })?);
                }
                _ => pivots = Some(r.nullable(Self::read_pivots)?),
            }
            Ok(())
        })?;
        let mut shard = Shard::new(m.need(r, bucket, "\"bucket\"")?);
        let revision = m.need(r, revision, "\"revision\"")?;
        let entries = m.need(r, entries, "\"entries\"")?;
        let pivots = m.need(r, pivots, "\"pivots\"")?;
        let mut ids = Vec::with_capacity(entries.len());
        for (at, seq, graph) in entries {
            let id = shard.store.insert_with_seq(seq, graph);
            let duplicate = || r.err(at, ParseErrorKind::Invalid("duplicate sequence number"));
            ids.push((at, id.ok_or_else(duplicate)?));
        }
        shard.store.set_revision(revision);
        if let Some((at, target, pivot_revision, pivot_ids, row_list)) = pivots {
            let mut rows: BTreeMap<GraphId, Vec<PivotDistance>> = BTreeMap::new();
            for (row_at, id, dists) in row_list {
                if dists.len() != pivot_ids.len() {
                    return Err(r.err(row_at, ParseErrorKind::Invalid("pivot row width")));
                }
                if !shard.store.contains(id) || rows.insert(id, dists).is_some() {
                    return Err(r.err(row_at, ParseErrorKind::Invalid("pivot row id")));
                }
            }
            if rows.len() != shard.store.len() || pivot_ids.iter().any(|p| !rows.contains_key(p)) {
                return Err(r.err(at, ParseErrorKind::Invalid("pivot table")));
            }
            let index = PivotIndex::from_parts(target, pivot_revision, pivot_ids, rows);
            shard.pivots = Some(index);
        }
        shard.recompute_aggregates();
        Ok((shard_at, shard, ids))
    }

    /// A non-null `pivots` object: its position, target, revision, pivot
    /// ids and positioned rows, checked against the entries by the caller.
    #[allow(clippy::type_complexity)]
    fn read_pivots(
        r: &mut Reader<'_>,
    ) -> Result<(usize, usize, u64, Vec<GraphId>, Vec<PivotRow>), ParseError> {
        let at = r.next_at();
        let (mut target, mut revision, mut ids, mut rows) = (None, None, None, None);
        let m = r.object(&["target", "revision", "ids", "rows"], |r, key| {
            match key {
                "target" => target = Some(r.uint()?),
                "revision" => revision = Some(r.u64()?),
                "ids" => ids = Some(r.list(|r| r.u64().map(GraphId::from_seq))?),
                _ => rows = Some(r.list(Self::read_pivot_row)?),
            }
            Ok(())
        })?;
        let target = m.need(r, target, "\"target\"")?;
        let revision = m.need(r, revision, "\"revision\"")?;
        let (ids, rows) = (m.need(r, ids, "\"ids\"")?, m.need(r, rows, "\"rows\"")?);
        Ok((at, target, revision, ids, rows))
    }

    /// One `pivrow` object.
    fn read_pivot_row(r: &mut Reader<'_>) -> Result<PivotRow, ParseError> {
        let at = r.next_at();
        let (mut id, mut dists) = (None, None);
        let m = r.object(&["seq", "dists"], |r, key| {
            if key == "seq" {
                id = Some(GraphId::from_seq(r.u64()?));
                return Ok(());
            }
            dists = Some(r.list(|r| {
                let at = r.next_at();
                r.expect("[")?;
                let lb = r.uint()?;
                r.expect(",")?;
                let ub = r.uint()?;
                r.expect("]")?;
                if lb > ub {
                    return Err(r.err(at, ParseErrorKind::Invalid("pivot interval")));
                }
                Ok(PivotDistance::interval(lb, ub))
            })?);
            Ok(())
        })?;
        Ok((
            at,
            m.need(r, id, "\"seq\"")?,
            m.need(r, dists, "\"dists\"")?,
        ))
    }

    /// Writes the snapshot to `path` atomically: to a sibling temporary
    /// file, synced, then renamed over `path`, so a crash mid-write
    /// leaves the previous snapshot intact.
    ///
    /// # Errors
    /// Propagates I/O errors; `path` is untouched when any step fails.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        crate::io::write_atomically(path, self.to_json().as_bytes())
    }

    /// Reads a snapshot from `path`. The restored store resolves exactly
    /// the ids the saved one did, carries its revisions (so
    /// [`PivotIndex::sync`] against the unchanged store is an `O(1)`
    /// no-op), and advances the global id allocator past every restored
    /// id.
    ///
    /// # Errors
    /// Propagates I/O errors and reports malformed or inconsistent
    /// snapshots as [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let s = fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        Graph::from_edges(labels.iter().map(|&l| Label(l)).collect(), edges)
    }

    /// The per-graph label-set lower bound the shard aggregate bound
    /// must under-approximate: `max(only_q, only_g) + |e_q − e_g|`.
    fn label_lb(q: &GraphSignature, g: &GraphSignature) -> usize {
        let (mut i, mut j, mut common) = (0, 0, 0usize);
        let (ql, gl) = (q.labels(), g.labels());
        while i < ql.len() && j < gl.len() {
            match ql[i].cmp(&gl[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let only_q = ql.len() - common;
        let only_g = gl.len() - common;
        only_q.max(only_g) + q.num_edges().abs_diff(g.num_edges())
    }

    fn random_store(width: usize, count: usize, seed: u64) -> ShardedStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights = [1.0; 5];
        ShardedStore::from_graphs(
            width,
            (0..count)
                .map(|i| generate::random_connected(3 + i % 9, 2, &weights, &mut rng))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn graphs_land_in_their_buckets_and_ids_stay_global() {
        let mut store = ShardedStore::new(4);
        let small = store.insert(g(&[1, 2], &[(0, 1)]));
        let large = store.insert(g(&[1; 9], &[(0, 1), (1, 2)]));
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.shard_of(small).unwrap().bucket(), 0);
        assert_eq!(store.shard_of(large).unwrap().bucket(), 2);
        assert_eq!(store.ids(), vec![small, large]);
        assert_eq!(store.get(small).unwrap().num_nodes(), 2);
        assert!(small < large, "insertion order is global id order");

        store.remove(large);
        assert_eq!(store.shard_count(), 1, "empty shards are dropped");
        assert!(!store.contains(large));
        assert!(store.contains(small));
    }

    #[test]
    fn zero_width_is_rejected() {
        let res = std::panic::catch_unwind(|| ShardedStore::new(0));
        assert!(res.is_err());
    }

    #[test]
    fn max_width_collapses_to_one_shard() {
        let store = random_store(usize::MAX, 20, 7);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.len(), 20);
    }

    #[test]
    fn aggregates_track_inserts_and_removals() {
        let mut store = ShardedStore::new(usize::MAX);
        let a = store.insert(g(&[1, 2], &[(0, 1)]));
        let _b = store.insert(g(&[3, 3, 3], &[(0, 1), (1, 2), (0, 2)]));
        {
            let shard = store.shards().next().unwrap();
            assert_eq!((shard.min_nodes(), shard.max_nodes()), (2, 3));
            assert_eq!((shard.min_edges(), shard.max_edges()), (1, 3));
        }
        store.remove(a);
        let shard = store.shards().next().unwrap();
        assert_eq!((shard.min_nodes(), shard.max_nodes()), (3, 3));
        assert_eq!((shard.min_edges(), shard.max_edges()), (3, 3));
        // Label 1 and 2 left with graph `a`: a query made of them now
        // pays the missing-label term.
        let q = GraphSignature::of(&g(&[1, 2], &[]));
        assert!(shard.signature_lower_bound(&q) >= 2);
    }

    #[test]
    fn signature_lower_bound_never_exceeds_any_member_bound() {
        let store = random_store(4, 40, 11);
        let mut rng = SmallRng::seed_from_u64(99);
        let weights = [1.0; 5];
        for i in 0..10 {
            let query = generate::random_connected(2 + i, 1, &weights, &mut rng);
            let qsig = GraphSignature::of(&query);
            for shard in store.shards() {
                let shard_lb = shard.signature_lower_bound(&qsig);
                for (_, _, sig) in shard.store().entries() {
                    assert!(
                        shard_lb <= label_lb(&qsig, sig),
                        "aggregate bound {shard_lb} exceeds member bound"
                    );
                }
            }
        }
    }

    #[test]
    fn range_distance_is_the_min_pointwise_gap() {
        assert_eq!(range_distance((1, 3), (2, 5)), 0, "overlap");
        assert_eq!(range_distance((1, 3), (3, 5)), 0, "touching");
        assert_eq!(range_distance((1, 3), (7, 9)), 4);
        assert_eq!(range_distance((7, 9), (1, 3)), 4, "symmetric");
        assert_eq!(range_distance((5, 5), (5, 5)), 0);
    }

    #[test]
    fn block_lower_bound_never_exceeds_any_member_pair_bound() {
        let store = random_store(2, 40, 21);
        for a in store.shards() {
            for b in store.shards() {
                let block_lb = a.block_lower_bound(b);
                assert_eq!(block_lb, b.block_lower_bound(a), "symmetric");
                for (_, _, sa) in a.store().entries() {
                    for (_, _, sb) in b.store().entries() {
                        assert!(
                            block_lb <= label_lb(sa, sb),
                            "block bound {block_lb} exceeds member pair bound"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pivot_lower_bound_never_exceeds_any_member_bound() {
        // Cheap true metric: node-count difference.
        let mut oracle =
            |a: &Graph, b: &Graph| PivotDistance::exact(a.num_nodes().abs_diff(b.num_nodes()));
        let mut store = random_store(4, 30, 13);
        store.sync_pivots(2, &mut oracle);
        assert!(store.pivots_ready(2));
        let query = g(&[1; 20], &[]);
        for shard in store.shards() {
            let index = shard.pivot_index().unwrap();
            let qd = index.query_distances(shard.store(), &query, &mut oracle);
            let shard_lb = shard.pivot_lower_bound(&qd);
            for id in shard.store().ids() {
                let (lb, _) = index.bounds(&qd, id).unwrap();
                assert!(shard_lb <= lb, "aggregate pivot bound exceeds member lb");
            }
        }
    }

    #[test]
    fn pivots_ready_demands_every_shard_in_sync() {
        let mut oracle =
            |a: &Graph, b: &Graph| PivotDistance::exact(a.num_nodes().abs_diff(b.num_nodes()));
        let mut store = random_store(4, 20, 17);
        assert!(!store.pivots_ready(2), "nothing built yet");
        store.sync_pivots(2, &mut oracle);
        assert!(store.pivots_ready(2));
        assert!(!store.pivots_ready(3), "different target");
        assert!(!store.pivots_ready(0), "0 pivots is the disabled tier");
        store.insert(g(&[1, 2, 3], &[(0, 1)]));
        assert!(!store.pivots_ready(2), "mutation staled one shard");
        store.sync_pivots(2, &mut oracle);
        assert!(store.pivots_ready(2));
    }

    #[test]
    fn snapshot_roundtrips_bit_for_bit() {
        let mut oracle =
            |a: &Graph, b: &Graph| PivotDistance::exact(a.num_nodes().abs_diff(b.num_nodes()));
        let mut store = random_store(4, 25, 23);
        store.remove(store.ids()[3]);
        store.sync_pivots(2, &mut oracle);

        let json = store.to_json();
        let loaded = ShardedStore::from_json(&json).unwrap();
        assert_eq!(loaded.bucket_width(), store.bucket_width());
        assert_eq!(loaded.revision(), store.revision());
        assert_eq!(loaded.ids(), store.ids());
        assert_eq!(loaded.shard_count(), store.shard_count());
        for (a, b) in loaded.iter().zip(store.iter()) {
            assert_eq!(a, b);
        }
        for (sa, sb) in loaded.shards().zip(store.shards()) {
            assert_eq!(sa.store().revision(), sb.store().revision());
            assert_eq!(
                (
                    sa.min_nodes(),
                    sa.max_nodes(),
                    sa.min_edges(),
                    sa.max_edges()
                ),
                (
                    sb.min_nodes(),
                    sb.max_nodes(),
                    sb.min_edges(),
                    sb.max_edges()
                )
            );
            assert_eq!(sa.pivot_aggregates(), sb.pivot_aggregates());
            let (ia, ib) = (sa.pivot_index().unwrap(), sb.pivot_index().unwrap());
            assert_eq!(ia.pivots(), ib.pivots());
            assert_eq!(ia.revision(), ib.revision());
            assert_eq!(ia.target(), ib.target());
            for id in sa.store().ids() {
                assert_eq!(ia.distances(id), ib.distances(id));
            }
        }
        // The loaded store serializes to the identical bytes.
        assert_eq!(loaded.to_json(), json);
        // Syncing the loaded store costs zero oracle calls.
        let calls = std::cell::Cell::new(0usize);
        let mut counting = |a: &Graph, b: &Graph| {
            calls.set(calls.get() + 1);
            PivotDistance::exact(a.num_nodes().abs_diff(b.num_nodes()))
        };
        let mut loaded = loaded;
        loaded.sync_pivots(2, &mut counting);
        assert_eq!(calls.get(), 0, "revision carried through the snapshot");
        // And fresh inserts never alias restored ids.
        let fresh = loaded.insert(g(&[9], &[]));
        assert!(!store.contains(fresh));
    }

    #[test]
    fn snapshot_rejects_inconsistencies() {
        let kind = |s: &str| ShardedStore::from_json(s).unwrap_err().kind;
        assert_eq!(
            kind("{\"schema\":2,\"bucket_width\":4,\"revision\":0,\"shards\":[]}"),
            ParseErrorKind::Invalid("snapshot schema")
        );
        assert_eq!(
            kind("{\"schema\":1,\"bucket_width\":0,\"revision\":0,\"shards\":[]}"),
            ParseErrorKind::Invalid("bucket width")
        );
        // A 9-node graph in bucket 0 of a width-4 store.
        let wrong_bucket = "{\"schema\":1,\"bucket_width\":4,\"revision\":1,\"shards\":[\
            {\"bucket\":0,\"revision\":1,\"entries\":[\
            {\"seq\":0,\"graph\":{\"labels\":[0,0,0,0,0,0,0,0,0],\"edges\":[]}}\
            ],\"pivots\":null}]}";
        assert_eq!(
            kind(wrong_bucket),
            ParseErrorKind::Invalid("graph outside its bucket")
        );
        // A pivot table missing a member row.
        let short_table = "{\"schema\":1,\"bucket_width\":4,\"revision\":1,\"shards\":[\
            {\"bucket\":0,\"revision\":1,\"entries\":[\
            {\"seq\":0,\"graph\":{\"labels\":[0],\"edges\":[]}},\
            {\"seq\":1,\"graph\":{\"labels\":[1],\"edges\":[]}}\
            ],\"pivots\":{\"target\":1,\"revision\":1,\"ids\":[0],\"rows\":[\
            {\"seq\":0,\"dists\":[[0,0]]}\
            ]}}]}";
        assert_eq!(kind(short_table), ParseErrorKind::Invalid("pivot table"));
        // An empty pivot interval.
        let bad_interval = "{\"schema\":1,\"bucket_width\":4,\"revision\":1,\"shards\":[\
            {\"bucket\":0,\"revision\":1,\"entries\":[\
            {\"seq\":0,\"graph\":{\"labels\":[0],\"edges\":[]}}\
            ],\"pivots\":{\"target\":1,\"revision\":1,\"ids\":[0],\"rows\":[\
            {\"seq\":0,\"dists\":[[3,1]]}\
            ]}}]}";
        assert_eq!(
            kind(bad_interval),
            ParseErrorKind::Invalid("pivot interval")
        );
    }

    #[test]
    fn save_load_file_roundtrip() {
        let store = random_store(1, 12, 29);
        let dir = std::env::temp_dir().join("ot_ged_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        store.save(&path).unwrap();
        let loaded = ShardedStore::load(&path).unwrap();
        assert_eq!(loaded.ids(), store.ids());
        assert!(loaded.iter().eq(store.iter()));
        std::fs::remove_file(&path).ok();
    }
}
