//! Triangle-inequality metric pruning: a pivot table over a
//! [`GraphStore`].
//!
//! GED is a metric, so exact distances to a small set of reference graphs
//! ("pivots") bound the distance between *any* query and *any* stored
//! graph without touching either graph:
//!
//! ```text
//! |d(q, p) − d(p, g)|  ≤  d(q, g)  ≤  d(q, p) + d(p, g)
//! ```
//!
//! A [`PivotIndex`] materializes `d(p_i, g)` for every stored graph `g`
//! and every pivot `p_i` once, at index-build time. At query time the
//! caller computes the `p` query-to-pivot distances and derives, per
//! candidate, the tightest lower bound `max_i |d(q,p_i) − d(p_i,g)|` and
//! upper bound `min_i d(q,p_i) + d(p_i,g)` via [`PivotIndex::bounds`] —
//! one table row scan per candidate, no graph access.
//!
//! # Distance oracle
//!
//! This crate knows nothing about GED solvers, so every distance the
//! index stores is produced by a caller-supplied oracle
//! `FnMut(&Graph, &Graph) -> PivotDistance`. The oracle may return an
//! exact distance or — when an exact computation blows a budget — a
//! `[lb, ub]` interval ([`PivotDistance::interval`]); the triangle-
//! inequality bounds degrade gracefully to interval arithmetic and stay
//! admissible as long as the oracle's intervals genuinely contain the
//! true metric distance. `ged-core` supplies the production oracle (a
//! feasible-upper-bound-bounded exact A\* with node-expansion budget).
//!
//! # Pivot selection
//!
//! Pivots are chosen by deterministic farthest-point (max–min) selection:
//! the first pivot is the smallest live [`GraphId`], each next pivot is
//! the stored graph maximizing its minimum distance to the already
//! selected pivots (ties broken by smallest id). Selection reuses the
//! very columns the table needs anyway, so building an index costs
//! exactly `p · n` oracle calls.
//!
//! # Incremental maintenance
//!
//! [`PivotIndex::sync`] diffs the index against the store using the
//! [`GraphStore::revision`] hook (`O(1)` when nothing changed): new
//! graphs get a table row, removed graphs lose theirs, and removing a
//! pivot graph drops its column everywhere and re-runs max–min selection
//! to replace it. Because correctness never depends on *which* pivots are
//! selected (the bounds are admissible for any pivot set), an
//! incrementally maintained index answers every query exactly like a
//! freshly built one.

use crate::graph::Graph;
use crate::store::{GraphId, GraphStore};
use std::collections::BTreeMap;

/// One stored distance of a pivot table: either an exact metric distance
/// or a `[lb, ub]` interval guaranteed to contain it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PivotDistance {
    lb: usize,
    ub: usize,
}

impl PivotDistance {
    /// An exactly known distance (`lb = ub = d`).
    #[must_use]
    pub fn exact(d: usize) -> Self {
        PivotDistance { lb: d, ub: d }
    }

    /// A distance known only up to an interval `[lb, ub]`.
    ///
    /// # Panics
    /// Panics if `lb > ub` — an empty interval can never contain the true
    /// distance, so storing one would silently break every bound derived
    /// from it.
    #[must_use]
    pub fn interval(lb: usize, ub: usize) -> Self {
        assert!(lb <= ub, "PivotDistance: empty interval [{lb}, {ub}]");
        PivotDistance { lb, ub }
    }

    /// The interval's lower end (equals the distance when exact).
    #[must_use]
    pub fn lb(&self) -> usize {
        self.lb
    }

    /// The interval's upper end (equals the distance when exact).
    #[must_use]
    pub fn ub(&self) -> usize {
        self.ub
    }

    /// Whether the distance is exactly known.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lb == self.ub
    }
}

/// A pivot table over one [`GraphStore`]: `p` reference graphs plus the
/// (possibly interval-valued) distance from every stored graph to every
/// pivot. See the [module docs](self) for the design.
#[derive(Clone, Debug)]
pub struct PivotIndex {
    /// How many pivots the index aims for (clamped to the store size).
    target: usize,
    /// The store revision the table was last synchronized against.
    revision: u64,
    /// Selected pivot ids, in selection order (= column order).
    pivots: Vec<GraphId>,
    /// Per stored graph, its distances to `pivots` (same column order).
    rows: BTreeMap<GraphId, Vec<PivotDistance>>,
}

impl PivotIndex {
    /// Builds an index over the current contents of `store`, selecting up
    /// to `target` pivots by deterministic max–min selection and filling
    /// the distance table through `oracle` (`target.min(store.len())`
    /// columns × `store.len()` rows of oracle calls; the self-distance of
    /// a pivot is hardwired to exact 0 — `d(g, g) = 0` for any metric).
    #[must_use]
    pub fn build<F>(store: &GraphStore, target: usize, oracle: &mut F) -> Self
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        let mut index = PivotIndex {
            target,
            revision: store.revision(),
            pivots: Vec::new(),
            rows: store.ids().into_iter().map(|id| (id, Vec::new())).collect(),
        };
        index.extend_pivots(store, oracle);
        index
    }

    /// Re-synchronizes the table with `store` after any number of
    /// [`GraphStore::insert`] / [`GraphStore::remove`] calls:
    ///
    /// * `O(1)` no-op when [`GraphStore::revision`] is unchanged;
    /// * removed graphs lose their row; a removed **pivot** additionally
    ///   loses its column everywhere, and max–min selection runs again to
    ///   replace it (the replacement's column is computed fresh);
    /// * inserted graphs get a row (one oracle call per current pivot);
    /// * if the store grew past a previously clamped pivot count, new
    ///   pivots are selected up to the target.
    pub fn sync<F>(&mut self, store: &GraphStore, oracle: &mut F)
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        if self.revision == store.revision() {
            return;
        }
        // Rows whose graph left the store. Ids are never reused, so a
        // surviving id is guaranteed to still name the same graph.
        let dead: Vec<GraphId> = self
            .rows
            .keys()
            .copied()
            .filter(|&id| !store.contains(id))
            .collect();
        let dead_columns: Vec<usize> = self
            .pivots
            .iter()
            .enumerate()
            .filter(|(_, p)| !store.contains(**p))
            .map(|(col, _)| col)
            .collect();
        for &col in dead_columns.iter().rev() {
            self.pivots.remove(col);
            for row in self.rows.values_mut() {
                row.remove(col);
            }
        }
        for id in dead {
            self.rows.remove(&id);
        }
        // Fresh graphs: one oracle call per surviving pivot.
        for (id, g, _) in store.entries() {
            if !self.rows.contains_key(&id) {
                let row = self.pivots.iter().map(|&p| oracle(&store[p], g)).collect();
                self.rows.insert(id, row);
            }
        }
        self.extend_pivots(store, oracle);
        self.revision = store.revision();
    }

    /// Max–min selection up to `target.min(store.len())` pivots, filling
    /// each new pivot's column as it is chosen. Deterministic: the first
    /// pivot is the smallest id, later ties break toward the smaller id,
    /// and distances compare by their interval lower end.
    fn extend_pivots<F>(&mut self, store: &GraphStore, oracle: &mut F)
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        let want = self.target.min(self.rows.len());
        while self.pivots.len() < want {
            let next = if self.pivots.is_empty() {
                *self.rows.keys().next().expect("rows nonempty: want > 0")
            } else {
                self.rows
                    .iter()
                    .filter(|(id, _)| !self.pivots.contains(id))
                    .max_by_key(|(id, row)| {
                        let spread = row.iter().map(PivotDistance::lb).min().unwrap_or(0);
                        // BTreeMap iterates ascending and `max_by_key`
                        // keeps the *last* maximum, so invert the id to
                        // make ties resolve to the smallest one.
                        (spread, std::cmp::Reverse(*id))
                    })
                    .map(|(&id, _)| id)
                    .expect("fewer pivots than rows")
            };
            self.pivots.push(next);
            let pivot_graph = store[next].clone();
            for (&id, row) in &mut self.rows {
                row.push(if id == next {
                    PivotDistance::exact(0)
                } else {
                    oracle(&pivot_graph, &store[id])
                });
            }
        }
    }

    /// Distances from `query` to every pivot, in column order — compute
    /// once per query, then feed to [`PivotIndex::bounds`] per candidate.
    /// Call only after [`PivotIndex::sync`] against the same store.
    ///
    /// # Panics
    /// Panics if a pivot id does not resolve in `store` (the index is out
    /// of sync).
    #[must_use]
    pub fn query_distances<F>(
        &self,
        store: &GraphStore,
        query: &Graph,
        oracle: &mut F,
    ) -> Vec<PivotDistance>
    where
        F: FnMut(&Graph, &Graph) -> PivotDistance,
    {
        self.pivots
            .iter()
            .map(|&p| oracle(&store[p], query))
            .collect()
    }

    /// The triangle-inequality bounds `(lb, ub)` on `d(query, id)` given
    /// the precomputed query-to-pivot distances: the tightest
    /// `lb = max_i max(q_i.lb − g_i.ub, g_i.lb − q_i.ub, 0)` and
    /// `ub = min_i (q_i.ub + g_i.ub)` over all pivots. With zero pivots
    /// this degrades to the vacuous `(0, usize::MAX)`. Returns `None` for
    /// an id the table does not hold.
    #[must_use]
    pub fn bounds(&self, query_dists: &[PivotDistance], id: GraphId) -> Option<(usize, usize)> {
        let row = self.rows.get(&id)?;
        debug_assert_eq!(row.len(), query_dists.len(), "one distance per pivot");
        let mut lb = 0usize;
        let mut ub = usize::MAX;
        for (q, g) in query_dists.iter().zip(row) {
            lb = lb
                .max(q.lb().saturating_sub(g.ub()))
                .max(g.lb().saturating_sub(q.ub()));
            ub = ub.min(q.ub().saturating_add(g.ub()));
        }
        Some((lb, ub))
    }

    /// The triangle-inequality bounds `(lb, ub)` on `d(a, b)` for two
    /// graphs the table already holds, combining their stored rows —
    /// the tightest `lb = max_i max(a_i.lb − b_i.ub, b_i.lb − a_i.ub)`
    /// and `ub = min_i (a_i.ub + b_i.ub)` over all pivots. Because both
    /// sides are members, building the index is the *only* arming cost:
    /// a self-join reads pair bounds straight out of the table with
    /// zero per-row oracle calls. With zero pivots this degrades to the
    /// vacuous `(0, usize::MAX)`. Returns `None` if either id has no
    /// table row.
    #[must_use]
    pub fn member_bounds(&self, a: GraphId, b: GraphId) -> Option<(usize, usize)> {
        let ra = self.rows.get(&a)?;
        let rb = self.rows.get(&b)?;
        let mut lb = 0usize;
        let mut ub = usize::MAX;
        for (da, db) in ra.iter().zip(rb) {
            lb = lb
                .max(da.lb().saturating_sub(db.ub()))
                .max(db.lb().saturating_sub(da.ub()));
            ub = ub.min(da.ub().saturating_add(db.ub()));
        }
        Some((lb, ub))
    }

    /// The selected pivot ids, in selection (= column) order.
    #[must_use]
    pub fn pivots(&self) -> &[GraphId] {
        &self.pivots
    }

    /// Number of selected pivots (≤ [`PivotIndex::target`]).
    #[must_use]
    pub fn pivot_count(&self) -> usize {
        self.pivots.len()
    }

    /// The per-query arming cost of this index, in query-to-pivot
    /// distance computations: what one call to
    /// [`PivotIndex::query_distances`] spends before any per-candidate
    /// bound can be read.
    #[must_use]
    pub fn query_cost(&self) -> usize {
        self.pivots.len()
    }

    /// The pivot count the index aims for (clamped to the store size at
    /// selection time).
    #[must_use]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Number of table rows (= graphs in the synchronized store).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether `id` has a table row.
    #[must_use]
    pub fn contains(&self, id: GraphId) -> bool {
        self.rows.contains_key(&id)
    }

    /// The stored distances from the graph behind `id` to every pivot, in
    /// column order, or `None` for an unknown id.
    #[must_use]
    pub fn distances(&self, id: GraphId) -> Option<&[PivotDistance]> {
        self.rows.get(&id).map(Vec::as_slice)
    }

    /// The store revision the table was last synchronized against.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Reassembles an index from persisted parts (snapshot load only).
    /// The caller is responsible for the parts being mutually consistent:
    /// every row the same length as `pivots`, every pivot owning a row.
    /// Because the persisted `revision` is carried through, a loaded
    /// index resumes incremental [`PivotIndex::sync`] exactly where the
    /// saved one left off — in particular, syncing against an unchanged
    /// restored store is an `O(1)` no-op.
    pub(crate) fn from_parts(
        target: usize,
        revision: u64,
        pivots: Vec<GraphId>,
        rows: BTreeMap<GraphId, Vec<PivotDistance>>,
    ) -> Self {
        debug_assert!(rows.values().all(|row| row.len() == pivots.len()));
        debug_assert!(pivots.iter().all(|p| rows.contains_key(p)));
        PivotIndex {
            target,
            revision,
            pivots,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Label;

    /// A cheap true metric on graphs: the L1 distance between node-label
    /// count vectors (multiset symmetric difference size).
    fn label_metric(a: &Graph, b: &Graph) -> usize {
        let (la, lb) = (a.label_multiset(), b.label_multiset());
        let (mut i, mut j, mut diff) = (0, 0, 0usize);
        while i < la.len() && j < lb.len() {
            match la[i].cmp(&lb[j]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        diff + (la.len() - i) + (lb.len() - j)
    }

    fn exact_oracle() -> impl FnMut(&Graph, &Graph) -> PivotDistance {
        |a, b| PivotDistance::exact(label_metric(a, b))
    }

    fn bag(labels: &[u32]) -> Graph {
        Graph::from_edges(labels.iter().map(|&l| Label(l)).collect(), &[])
    }

    fn store_of(bags: &[&[u32]]) -> (GraphStore, Vec<GraphId>) {
        let mut store = GraphStore::new();
        let ids = bags.iter().map(|ls| store.insert(bag(ls))).collect();
        (store, ids)
    }

    #[test]
    fn distance_constructors_validate() {
        assert!(PivotDistance::exact(3).is_exact());
        assert_eq!(PivotDistance::exact(3).lb(), 3);
        assert_eq!(PivotDistance::exact(3).ub(), 3);
        let iv = PivotDistance::interval(1, 4);
        assert!(!iv.is_exact());
        let empty = std::panic::catch_unwind(|| PivotDistance::interval(4, 1));
        assert!(empty.is_err(), "empty intervals must be rejected");
    }

    #[test]
    fn selection_is_deterministic_max_min() {
        // Distances from the first graph (= first pivot, smallest id):
        // b:2  c:4  d:4. Max–min picks distance 4 with the smaller id (c),
        // then the next pivot maximizes min(d-to-a, d-to-c).
        let (store, ids) = store_of(&[&[1, 2], &[1, 3], &[4, 5], &[6, 7]]);
        let idx = PivotIndex::build(&store, 3, &mut exact_oracle());
        assert_eq!(idx.pivots()[0], ids[0], "first pivot is the smallest id");
        assert_eq!(
            idx.pivots()[1],
            ids[2],
            "farthest point, smallest-id tie-break"
        );
        assert_eq!(idx.pivot_count(), 3);
        assert_eq!(idx.len(), store.len());
        // Rebuilding gives the identical index.
        let again = PivotIndex::build(&store, 3, &mut exact_oracle());
        assert_eq!(idx.pivots(), again.pivots());
        for id in store.ids() {
            assert_eq!(idx.distances(id), again.distances(id));
        }
    }

    #[test]
    fn bounds_sandwich_the_true_metric() {
        let (store, _) = store_of(&[&[1, 2, 3], &[1, 2], &[4], &[1, 4, 5, 6], &[2, 3]]);
        let idx = PivotIndex::build(&store, 2, &mut exact_oracle());
        let query = bag(&[1, 5]);
        let qd = idx.query_distances(&store, &query, &mut exact_oracle());
        for (id, g) in store.iter() {
            let (lb, ub) = idx.bounds(&qd, id).expect("row exists");
            let d = label_metric(&query, g);
            assert!(lb <= d && d <= ub, "bounds [{lb}, {ub}] must contain {d}");
        }
    }

    #[test]
    fn interval_oracles_keep_bounds_admissible() {
        // An oracle that only knows distances up to ±1 slack.
        let mut fuzzy = |a: &Graph, b: &Graph| {
            let d = label_metric(a, b);
            PivotDistance::interval(d.saturating_sub(1), d + 1)
        };
        let (store, _) = store_of(&[&[1, 2, 3], &[1, 2], &[4], &[1, 4, 5, 6]]);
        let idx = PivotIndex::build(&store, 2, &mut fuzzy);
        let query = bag(&[2, 4]);
        let qd = idx.query_distances(&store, &query, &mut fuzzy);
        for (id, g) in store.iter() {
            let (lb, ub) = idx.bounds(&qd, id).expect("row exists");
            let d = label_metric(&query, g);
            assert!(lb <= d && d <= ub, "interval bounds [{lb}, {ub}] vs {d}");
        }
    }

    #[test]
    fn member_bounds_sandwich_the_true_metric() {
        let (store, _) = store_of(&[&[1, 2, 3], &[1, 2], &[4], &[1, 4, 5, 6], &[2, 3]]);
        let idx = PivotIndex::build(&store, 2, &mut exact_oracle());
        for (a, ga) in store.iter() {
            for (b, gb) in store.iter() {
                let (lb, ub) = idx.member_bounds(a, b).expect("both rows exist");
                let d = label_metric(ga, gb);
                assert!(lb <= d && d <= ub, "bounds [{lb}, {ub}] must contain {d}");
            }
        }
        // Zero pivots: vacuous; foreign ids: no bounds.
        let empty = PivotIndex::build(&store, 0, &mut exact_oracle());
        let ids = store.ids();
        assert_eq!(empty.member_bounds(ids[0], ids[1]), Some((0, usize::MAX)));
        let (_, foreign) = store_of(&[&[9]]);
        assert_eq!(idx.member_bounds(ids[0], foreign[0]), None);
    }

    #[test]
    fn zero_pivots_yield_vacuous_bounds() {
        let (store, ids) = store_of(&[&[1], &[2]]);
        let idx = PivotIndex::build(&store, 0, &mut exact_oracle());
        assert_eq!(idx.pivot_count(), 0);
        let qd = idx.query_distances(&store, &bag(&[3]), &mut exact_oracle());
        assert!(qd.is_empty());
        assert_eq!(idx.bounds(&qd, ids[0]), Some((0, usize::MAX)));
    }

    #[test]
    fn target_beyond_store_clamps_then_grows_on_sync() {
        let (mut store, ids) = store_of(&[&[1, 1]]);
        let mut oracle = exact_oracle();
        let mut idx = PivotIndex::build(&store, 3, &mut oracle);
        assert_eq!(idx.pivot_count(), 1, "clamped to the store size");
        assert_eq!(idx.distances(ids[0]), Some(&[PivotDistance::exact(0)][..]));

        let b = store.insert(bag(&[2, 3]));
        let c = store.insert(bag(&[4]));
        idx.sync(&store, &mut oracle);
        assert_eq!(idx.pivot_count(), 3, "selection grows toward the target");
        assert_eq!(idx.len(), 3);
        for id in [ids[0], b, c] {
            assert!(idx.contains(id));
            assert_eq!(idx.distances(id).unwrap().len(), 3);
        }
    }

    #[test]
    fn sync_is_a_noop_on_unchanged_revision() {
        let (store, _) = store_of(&[&[1], &[2], &[3]]);
        let calls = std::cell::Cell::new(0usize);
        let mut counting = |a: &Graph, b: &Graph| {
            calls.set(calls.get() + 1);
            PivotDistance::exact(label_metric(a, b))
        };
        let mut idx = PivotIndex::build(&store, 2, &mut counting);
        let after_build = calls.get();
        assert!(after_build > 0);
        idx.sync(&store, &mut counting);
        assert_eq!(
            calls.get(),
            after_build,
            "unchanged store costs zero oracle calls"
        );
        assert_eq!(idx.revision(), store.revision());
    }

    #[test]
    fn removing_a_pivot_drops_its_column_and_reselects() {
        let (mut store, ids) = store_of(&[&[1, 2], &[1, 3], &[4, 5], &[6, 7]]);
        let mut oracle = exact_oracle();
        let mut idx = PivotIndex::build(&store, 2, &mut oracle);
        let victim = idx.pivots()[0];
        assert_eq!(victim, ids[0]);

        store.remove(victim);
        idx.sync(&store, &mut oracle);
        assert!(!idx.contains(victim), "the row is gone");
        assert!(
            !idx.pivots().contains(&victim),
            "the dead pivot is deselected"
        );
        assert_eq!(idx.pivot_count(), 2, "selection replaced the lost pivot");
        assert_eq!(idx.len(), store.len());
        // Every surviving row matches the reselected pivot columns, and
        // the bounds stay admissible.
        let query = bag(&[1, 6]);
        let qd = idx.query_distances(&store, &query, &mut oracle);
        for (id, g) in store.iter() {
            assert_eq!(idx.distances(id).unwrap().len(), idx.pivot_count());
            let (lb, ub) = idx.bounds(&qd, id).unwrap();
            let d = label_metric(&query, g);
            assert!(lb <= d && d <= ub);
        }
    }

    #[test]
    fn inserts_add_rows_without_touching_pivots() {
        let (mut store, _) = store_of(&[&[1, 2], &[3, 4], &[5, 6]]);
        let mut oracle = exact_oracle();
        let mut idx = PivotIndex::build(&store, 2, &mut oracle);
        let before = idx.pivots().to_vec();
        let fresh = store.insert(bag(&[7, 8, 9]));
        idx.sync(&store, &mut oracle);
        assert_eq!(idx.pivots(), before, "inserts keep the pivot set stable");
        let row = idx.distances(fresh).expect("fresh row");
        assert_eq!(row.len(), 2);
        for (col, &p) in before.iter().enumerate() {
            assert_eq!(row[col].lb(), label_metric(&store[p], &store[fresh]));
        }
    }

    #[test]
    fn unknown_ids_have_no_bounds() {
        let (store, _) = store_of(&[&[1], &[2]]);
        let (other, foreign) = store_of(&[&[9]]);
        let _ = other;
        let idx = PivotIndex::build(&store, 1, &mut exact_oracle());
        let qd = idx.query_distances(&store, &bag(&[1]), &mut exact_oracle());
        assert_eq!(idx.bounds(&qd, foreign[0]), None);
    }
}
