//! Shared experiment plumbing: dataset preparation, ground-truth
//! generation, model training, and the evaluation loops behind Tables 3-6.
//!
//! All method dispatch goes through [`GedEngine`]: the model zoo builds a
//! [`MethodKind`]-keyed registry, [`TrainedModels::engine`] wraps it into
//! an engine, and the `eval_*` loops issue typed [`GedQuery`] batches.

use ged_baselines::astar::astar_exact_with_limit;
use ged_baselines::gedgnn::{Gedgnn, GedgnnConfig};
use ged_baselines::simgnn::{Simgnn, SimgnnConfig, SimgnnVariant};
use ged_baselines::solvers::{ClassicSolver, GedgnnSolver, NoahSolver, SimgnnSolver, TagsimSolver};
use ged_baselines::tagsim::{TagSim, TagSimConfig};
use ged_core::engine::{GedEngine, GedQuery, QueryOpts};
use ged_core::error::GedError;
use ged_core::gediot::{Gediot, GediotConfig};
use ged_core::pairs::GedPair;
use ged_core::solver::{BatchRunner, GedgwSolver, GedhotSolver, GediotSolver, SolverRegistry};
use ged_eval::metrics::{self, GroupedRanking, PairOutcome};
use ged_graph::{generate, DatasetKind, GraphDataset, GraphId, Split};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

pub use ged_core::method::MethodKind;

/// A* expansion budget when labeling pairs exactly.
const ASTAR_BUDGET: usize = 300_000;

/// Experiment sizing.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Graphs per synthetic dataset.
    pub dataset_size: usize,
    /// Partners sampled per test query.
    pub partners: usize,
    /// Cap on training pairs.
    pub train_pair_cap: usize,
    /// Training epochs for every neural model.
    pub epochs: usize,
    /// `k` for k-best GEP generation.
    pub kbest_k: usize,
    /// Maximum test queries evaluated.
    pub max_queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// CI-sized defaults.
    #[must_use]
    pub fn quick() -> Self {
        ExpConfig {
            dataset_size: 70,
            partners: 14,
            train_pair_cap: 400,
            epochs: 18,
            kbest_k: 12,
            max_queries: 10,
            seed: 20_250_612,
        }
    }

    /// A larger run closer to the paper's protocol.
    #[must_use]
    pub fn full() -> Self {
        ExpConfig {
            dataset_size: 160,
            partners: 25,
            train_pair_cap: 1200,
            epochs: 25,
            kbest_k: 20,
            max_queries: 16,
            seed: 20_250_612,
        }
    }

    /// Reads `GED_SCALE` (`quick` default, `full` for the larger run).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("GED_SCALE").as_deref() {
            Ok("full") => Self::full(),
            _ => Self::quick(),
        }
    }

    /// A deterministic RNG for this configuration.
    #[must_use]
    pub fn rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed)
    }
}

/// A dataset with splits, supervised training pairs and per-query test
/// groups (the paper's similarity-search layout).
pub struct PreparedDataset {
    /// Which dataset this imitates.
    pub kind: DatasetKind,
    /// The graphs, behind stable [`GraphId`]s.
    pub dataset: GraphDataset,
    /// 60/20/20 split (graph ids into `dataset`).
    pub split: Split,
    /// Supervised training pairs.
    pub train_pairs: Vec<GedPair>,
    /// Test groups: one vector of supervised pairs per query graph.
    pub test_groups: Vec<Vec<GedPair>>,
}

/// Labels an (ordered) pair with exact A* ground truth when affordable.
fn label_pair(g1: &ged_graph::Graph, g2: &ged_graph::Graph) -> Option<GedPair> {
    let (a, b, _) = ged_core::pairs::ordered(g1, g2);
    if a.num_nodes() > 10 || b.num_nodes() > 10 {
        return None;
    }
    let res = astar_exact_with_limit(a, b, ASTAR_BUDGET)?;
    Some(GedPair::supervised(
        a.clone(),
        b.clone(),
        res.ged as f64,
        res.mapping,
    ))
}

/// Builds a supervised pair from a graph and a Δ-perturbed copy (the
/// paper's ground-truth technique for >10-node graphs).
fn perturbed_pair<R: Rng>(
    g: &ged_graph::Graph,
    delta: usize,
    num_labels: u32,
    rng: &mut R,
) -> GedPair {
    let p = generate::perturb_with_edits(g, delta, num_labels, rng);
    GedPair::supervised(g.clone(), p.graph, p.applied as f64, p.mapping)
}

/// Prepares a dataset following Section 6.1: exact ground truth for pairs
/// of ≤10-node graphs, Δ-perturbation partners for larger graphs.
/// `partners_from_test` switches to the Table 5 protocol (both graphs of a
/// test pair unseen during training).
pub fn prepare(
    kind: DatasetKind,
    cfg: &ExpConfig,
    partners_from_test: bool,
    rng: &mut SmallRng,
) -> PreparedDataset {
    let dataset = GraphDataset::build(kind, cfg.dataset_size, rng);
    let split = dataset.split(rng);
    let num_labels = kind.num_labels();

    // Training pairs: all pairs of small training graphs (exact GT), plus
    // perturbation pairs for large training graphs.
    let mut train_pairs = Vec::new();
    let small_train: Vec<GraphId> = split
        .train
        .iter()
        .copied()
        .filter(|&i| dataset[i].num_nodes() <= 10)
        .collect();
    let mut all = ged_graph::dataset::all_pairs(&small_train);
    all.shuffle(rng);
    for (i, j) in all {
        if train_pairs.len() >= cfg.train_pair_cap {
            break;
        }
        if let Some(p) = label_pair(&dataset[i], &dataset[j]) {
            train_pairs.push(p);
        }
    }
    for &i in &split.train {
        if dataset[i].num_nodes() > 10 && train_pairs.len() < cfg.train_pair_cap + 60 {
            let delta = 1 + rng.gen_range(0..8);
            train_pairs.push(perturbed_pair(&dataset[i], delta, num_labels, rng));
        }
    }

    // Test groups.
    let pool: &[GraphId] = if partners_from_test {
        &split.test
    } else {
        &split.train
    };
    let mut test_groups = Vec::new();
    for &q in split.test.iter().take(cfg.max_queries) {
        let qg = &dataset[q];
        let mut group = Vec::new();
        if qg.num_nodes() <= 10 {
            let candidates: Vec<GraphId> = pool
                .iter()
                .copied()
                .filter(|&i| i != q && dataset[i].num_nodes() <= 10)
                .collect();
            let sample: Vec<GraphId> = candidates
                .choose_multiple(rng, cfg.partners)
                .copied()
                .collect();
            for i in sample {
                if let Some(p) = label_pair(qg, &dataset[i]) {
                    group.push(p);
                }
            }
        } else {
            // Large query: synthetic partners with known Δ.
            for _ in 0..cfg.partners {
                let delta = 1 + rng.gen_range(0..10);
                group.push(perturbed_pair(qg, delta, num_labels, rng));
            }
        }
        if group.len() >= 2 {
            test_groups.push(group);
        }
    }

    PreparedDataset {
        kind,
        dataset,
        split,
        train_pairs,
        test_groups,
    }
}

/// The trained model zoo shared by the evaluation tables.
///
/// Models sit behind [`Arc`] so [`TrainedModels::registry`] can hand the
/// same trained weights to several solvers (GEDHOT reuses GEDIOT, Noah
/// reuses GEDGNN) without retraining or cloning parameters.
pub struct TrainedModels {
    /// SimGNN baseline.
    pub simgnn: Arc<Simgnn>,
    /// GPN stand-in (GCN-flavored regressor).
    pub gpn: Arc<Simgnn>,
    /// TaGSim baseline.
    pub tagsim: Arc<TagSim>,
    /// GEDGNN baseline.
    pub gedgnn: Arc<Gedgnn>,
    /// Our GEDIOT model.
    pub gediot: Arc<Gediot>,
}

impl TrainedModels {
    /// Builds the full Table-3 solver lineup — every [`MethodKind`] mapped
    /// to a boxed solver, registered in the paper's row order. `k` is the
    /// search effort used where a method needs one for *value* prediction
    /// (Noah's beam width).
    #[must_use]
    pub fn registry(&self, k: usize) -> SolverRegistry {
        let mut reg = SolverRegistry::new();
        reg.register(
            MethodKind::SimGnn,
            Box::new(SimgnnSolver::new("SimGNN", Arc::clone(&self.simgnn))),
        );
        reg.register(
            MethodKind::Gpn,
            Box::new(SimgnnSolver::new("GPN", Arc::clone(&self.gpn))),
        );
        reg.register(
            MethodKind::TaGSim,
            Box::new(TagsimSolver::new(Arc::clone(&self.tagsim))),
        );
        reg.register(
            MethodKind::GedGnn,
            Box::new(GedgnnSolver::new(Arc::clone(&self.gedgnn))),
        );
        reg.register(
            MethodKind::Gediot,
            Box::new(GediotSolver::new(Arc::clone(&self.gediot))),
        );
        reg.register(MethodKind::Classic, Box::new(ClassicSolver));
        reg.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        reg.register(
            MethodKind::Noah,
            Box::new(NoahSolver::new(Arc::clone(&self.gedgnn)).with_beam(k)),
        );
        reg.register(
            MethodKind::Gedhot,
            Box::new(GedhotSolver::new(Arc::clone(&self.gediot))),
        );
        reg
    }

    /// Wraps the full registry into a [`GedEngine`]: GEDHOT as the default
    /// method, edit-path beam width `k` (clamped to ≥ 1), and
    /// `GED_THREADS`-controlled parallelism.
    #[must_use]
    pub fn engine(&self, k: usize) -> GedEngine {
        GedEngine::builder(self.registry(k))
            .method(MethodKind::Gedhot)
            .beam_width(k.max(1))
            .runner(BatchRunner::from_env())
            .build()
            .expect("the full Table-3 registry always builds")
    }
}

/// Trains every neural model on the prepared training pairs.
pub fn train_all(prep: &PreparedDataset, cfg: &ExpConfig, rng: &mut SmallRng) -> TrainedModels {
    let nl = prep.kind.num_labels() as usize;
    let mut simgnn = Simgnn::new(SimgnnConfig::small(nl, SimgnnVariant::SimGnn), rng);
    let mut gpn = Simgnn::new(SimgnnConfig::small(nl, SimgnnVariant::Gpn), rng);
    let mut tagsim = TagSim::new(TagSimConfig::small(nl), rng);
    let mut gedgnn = Gedgnn::new(GedgnnConfig::small(nl), rng);
    let mut gediot = Gediot::new(GediotConfig::small(nl), rng);
    simgnn.train(&prep.train_pairs, cfg.epochs, rng);
    gpn.train(&prep.train_pairs, cfg.epochs, rng);
    tagsim.train(&prep.train_pairs, cfg.epochs, rng);
    gedgnn.train(&prep.train_pairs, cfg.epochs, rng);
    gediot.train(&prep.train_pairs, cfg.epochs, rng);
    TrainedModels {
        simgnn: Arc::new(simgnn),
        gpn: Arc::new(gpn),
        tagsim: Arc::new(tagsim),
        gedgnn: Arc::new(gedgnn),
        gediot: Arc::new(gediot),
    }
}

/// One table row of value/ranking metrics.
#[derive(Clone, Debug)]
pub struct ValueRow {
    /// Which method the row measures (rendered via its `Display` name).
    pub method: MethodKind,
    /// Mean absolute error.
    pub mae: f64,
    /// Rounded-equality accuracy.
    pub accuracy: f64,
    /// Mean Spearman ρ over query groups.
    pub rho: f64,
    /// Mean Kendall τ over query groups.
    pub tau: f64,
    /// Mean p@5 over query groups (the paper uses p@10/p@20; the scaled
    /// partner count makes 5/10 the comparable cut-offs).
    pub p_at_5: f64,
    /// Mean p@10 over query groups.
    pub p_at_10: f64,
    /// Feasibility ratio.
    pub feasibility: f64,
    /// Seconds per 100 pairs.
    pub time_per_100: f64,
    /// Path precision (Table 4 only; 0 otherwise).
    pub precision: f64,
    /// Path recall (Table 4 only; 0 otherwise).
    pub recall: f64,
    /// Path F1 (Table 4 only; 0 otherwise).
    pub f1: f64,
}

/// Evaluates value metrics of one method over the test groups (Table 3 row).
///
/// Dispatch is a typed [`GedQuery::Value`] batch through the engine
/// (parallel, input-order-preserving, and bit-identical to a sequential
/// loop); the metric accumulation below is sequential and deterministic.
///
/// # Errors
/// Propagates any [`GedError`] from the engine (e.g. the method is not
/// registered).
pub fn eval_value(
    engine: &GedEngine,
    prep: &PreparedDataset,
    method: MethodKind,
) -> Result<ValueRow, GedError> {
    let flat: Vec<&GedPair> = prep.test_groups.iter().flatten().collect();
    let queries: Vec<GedQuery<'_>> = flat.iter().map(|p| GedQuery::Value { pair: p }).collect();
    let start = Instant::now();
    let responses = engine.query_batch(&queries, QueryOpts::with_method(method));
    let elapsed = start.elapsed().as_secs_f64();
    let count = flat.len();
    let mut all_preds = Vec::with_capacity(count);
    for response in responses {
        let value = response?
            .into_value()
            .expect("Value queries yield Value responses");
        all_preds.push(value.ged);
    }

    let mut outcomes = Vec::new();
    let mut ranking = GroupedRanking::new();
    let mut next_pred = all_preds.into_iter();
    for group in &prep.test_groups {
        let mut preds = Vec::with_capacity(group.len());
        let mut gts = Vec::with_capacity(group.len());
        for pair in group {
            let pred = next_pred.next().expect("one prediction per pair");
            let gt = pair.ged.expect("test pairs are supervised");
            outcomes.push(PairOutcome { pred, gt });
            preds.push(pred);
            gts.push(gt);
        }
        ranking.push_group(preds, gts);
    }
    Ok(ValueRow {
        method,
        mae: metrics::mae(&outcomes),
        accuracy: metrics::accuracy(&outcomes),
        rho: ranking.mean_spearman(),
        tau: ranking.mean_kendall(),
        p_at_5: ranking.mean_precision_at(5),
        p_at_10: ranking.mean_precision_at(10),
        feasibility: metrics::feasibility(&outcomes),
        time_per_100: elapsed / count.max(1) as f64 * 100.0,
        precision: 0.0,
        recall: 0.0,
        f1: 0.0,
    })
}

/// Evaluates GEP-generation metrics of one method (Table 4 row).
///
/// Path generation is a typed [`GedQuery::Path`] batch through the
/// engine; see [`eval_value`] for the parallelism contract.
///
/// # Errors
/// Propagates any [`GedError`] from the engine — in particular
/// [`GedError::PathsUnsupported`] for non-Table-4 methods.
pub fn eval_path(
    engine: &GedEngine,
    prep: &PreparedDataset,
    method: MethodKind,
    k: usize,
) -> Result<ValueRow, GedError> {
    let flat: Vec<&GedPair> = prep.test_groups.iter().flatten().collect();
    let queries: Vec<GedQuery<'_>> = flat
        .iter()
        .map(|p| GedQuery::Path {
            pair: p,
            k: Some(k),
        })
        .collect();
    let start = Instant::now();
    let responses = engine.query_batch(&queries, QueryOpts::with_method(method));
    let elapsed = start.elapsed().as_secs_f64();
    let count = flat.len();
    let mut all_paths = Vec::with_capacity(count);
    for response in responses {
        let path = response?
            .into_path()
            .expect("Path queries yield Path responses");
        all_paths.push(path);
    }

    let mut outcomes = Vec::new();
    let mut ranking = GroupedRanking::new();
    let (mut psum, mut rsum, mut fsum) = (0.0, 0.0, 0.0);
    let mut next_path = all_paths.into_iter();
    for group in &prep.test_groups {
        let mut preds = Vec::with_capacity(group.len());
        let mut gts = Vec::with_capacity(group.len());
        for pair in group {
            let est = next_path.next().expect("one path per pair");
            let gt = pair.ged.expect("test pairs are supervised");
            let gt_ops = pair
                .mapping
                .as_ref()
                .expect("test pairs carry mappings")
                .canonical_ops(&pair.g1, &pair.g2);
            let (p, r) = metrics::path_precision_recall(&est.ops, &gt_ops);
            psum += p;
            rsum += r;
            fsum += metrics::path_f1(p, r);
            outcomes.push(PairOutcome {
                pred: est.ged as f64,
                gt,
            });
            preds.push(est.ged as f64);
            gts.push(gt);
        }
        ranking.push_group(preds, gts);
    }
    let n = count.max(1) as f64;
    Ok(ValueRow {
        method,
        mae: metrics::mae(&outcomes),
        accuracy: metrics::accuracy(&outcomes),
        rho: ranking.mean_spearman(),
        tau: ranking.mean_kendall(),
        p_at_5: ranking.mean_precision_at(5),
        p_at_10: ranking.mean_precision_at(10),
        feasibility: metrics::feasibility(&outcomes),
        time_per_100: elapsed / n * 100.0,
        precision: psum / n,
        recall: rsum / n,
        f1: fsum / n,
    })
}

/// Renders value rows as a fixed-width table (Table 3/5 layout).
#[must_use]
pub fn format_value_table(title: &str, rows: &[ValueRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<9} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>11} {:>12}\n",
        "Method", "MAE", "Accuracy", "rho", "tau", "p@5", "p@10", "Feasibility", "sec/100p"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>7.3} {:>8.1}% {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>10.1}% {:>12.3}\n",
            r.method,
            r.mae,
            r.accuracy * 100.0,
            r.rho,
            r.tau,
            r.p_at_5,
            r.p_at_10,
            r.feasibility * 100.0,
            r.time_per_100
        ));
    }
    out
}

/// Renders path rows as a fixed-width table (Table 4 layout).
#[must_use]
pub fn format_path_table(title: &str, rows: &[ValueRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<9} {:>7} {:>9} {:>7} {:>7} {:>8} {:>10} {:>7} {:>12}\n",
        "Method", "MAE", "Accuracy", "rho", "tau", "Recall", "Precision", "F1", "sec/100p"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:>7.3} {:>8.1}% {:>7.3} {:>7.3} {:>8.3} {:>10.3} {:>7.3} {:>12.3}\n",
            r.method,
            r.mae,
            r.accuracy * 100.0,
            r.rho,
            r.tau,
            r.recall,
            r.precision,
            r.f1,
            r.time_per_100
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> ExpConfig {
        ExpConfig {
            dataset_size: 24,
            partners: 4,
            train_pair_cap: 30,
            epochs: 2,
            kbest_k: 4,
            max_queries: 3,
            seed: 7,
        }
    }

    #[test]
    fn prepare_builds_supervised_pairs() {
        let cfg = mini_cfg();
        let mut rng = cfg.rng();
        let prep = prepare(DatasetKind::Aids, &cfg, false, &mut rng);
        assert!(!prep.train_pairs.is_empty());
        assert!(!prep.test_groups.is_empty());
        for p in &prep.train_pairs {
            assert!(p.ged.is_some() && p.mapping.is_some());
            assert!(p.g1.num_nodes() <= p.g2.num_nodes());
        }
    }

    #[test]
    fn end_to_end_value_and_path_rows() {
        let cfg = mini_cfg();
        let mut rng = cfg.rng();
        let prep = prepare(DatasetKind::Linux, &cfg, false, &mut rng);
        let models = train_all(&prep, &cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        for m in [MethodKind::Gediot, MethodKind::Classic, MethodKind::Gedgw] {
            let row = eval_value(&engine, &prep, m).expect("registered method");
            assert!(row.mae.is_finite() && row.mae >= 0.0, "{m:?}");
        }
        // A value regressor cannot answer Path queries — typed error, no
        // panic.
        let err = eval_path(&engine, &prep, MethodKind::SimGnn, cfg.kbest_k).unwrap_err();
        assert_eq!(err, GedError::PathsUnsupported(MethodKind::SimGnn));
        let row = eval_path(&engine, &prep, MethodKind::Gedgw, cfg.kbest_k).expect("path-capable");
        // Path-based estimates are always feasible.
        assert!(
            (row.feasibility - 1.0).abs() < 1e-9,
            "feasibility {}",
            row.feasibility
        );
        assert!(row.f1 > 0.0);
        let txt = format_path_table("t", &[row]);
        assert!(txt.contains("GEDGW"));
    }

    #[test]
    fn registry_exposes_table3_methods_in_paper_row_order() {
        let cfg = mini_cfg();
        let mut rng = cfg.rng();
        let prep = prepare(DatasetKind::Aids, &cfg, false, &mut rng);
        let models = train_all(&prep, &cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        // Exactly the Table-3 method set, in the paper's row order.
        assert_eq!(engine.methods(), MethodKind::table3());
        let expected: Vec<&str> = MethodKind::table3().iter().map(|m| m.name()).collect();
        assert_eq!(
            expected,
            vec![
                "SimGNN", "GPN", "TaGSim", "GEDGNN", "GEDIOT", "Classic", "GEDGW", "Noah", "GEDHOT"
            ]
        );
        // Every method is reachable as a trait object through the engine.
        for m in MethodKind::table3() {
            let solver = engine.solver(m).expect("full lineup");
            assert_eq!(solver.name(), m.name());
        }
        // And the path-capable subset is exactly Table 4.
        let pair = &prep.test_groups[0][0];
        for m in MethodKind::table3() {
            let path = GedQuery::Path { pair, k: Some(4) };
            let has_path = engine.query_with(path, QueryOpts::with_method(m)).is_ok();
            assert_eq!(has_path, MethodKind::table4().contains(&m), "{m:?}");
        }
    }
}
