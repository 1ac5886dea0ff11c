//! One function per table/figure of the paper. See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.

use crate::harness::{
    eval_path, eval_value, format_path_table, format_value_table, prepare, train_all, ExpConfig,
    MethodKind, PreparedDataset,
};
use ged_baselines::astar::{astar_beam, astar_exact_with_limit};
use ged_baselines::classic::classic_ged;
use ged_baselines::gedgnn::{Gedgnn, GedgnnConfig};
use ged_core::engine::{GedEngine, GedQuery, QueryOpts};
use ged_core::ensemble::{Gedhot, Source};
use ged_core::gedgw::Gedgw;
use ged_core::gediot::{ConvKind, Gediot, GediotConfig};
use ged_core::kbest::kbest_edit_path;
use ged_core::pairs::GedPair;
use ged_eval::metrics::{self, PairOutcome};
use ged_graph::{generate, DatasetKind, GraphDataset, GraphId};
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;
use std::time::Instant;

const DATASETS: [DatasetKind; 3] = [DatasetKind::Aids, DatasetKind::Linux, DatasetKind::Imdb];

/// One value prediction by `method`, through the engine's request form.
fn predict_as(engine: &GedEngine, method: MethodKind, pair: &GedPair) -> f64 {
    engine
        .query_with(GedQuery::Value { pair }, QueryOpts::with_method(method))
        .expect("full registry")
        .into_value()
        .expect("a Value query answers Value")
        .ged
}

/// Table 2: dataset statistics.
#[must_use]
pub fn run_table2(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    let mut out =
        String::from("== Table 2: Statistics of Graph Datasets (synthetic stand-ins) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "Dataset", "|D|", "|V|avg", "|E|avg", "|V|max", "|E|max", "|L|"
    );
    for kind in DATASETS {
        let ds = GraphDataset::build(kind, cfg.dataset_size, &mut rng);
        let s = ds.stats();
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>8.1} {:>8.1} {:>8} {:>8} {:>6}",
            kind.name(),
            s.count,
            s.avg_nodes,
            s.avg_edges,
            s.max_nodes,
            s.max_edges,
            s.num_labels
        );
    }
    out
}

/// Table 3: GED computation quality over all nine methods and three
/// datasets.
#[must_use]
pub fn run_table3(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    for kind in DATASETS {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, false, &mut rng);
        let models = train_all(&prep, cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        let rows: Vec<_> = MethodKind::table3()
            .into_iter()
            .map(|m| eval_value(&engine, &prep, m).expect("full registry"))
            .collect();
        out.push_str(&format_value_table(
            &format!("Table 3 ({}): GED computation", kind.name()),
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 4: GEP generation quality for the path-capable methods.
#[must_use]
pub fn run_table4(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    for kind in DATASETS {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, false, &mut rng);
        let models = train_all(&prep, cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        let rows: Vec<_> = MethodKind::table4()
            .into_iter()
            .map(|m| eval_path(&engine, &prep, m, cfg.kbest_k).expect("path-capable lineup"))
            .collect();
        out.push_str(&format_path_table(
            &format!("Table 4 ({}): GEP generation", kind.name()),
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Table 5: generalization to pairs of *unseen* graphs (both sides from the
/// test split) for the learning-based methods.
#[must_use]
pub fn run_table5(cfg: &ExpConfig) -> String {
    let methods = [
        MethodKind::SimGnn,
        MethodKind::Gpn,
        MethodKind::TaGSim,
        MethodKind::GedGnn,
        MethodKind::Gediot,
    ];
    let mut out = String::new();
    for kind in DATASETS {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, true, &mut rng);
        let models = train_all(&prep, cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        let rows: Vec<_> = methods
            .iter()
            .map(|&m| eval_value(&engine, &prep, m).expect("full registry"))
            .collect();
        out.push_str(&format_value_table(
            &format!("Table 5 ({}): unseen graph pairs", kind.name()),
            &rows,
        ));
        out.push('\n');
    }
    out
}

fn eval_gediot_variant(
    prep: &PreparedDataset,
    cfg: &ExpConfig,
    name: &str,
    make: impl Fn(GediotConfig) -> GediotConfig,
    rng: &mut SmallRng,
) -> String {
    let base = GediotConfig::small(prep.kind.num_labels() as usize);
    let mut model = Gediot::new(make(base), rng);
    model.train(&prep.train_pairs, cfg.epochs, rng);
    let mut outcomes = Vec::new();
    let mut ranking = ged_eval::metrics::GroupedRanking::new();
    for group in &prep.test_groups {
        let (mut ps, mut gs) = (Vec::new(), Vec::new());
        for pair in group {
            let pred = model.predict(&pair.g1, &pair.g2).ged;
            let gt = pair.ged.expect("supervised");
            outcomes.push(PairOutcome { pred, gt });
            ps.push(pred);
            gs.push(gt);
        }
        ranking.push_group(ps, gs);
    }
    format!(
        "{:<22} {:>7.3} {:>8.1}% {:>7.3} {:>7.3} {:>7.3} {:>7.3}\n",
        name,
        metrics::mae(&outcomes),
        metrics::accuracy(&outcomes) * 100.0,
        ranking.mean_spearman(),
        ranking.mean_kendall(),
        ranking.mean_precision_at(5),
        ranking.mean_precision_at(10),
    )
}

/// Table 6: ablation of the GEDIOT components (w/ GCN, w/o MLP, w/o Cost,
/// w/o learnable ε) on AIDS and Linux.
#[must_use]
pub fn run_table6(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    for kind in [DatasetKind::Aids, DatasetKind::Linux] {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, false, &mut rng);
        let _ = writeln!(out, "== Table 6 ({}): GEDIOT ablation ==", kind.name());
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7}",
            "Variant", "MAE", "Accuracy", "rho", "tau", "p@5", "p@10"
        );
        out.push_str(&eval_gediot_variant(&prep, cfg, "GEDIOT", |c| c, &mut rng));
        out.push_str(&eval_gediot_variant(
            &prep,
            cfg,
            "GEDIOT (w/ GCN)",
            |mut c| {
                c.conv = ConvKind::Gcn;
                c
            },
            &mut rng,
        ));
        out.push_str(&eval_gediot_variant(
            &prep,
            cfg,
            "GEDIOT (w/o MLP)",
            |mut c| {
                c.use_mlp = false;
                c
            },
            &mut rng,
        ));
        out.push_str(&eval_gediot_variant(
            &prep,
            cfg,
            "GEDIOT (w/o Cost)",
            |mut c| {
                c.use_cost_layer = false;
                c
            },
            &mut rng,
        ));
        out.push_str(&eval_gediot_variant(
            &prep,
            cfg,
            "GEDIOT (w/o learn eps)",
            |mut c| {
                c.learnable_epsilon = false;
                c
            },
            &mut rng,
        ));
        out.push('\n');
    }
    out
}

/// Builds the Figure 8 split of IMDB: training pairs from small graphs
/// only, test groups on large graphs only.
fn imdb_small_train_large_test(cfg: &ExpConfig, rng: &mut SmallRng) -> PreparedDataset {
    let mut prep = prepare(DatasetKind::Imdb, cfg, false, rng);
    // Restrict training pairs to small-graph pairs.
    prep.train_pairs.retain(|p| p.g2.num_nodes() <= 10);
    // Rebuild test groups on large graphs only (synthetic partners).
    let mut groups = Vec::new();
    for &q in &prep.split.test {
        let g = &prep.dataset[q];
        if g.num_nodes() > 10 {
            let mut group = Vec::new();
            for _ in 0..cfg.partners {
                let delta = 1 + rng.gen_range(0..10);
                let p = generate::perturb_with_edits(g, delta, 1, rng);
                group.push(GedPair::supervised(
                    g.clone(),
                    p.graph,
                    p.applied as f64,
                    p.mapping,
                ));
            }
            groups.push(group);
        }
        if groups.len() >= cfg.max_queries {
            break;
        }
    }
    prep.test_groups = groups;
    prep
}

/// Figure 8: generalization to large unseen IMDB graphs after training on
/// small graphs only ("-small" models) vs. the full training set, plus the
/// training-free baselines.
#[must_use]
pub fn run_fig8(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    // Full training set models.
    let prep_full = prepare(DatasetKind::Imdb, cfg, false, &mut rng);
    let models_full = train_all(&prep_full, cfg, &mut rng);
    let engine_full = models_full.engine(cfg.kbest_k);
    // Small-graph training, large-graph test.
    let prep_small = imdb_small_train_large_test(cfg, &mut rng);
    let models_small = train_all(&prep_small, cfg, &mut rng);
    let engine_small = models_small.engine(cfg.kbest_k);

    let eval_on = |engine: &GedEngine, method: MethodKind, name: &str| -> String {
        let mut outcomes = Vec::new();
        for group in &prep_small.test_groups {
            for pair in group {
                let pred = predict_as(engine, method, pair);
                outcomes.push(PairOutcome {
                    pred,
                    gt: pair.ged.expect("supervised"),
                });
            }
        }
        format!(
            "{:<14} {:>8.3} {:>8.1}%\n",
            name,
            metrics::mae(&outcomes),
            metrics::accuracy(&outcomes) * 100.0
        )
    };

    let mut out = String::from("== Figure 8 (IMDB): generalizability to large unseen graphs ==\n");
    let _ = writeln!(out, "{:<14} {:>8} {:>9}", "Method", "MAE", "Accuracy");
    out.push_str(&eval_on(&engine_full, MethodKind::GedGnn, "GEDGNN"));
    out.push_str(&eval_on(&engine_full, MethodKind::Gediot, "GEDIOT"));
    out.push_str(&eval_on(&engine_full, MethodKind::Gedhot, "GEDHOT"));
    out.push_str(&eval_on(&engine_small, MethodKind::GedGnn, "GEDGNN-small"));
    out.push_str(&eval_on(&engine_small, MethodKind::Gediot, "GEDIOT-small"));
    out.push_str(&eval_on(&engine_small, MethodKind::Gedhot, "GEDHOT-small"));
    out.push_str(&eval_on(&engine_small, MethodKind::Classic, "Classic"));
    out.push_str(&eval_on(&engine_small, MethodKind::Gedgw, "GEDGW"));
    out
}

/// Figure 12: large unseen IMDB graphs with increasing GED
/// (`Δ = ⌈r·n⌉`, `r ∈ {0.1,…,0.5}`).
#[must_use]
pub fn run_fig12(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    let prep_small = imdb_small_train_large_test(cfg, &mut rng);
    let models = train_all(&prep_small, cfg, &mut rng);
    let engine = models.engine(cfg.kbest_k);

    // Large test graphs to perturb.
    let large: Vec<GraphId> = prep_small
        .split
        .test
        .iter()
        .copied()
        .filter(|&i| prep_small.dataset[i].num_nodes() > 10)
        .take(cfg.max_queries)
        .collect();

    let mut out = String::from("== Figure 12 (IMDB): increasing GED on large unseen graphs ==\n");
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "r", "GEDGNN-s", "GEDIOT-s", "GEDHOT-s", "GEDGW", "Classic"
    );
    for r in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut pairs = Vec::new();
        for &i in &large {
            let g = &prep_small.dataset[i];
            let delta = ((g.num_nodes() as f64 * r).ceil() as usize).max(1);
            let p = generate::perturb_with_edits(g, delta, 1, &mut rng);
            pairs.push(GedPair::supervised(
                g.clone(),
                p.graph,
                p.applied as f64,
                p.mapping,
            ));
        }
        let mae_of = |method: MethodKind| -> f64 {
            let outcomes: Vec<PairOutcome> = pairs
                .iter()
                .map(|pair| PairOutcome {
                    pred: predict_as(&engine, method, pair),
                    gt: pair.ged.expect("supervised"),
                })
                .collect();
            metrics::mae(&outcomes)
        };
        let _ = writeln!(
            out,
            "{:<6.1} {:>14.3} {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            r,
            mae_of(MethodKind::GedGnn),
            mae_of(MethodKind::Gediot),
            mae_of(MethodKind::Gedhot),
            mae_of(MethodKind::Gedgw),
            mae_of(MethodKind::Classic),
        );
    }
    out.push_str("(cells are GED MAE; lower is better)\n");
    out
}

/// Figure 13: how often GEDHOT adopts GEDIOT vs. GEDGW, for both GED
/// values and edit paths.
#[must_use]
pub fn run_fig13(cfg: &ExpConfig) -> String {
    let mut out = String::from("== Figure 13: GEDHOT adoption rate (GEDIOT vs GEDGW) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "Dataset", "value:IOT", "value:GW", "path:IOT", "path:GW"
    );
    for kind in DATASETS {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, false, &mut rng);
        let models = train_all(&prep, cfg, &mut rng);
        let ens = Gedhot::new(&models.gediot);
        let (mut v_iot, mut v_gw, mut p_iot, mut p_gw) = (0usize, 0usize, 0usize, 0usize);
        for group in &prep.test_groups {
            for pair in group {
                let pred = ens.predict(&pair.g1, &pair.g2);
                match pred.value_source {
                    Source::Gediot => v_iot += 1,
                    Source::Gedgw => v_gw += 1,
                }
                let (_, _, src) = ens.predict_with_path(&pair.g1, &pair.g2, cfg.kbest_k);
                match src {
                    Source::Gediot => p_iot += 1,
                    Source::Gedgw => p_gw += 1,
                }
            }
        }
        let tot = (v_iot + v_gw).max(1) as f64;
        let _ = writeln!(
            out,
            "{:<8} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            kind.name(),
            v_iot as f64 / tot * 100.0,
            v_gw as f64 / tot * 100.0,
            p_iot as f64 / tot * 100.0,
            p_gw as f64 / tot * 100.0
        );
    }
    out
}

/// Figure 14: fraction of sampled graph triples whose predictions satisfy
/// the GED triangle inequality.
#[must_use]
pub fn run_fig14(cfg: &ExpConfig) -> String {
    let mut out = String::from("== Figure 14: triangle-inequality preservation ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Dataset", "SimGNN", "GPN", "TaGSim", "GEDGNN", "GEDIOT", "GEDGW", "GEDHOT"
    );
    let methods = [
        MethodKind::SimGnn,
        MethodKind::Gpn,
        MethodKind::TaGSim,
        MethodKind::GedGnn,
        MethodKind::Gediot,
        MethodKind::Gedgw,
        MethodKind::Gedhot,
    ];
    for kind in [DatasetKind::Aids, DatasetKind::Linux] {
        let mut rng = cfg.rng();
        let prep = prepare(kind, cfg, false, &mut rng);
        let models = train_all(&prep, cfg, &mut rng);
        let engine = models.engine(cfg.kbest_k);
        let idx = &prep.split.test;
        let triples = 30.min(idx.len().saturating_sub(2) * 3);
        let mut rates = Vec::new();
        for &method in &methods {
            let mut ok = 0usize;
            let mut total = 0usize;
            for t in 0..triples {
                let a = &prep.dataset[idx[t % idx.len()]];
                let b = &prep.dataset[idx[(t + 1) % idx.len()]];
                let c = &prep.dataset[idx[(t + 2) % idx.len()]];
                let value = |x: &ged_graph::Graph, y: &ged_graph::Graph| -> f64 {
                    predict_as(&engine, method, &GedPair::new(x.clone(), y.clone()))
                };
                let ab = value(a, b);
                let bc = value(b, c);
                let ac = value(a, c);
                total += 1;
                if ac <= ab + bc + 1e-9 {
                    ok += 1;
                }
            }
            rates.push(ok as f64 / total.max(1) as f64 * 100.0);
        }
        let _ = writeln!(
            out,
            "{:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            kind.name(),
            rates[0],
            rates[1],
            rates[2],
            rates[3],
            rates[4],
            rates[5],
            rates[6]
        );
    }
    out
}

/// Figure 15: running time against exact solvers on larger labeled graphs
/// (`n ∈ {20, 30, 40}`, GED ∈ {5, 7, 9, 11}).
#[must_use]
pub fn run_fig15(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    let sizes = [20usize, 30, 40];
    let deltas = [5usize, 7, 9, 11];
    let weights: Vec<f64> = (0..29).map(|i| 1.0 / (1.0 + i as f64).powf(1.4)).collect();
    let pairs_per_cell = 4usize;

    // Train GEDIOT briefly on perturbation pairs of the same distribution.
    let mut train_pairs = Vec::new();
    for _ in 0..60 {
        let n = sizes[rng.gen_range(0..sizes.len())];
        let g = generate::random_connected(n, n / 4, &weights, &mut rng);
        let delta = 1 + rng.gen_range(0..10);
        let p = generate::perturb_with_edits(&g, delta, 29, &mut rng);
        train_pairs.push(GedPair::supervised(g, p.graph, p.applied as f64, p.mapping));
    }
    let mut gediot = Gediot::new(GediotConfig::small(29), &mut rng);
    gediot.train(&train_pairs, cfg.epochs.min(8), &mut rng);

    let mut out = String::from(
        "== Figure 15: running time vs exact solvers (sec/100p; '>' = budget exceeded) ==\n",
    );
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>14} {:>14} {:>14}",
        "n", "GED", "A*-exact", "A*-Beam(100)", "GEDIOT"
    );
    for &n in &sizes {
        for &delta in &deltas {
            let pairs: Vec<GedPair> = (0..pairs_per_cell)
                .map(|_| {
                    let g = generate::random_connected(n, n / 4, &weights, &mut rng);
                    let p = generate::perturb_with_edits(&g, delta, 29, &mut rng);
                    GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
                })
                .collect();

            // Exact A* with a budget: measure time; mark timeouts.
            let budget = 60_000usize;
            let start = Instant::now();
            let mut timeouts = 0usize;
            for p in &pairs {
                if astar_exact_with_limit(&p.g1, &p.g2, budget).is_none() {
                    timeouts += 1;
                }
            }
            let t_exact = start.elapsed().as_secs_f64() / pairs.len() as f64 * 100.0;

            let start = Instant::now();
            for p in &pairs {
                let _ = astar_beam(&p.g1, &p.g2, 100);
            }
            let t_beam = start.elapsed().as_secs_f64() / pairs.len() as f64 * 100.0;

            let start = Instant::now();
            for p in &pairs {
                let _ = gediot.predict(&p.g1, &p.g2);
            }
            let t_iot = start.elapsed().as_secs_f64() / pairs.len() as f64 * 100.0;

            let exact_label = if timeouts > 0 {
                format!(">{t_exact:.2} ({timeouts}TO)")
            } else {
                format!("{t_exact:.2}")
            };
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>14} {:>14.2} {:>14.2}",
                n, delta, exact_label, t_beam, t_iot
            );
        }
    }
    out
}

/// Figure 16: large synthetic power-law graphs — GED relative error and
/// running time.
#[must_use]
pub fn run_fig16(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    let sizes: &[usize] = if cfg.dataset_size >= 100 {
        &[50, 100, 200, 400]
    } else {
        &[50, 100, 200]
    };
    let pairs_per_size = 4usize;

    // Train GEDIOT and GEDGNN on power-law perturbation pairs (small size).
    let mut train_pairs = Vec::new();
    for _ in 0..40 {
        let g = generate::barabasi_albert(50, 2, &mut rng);
        let delta = 1 + rng.gen_range(0..10);
        let p = generate::perturb_with_edits(&g, delta, 1, &mut rng);
        train_pairs.push(GedPair::supervised(g, p.graph, p.applied as f64, p.mapping));
    }
    let mut gediot = Gediot::new(GediotConfig::small(1), &mut rng);
    gediot.train(&train_pairs, cfg.epochs.min(5), &mut rng);
    let mut gedgnn = Gedgnn::new(GedgnnConfig::small(1), &mut rng);
    gedgnn.train(&train_pairs, cfg.epochs.min(5), &mut rng);

    let mut out = String::from("== Figure 16: power-law graphs (relative error | sec/100p) ==\n");
    let _ = writeln!(
        out,
        "{:<6} {:>18} {:>18} {:>18} {:>18}",
        "n", "GEDGNN", "GEDIOT", "GEDGW", "GEDHOT"
    );
    for &n in sizes {
        let pairs: Vec<GedPair> = (0..pairs_per_size)
            .map(|_| {
                let g = generate::barabasi_albert(n, 2, &mut rng);
                let delta = 2 + rng.gen_range(0..8);
                let p = generate::perturb_with_edits(&g, delta, 1, &mut rng);
                GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
            })
            .collect();

        // Paths (via the k-best framework) are the paper's protocol here.
        let k = 4usize;
        let run = |f: &dyn Fn(&GedPair) -> f64| -> (f64, f64) {
            let start = Instant::now();
            let mut rel = 0.0;
            for p in &pairs {
                let pred = f(p);
                let gt = p.ged.expect("supervised");
                rel += (pred - gt).abs() / gt.max(1.0);
            }
            let t = start.elapsed().as_secs_f64() / pairs.len() as f64 * 100.0;
            (rel / pairs.len() as f64, t)
        };
        let (e_gnn, t_gnn) = run(&|p| {
            let (_, path) = gedgnn.predict_with_path(&p.g1, &p.g2, k);
            path.ged as f64
        });
        let (e_iot, t_iot) = run(&|p| {
            let (_, path) = gediot.predict_with_path(&p.g1, &p.g2, k);
            path.ged as f64
        });
        let (e_gw, t_gw) = run(&|p| {
            let gw = Gedgw::new(&p.g1, &p.g2).solve();
            kbest_edit_path(&p.g1, &p.g2, &gw.coupling, k).ged as f64
        });
        let (e_hot, t_hot) = run(&|p| {
            let iot = gediot.predict(&p.g1, &p.g2);
            let gw = Gedgw::new(&p.g1, &p.g2).solve();
            let a = kbest_edit_path(&p.g1, &p.g2, &iot.coupling, k).ged;
            let b = kbest_edit_path(&p.g1, &p.g2, &gw.coupling, k).ged;
            a.min(b) as f64
        });
        let _ = writeln!(
            out,
            "{:<6} {:>9.2}|{:>8.1} {:>9.2}|{:>8.1} {:>9.2}|{:>8.1} {:>9.2}|{:>8.1}",
            n, e_gnn, t_gnn, e_iot, t_iot, e_gw, t_gw, e_hot, t_hot
        );
    }
    out
}

/// Shared driver for the Figure 17-20 GEDIOT hyperparameter sweeps.
fn sweep_gediot(
    cfg: &ExpConfig,
    label: &str,
    values: &[f64],
    configure: impl Fn(GediotConfig, f64) -> GediotConfig,
    train_fraction: impl Fn(f64) -> f64,
) -> String {
    let mut rng = cfg.rng();
    let prep = prepare(DatasetKind::Aids, cfg, false, &mut rng);
    let mut out = format!("== Sweep over {label} (AIDS) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>9} {:>12} {:>12}",
        label, "MAE", "Accuracy", "train(s)", "infer(s/100p)"
    );
    for &v in values {
        let base = GediotConfig::small(prep.kind.num_labels() as usize);
        let mut model = Gediot::new(configure(base, v), &mut rng);
        let frac = train_fraction(v).clamp(0.05, 1.0);
        let n_train = ((prep.train_pairs.len() as f64) * frac).ceil() as usize;
        let subset = &prep.train_pairs[..n_train.min(prep.train_pairs.len())];
        let t0 = Instant::now();
        model.train(subset, cfg.epochs, &mut rng);
        let train_time = t0.elapsed().as_secs_f64();

        let mut outcomes = Vec::new();
        let t1 = Instant::now();
        let mut count = 0usize;
        for group in &prep.test_groups {
            for pair in group {
                let pred = model.predict(&pair.g1, &pair.g2).ged;
                outcomes.push(PairOutcome {
                    pred,
                    gt: pair.ged.expect("supervised"),
                });
                count += 1;
            }
        }
        let infer = t1.elapsed().as_secs_f64() / count.max(1) as f64 * 100.0;
        let _ = writeln!(
            out,
            "{:<8.3} {:>7.3} {:>8.1}% {:>12.2} {:>12.3}",
            v,
            metrics::mae(&outcomes),
            metrics::accuracy(&outcomes) * 100.0,
            train_time,
            infer
        );
    }
    out
}

/// Figure 17: varying the initial Sinkhorn regularization ε0.
#[must_use]
pub fn run_fig17(cfg: &ExpConfig) -> String {
    sweep_gediot(
        cfg,
        "eps0",
        &[0.005, 0.01, 0.05, 0.1, 0.5, 1.0],
        |mut c, v| {
            c.epsilon0 = v;
            c
        },
        |_| 1.0,
    )
}

/// Figure 18: varying the number of unrolled Sinkhorn iterations.
#[must_use]
pub fn run_fig18(cfg: &ExpConfig) -> String {
    sweep_gediot(
        cfg,
        "iters",
        &[1.0, 5.0, 10.0, 15.0, 20.0],
        |mut c, v| {
            c.sinkhorn_iters = v as usize;
            c
        },
        |_| 1.0,
    )
}

/// Figure 19: varying the loss balance λ.
#[must_use]
pub fn run_fig19(cfg: &ExpConfig) -> String {
    sweep_gediot(
        cfg,
        "lambda",
        &[0.5, 0.6, 0.7, 0.8, 0.9],
        |mut c, v| {
            c.lambda = v;
            c
        },
        |_| 1.0,
    )
}

/// Figure 20: varying the training-set size (fraction of the pair pool).
#[must_use]
pub fn run_fig20(cfg: &ExpConfig) -> String {
    sweep_gediot(
        cfg,
        "frac",
        &[0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        |c, _| c,
        |v| v,
    )
}

/// Figure 21: varying `k` in k-best matching for GEP generation.
#[must_use]
pub fn run_fig21(cfg: &ExpConfig) -> String {
    let mut rng = cfg.rng();
    let prep = prepare(DatasetKind::Aids, cfg, false, &mut rng);
    let models = train_all(&prep, cfg, &mut rng);
    let ens = Gedhot::new(&models.gediot);

    let mut out = String::from("== Figure 21 (AIDS): varying k in k-best GEP generation ==\n");
    let _ = writeln!(
        out,
        "{:<5} {:>22} {:>22} {:>22}",
        "k", "GEDIOT (MAE|acc|s/100p)", "GEDGW", "GEDHOT"
    );
    for k in [1usize, 5, 10, 25, 50, 100] {
        let run = |f: &dyn Fn(&GedPair) -> usize| -> (f64, f64, f64) {
            let mut outcomes = Vec::new();
            let start = Instant::now();
            let mut count = 0usize;
            for group in &prep.test_groups {
                for pair in group {
                    let pred = f(pair) as f64;
                    outcomes.push(PairOutcome {
                        pred,
                        gt: pair.ged.expect("supervised"),
                    });
                    count += 1;
                }
            }
            let t = start.elapsed().as_secs_f64() / count.max(1) as f64 * 100.0;
            (metrics::mae(&outcomes), metrics::accuracy(&outcomes), t)
        };
        let iot = run(&|p| models.gediot.predict_with_path(&p.g1, &p.g2, k).1.ged);
        let gw = run(&|p| Gedgw::new(&p.g1, &p.g2).solve_with_path(k).1.ged);
        let hot = run(&|p| ens.predict_with_path(&p.g1, &p.g2, k).1.ged);
        let _ = writeln!(
            out,
            "{:<5} {:>8.3}|{:>5.1}%|{:>6.2} {:>8.3}|{:>5.1}%|{:>6.2} {:>8.3}|{:>5.1}%|{:>6.2}",
            k,
            iot.0,
            iot.1 * 100.0,
            iot.2,
            gw.0,
            gw.1 * 100.0,
            gw.2,
            hot.0,
            hot.1 * 100.0,
            hot.2
        );
    }
    out
}

/// Classic baseline included for completeness in Figure 8/12 comparisons.
#[must_use]
pub fn classic_value(pair: &GedPair) -> f64 {
    classic_ged(&pair.g1, &pair.g2).ged as f64
}

/// Exact range search at store scale: the three-tier
/// filter–prune–verify plan (`GedQuery::RangeExact`) over an AIDS-like
/// store, per-τ tier statistics and wall clock, including the τ = ∞
/// degradation to full exact scans under a node-expansion budget.
#[must_use]
pub fn run_exact_search(cfg: &ExpConfig) -> String {
    use ged_core::solver::{GedgwSolver, SolverRegistry};

    let mut rng = cfg.rng();
    let store = GraphDataset::aids_like(cfg.dataset_size, &mut rng).into_store();
    let query = store.graphs().next().expect("non-empty store").clone();

    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    let engine = GedEngine::builder(registry)
        .verify_budget(50_000)
        .build()
        .expect("GEDGW is registered");

    let mut out = String::from("== Exact range search: filter / prune / verify tiers ==\n");
    let _ = writeln!(
        out,
        "store: {} AIDS-like graphs; query: member, {} nodes / {} edges; budget: 50k expansions",
        store.len(),
        query.num_nodes(),
        query.num_edges()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>9} {:>15} {:>9} {:>7} {:>9}",
        "tau", "matches", "filtered", "accepted-early", "verified", "budget", "ms"
    );
    for tau in [2.0, 4.0, 6.0, 8.0, f64::INFINITY] {
        let start = Instant::now();
        let result = engine
            .range_exact(&query, &store, tau)
            .expect("valid query");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let label = if tau.is_infinite() {
            "inf".to_string()
        } else {
            format!("{tau}")
        };
        let _ = writeln!(
            out,
            "{label:>6} {:>8} {:>9} {:>15} {:>9} {:>7} {:>9.2}",
            result.matches.len(),
            result.stats.filtered,
            result.stats.accepted_early,
            result.stats.verified,
            result.stats.budget_exceeded,
            ms
        );
    }
    out
}

/// Pivot-table pruning at store scale: the exact range plan with
/// `p ∈ {0, 2, 4, 8}` pivots over one AIDS-like store — per-p tier
/// statistics, the isolated table-build cost, and the per-query serving
/// wall clock (a serving store amortizes the former over the latter).
#[must_use]
pub fn run_pivot_search(cfg: &ExpConfig) -> String {
    use ged_core::solver::{GedgwSolver, SolverRegistry};

    let mut rng = cfg.rng();
    let store = GraphDataset::aids_like(cfg.dataset_size, &mut rng).into_store();
    let query = store.graphs().next().expect("non-empty store").clone();
    let tau = 4.0;

    let mut out = String::from("== Pivot index: triangle-inequality pruning ==\n");
    let _ = writeln!(
        out,
        "store: {} AIDS-like graphs; query: member; tau = {tau}",
        store.len()
    );
    let _ = writeln!(
        out,
        "{:>3} {:>8} {:>8} {:>9} {:>7} {:>15} {:>9} {:>10} {:>9}",
        "p",
        "matches",
        "pr-piv",
        "filtered",
        "ac-piv",
        "accepted-early",
        "verified",
        "build-ms",
        "query-ms"
    );
    for pivots in [0usize, 2, 4, 8] {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        let engine = GedEngine::builder(registry)
            .pivots(pivots)
            .build()
            .expect("GEDGW is registered");
        // `pivot_ids` forces the table build in isolation (a no-op for
        // p = 0), so build-ms is pure index construction and query-ms is
        // pure serving.
        let start = Instant::now();
        let _ = engine.pivot_ids(&store);
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let result = engine.range_exact(&query, &store, tau).expect("valid");
        let query_ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = writeln!(
            out,
            "{pivots:>3} {:>8} {:>8} {:>9} {:>7} {:>15} {:>9} {:>10.2} {:>9.2}",
            result.matches.len(),
            result.stats.pruned_pivot,
            result.stats.filtered,
            result.stats.accepted_pivot,
            result.stats.accepted_early,
            result.stats.verified,
            build_ms,
            query_ms
        );
    }
    out
}

/// One experiment section: name + runner.
type Section = (&'static str, fn(&ExpConfig) -> String);

/// Runs every experiment and concatenates the reports.
#[must_use]
pub fn run_all(cfg: &ExpConfig) -> String {
    let sections: Vec<Section> = vec![
        ("table2", run_table2),
        ("table3", run_table3),
        ("table4", run_table4),
        ("table5", run_table5),
        ("table6", run_table6),
        ("fig8", run_fig8),
        ("fig12", run_fig12),
        ("fig13", run_fig13),
        ("fig14", run_fig14),
        ("fig15", run_fig15),
        ("fig16", run_fig16),
        ("fig17", run_fig17),
        ("fig18", run_fig18),
        ("fig19", run_fig19),
        ("fig20", run_fig20),
        ("fig21", run_fig21),
        ("exact_search", run_exact_search),
        ("pivot_search", run_pivot_search),
    ];
    let mut out = String::new();
    for (name, f) in sections {
        let start = Instant::now();
        let section = f(cfg);
        let _ = writeln!(
            out,
            "{section}[{name} finished in {:.1}s]\n",
            start.elapsed().as_secs_f64()
        );
        eprintln!("[{name}] done in {:.1}s", start.elapsed().as_secs_f64());
    }
    out
}
