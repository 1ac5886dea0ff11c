//! Committed performance baseline for the hot kernels and search plans.
//!
//! Runs deterministic quick-mode versions of the `kernels`, `fig_search`,
//! `fig_exact_search`, and `fig_pivot` workloads and writes
//! `BENCH_kernels.json` / `BENCH_search.json` (median ns per op, workload
//! params, git rev) to the current directory — the repo root when invoked
//! as `cargo run -p ged-bench --bin perf_baseline --release`.
//!
//! The JSON files are committed so every perf PR has an observable
//! before/after trajectory; regenerate them after any change to the
//! kernels or plans. `--smoke` runs tiny sizes and writes under `target/`
//! (CI uses it to keep the binary and schema green without touching the
//! committed numbers).

use ged_baselines::astar::astar_beam;
use ged_core::engine::GedEngine;
use ged_core::gedgw::Gedgw;
use ged_core::gediot::{Gediot, GediotConfig};
use ged_core::kbest::kbest_edit_path;
use ged_core::lower_bound::branch_lower_bound_in;
use ged_core::method::MethodKind;
use ged_core::pairs::GedPair;
use ged_core::solver::{BatchRunner, GedgwSolver, SolverRegistry};
use ged_core::GedWorkspace;
use ged_graph::{generate, Graph, GraphDataset, ShardedStore};
use ged_linalg::{lsap_min, lsap_min_into, lsap_min_munkres, LsapWorkspace, Matrix};
use ged_ot::gw::gw_tensor_apply;
use ged_ot::sinkhorn::{sinkhorn, sinkhorn_dummy_row};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples per workload; the reported number is their median.
const SAMPLES: usize = 9;

struct Measurement {
    name: &'static str,
    params: String,
    median_ns_per_op: u128,
    ops_per_sample: usize,
}

/// Times `iters` consecutive runs of `f`, `SAMPLES` times (plus one
/// discarded warmup), and returns the median ns-per-op measurement.
fn measure<F: FnMut()>(name: &'static str, params: String, iters: usize, mut f: F) -> Measurement {
    let mut per_op: Vec<u128> = Vec::with_capacity(SAMPLES);
    for sample in 0..=SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() / iters as u128;
        if sample > 0 {
            // Sample 0 is warmup.
            per_op.push(ns);
        }
    }
    per_op.sort_unstable();
    let median = per_op[per_op.len() / 2];
    eprintln!("  {name:<28} {median:>12} ns/op   [{params}]");
    Measurement {
        name,
        params,
        median_ns_per_op: median,
        ops_per_sample: iters,
    }
}

fn rand_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(n, m, |_, _| rng.gen_range(0.0..2.0))
}

fn rand_adjacency(n: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.3) {
                a[(i, j)] = 1.0;
                a[(j, i)] = 1.0;
            }
        }
    }
    a
}

/// A skewed 29-label alphabet, like the AIDS-like dataset's.
fn aids_label_weights() -> Vec<f64> {
    (0..29).map(|i| 1.0 / (1.0 + i as f64).powf(1.4)).collect()
}

fn gedgw_engine(pivots: usize) -> GedEngine {
    let mut registry = SolverRegistry::new();
    registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
    GedEngine::builder(registry)
        .threads(1) // isolate plan cost from parallel speedup
        .pivots(pivots)
        .build()
        .expect("GEDGW is registered")
}

fn kernels_suite(smoke: bool) -> Vec<Measurement> {
    eprintln!("kernels:");
    let mut out = Vec::new();

    // Mirrors the `kernels` criterion bench: Sinkhorn, LSAP, L ⊗ π.
    let n = if smoke { 8 } else { 30 };
    let cost = rand_matrix(n, n, 1);
    let mu = vec![1.0; n];
    let nu = vec![1.0; n];
    out.push(measure(
        "sinkhorn_balanced",
        format!("n={n},eps=0.05,iters=5"),
        50,
        || {
            black_box(sinkhorn(&cost, &mu, &nu, 0.05, 5));
        },
    ));

    let rect = rand_matrix(n, n + n / 2, 2);
    out.push(measure(
        "sinkhorn_dummy_row",
        format!("n={n},m={},eps=0.05,iters=5", n + n / 2),
        50,
        || {
            black_box(sinkhorn_dummy_row(&rect, 0.05, 5));
        },
    ));

    let n = if smoke { 10 } else { 50 };
    let lsap_cost = rand_matrix(n, n, 3);
    out.push(measure(
        "lsap_jonker_volgenant",
        format!("n={n}"),
        50,
        || {
            black_box(lsap_min(&lsap_cost));
        },
    ));
    out.push(measure("lsap_munkres", format!("n={n}"), 20, || {
        black_box(lsap_min_munkres(&lsap_cost));
    }));

    // GEDGW's regime for the same solver: its Frank–Wolfe oracle on the
    // first gradient M + L⊗π of an AIDS-like 7-vs-9-node pair at the
    // barycenter start (0/1 label costs plus multiples of 1/9, so full of
    // ties), reusing one workspace like a solve does.
    let mut rng = SmallRng::seed_from_u64(19);
    let g1 = generate::random_connected(7, 1, &aids_label_weights(), &mut rng);
    let g2 = generate::random_connected(9, 2, &aids_label_weights(), &mut rng);
    let (n1, n) = (g1.num_nodes(), g2.num_nodes());
    let a1 = Matrix::from_vec(n, n, g1.adjacency_matrix_padded(n));
    let a2 = Matrix::from_vec(n, n, g2.adjacency_matrix());
    let barycenter = Matrix::from_fn(n, n, |_, _| 1.0 / n as f64);
    let mut grad = gw_tensor_apply(&a1, &a2, &barycenter);
    grad.add_scaled_assign(&Gedgw::new(&g1, &g2).node_cost_matrix(), 1.0);
    let mut ws = LsapWorkspace::new();
    out.push(measure(
        "lsap_cg_gradient",
        format!("n={n},n1={n1},first_fw_step,workspace"),
        2_000,
        || {
            black_box(lsap_min_into(&grad, &mut ws));
        },
    ));

    let n = if smoke { 10 } else { 60 };
    let a1 = rand_adjacency(n, 4);
    let a2 = rand_adjacency(n, 5);
    let pi = rand_matrix(n, n, 6).scale(1.0 / n as f64);
    out.push(measure("gw_tensor_fast", format!("n={n}"), 50, || {
        black_box(gw_tensor_apply(&a1, &a2, &pi));
    }));

    // The batched workload the workspace layer targets: one GEDGW solve
    // per pair through the BatchRunner seam.
    let pairs_n = if smoke { 8 } else { 64 };
    let mut rng = SmallRng::seed_from_u64(6_000);
    let store = GraphDataset::aids_like(2 * pairs_n, &mut rng).into_store();
    let graphs: Vec<_> = store.graphs().cloned().collect();
    let pairs: Vec<GedPair> = graphs
        .chunks_exact(2)
        .map(|c| GedPair::new(c[0].clone(), c[1].clone()))
        .collect();
    let runner = BatchRunner::new(1);
    out.push(measure(
        "gedgw_batch_predict",
        format!("pairs={pairs_n},threads=1,dataset=aids_like"),
        1,
        || {
            black_box(runner.predict_batch(&GedgwSolver, &pairs));
        },
    ));

    // The branch tier's bound on the same pairs, per pair, through one
    // workspace as the plans' verify step runs it.
    let mut ws = GedWorkspace::new();
    let mut next = 0;
    out.push(measure(
        "branch_lower_bound",
        format!("pairs={pairs_n},dataset=aids_like,workspace"),
        pairs_n,
        || {
            let p = &pairs[next % pairs.len()];
            next += 1;
            black_box(branch_lower_bound_in(&p.g1, &p.g2, &mut ws));
        },
    ));

    // GEDIOT: one training epoch of the small config over supervised
    // AIDS-like pairs (every pair's tape on one pool), then the trained
    // network's forward pass per pair through one workspace, as
    // `predict_batch` runs it.
    let train_n = if smoke { 8 } else { 80 };
    let mut rng = SmallRng::seed_from_u64(12_000);
    let train_pairs: Vec<GedPair> = (0..train_n)
        .map(|_| {
            let n = rng.gen_range(5..=10);
            let g = generate::random_connected(n, 2, &aids_label_weights(), &mut rng);
            let p = generate::perturb_with_edits(&g, rng.gen_range(1..=4), 29, &mut rng);
            GedPair::supervised(g, p.graph, p.applied as f64, p.mapping)
        })
        .collect();
    let mut model = Gediot::new(GediotConfig::small(29), &mut rng);
    out.push(measure(
        "gediot_train_epoch",
        format!("pairs={train_n},config=small"),
        1,
        || {
            black_box(model.train_epoch(&train_pairs, &mut rng));
        },
    ));
    let mut ws = GedWorkspace::new();
    let mut next = 0;
    out.push(measure(
        "gediot_predict",
        format!("pairs={pairs_n},config=small,dataset=aids_like,workspace"),
        pairs_n,
        || {
            let p = &pairs[next % pairs.len()];
            next += 1;
            black_box(model.predict_in(&p.g1, &p.g2, &mut ws).ged);
        },
    ));

    // The edit-path generators the workspace layer targets: k-best
    // matching over precomputed GEDGW couplings, and the A*-Beam
    // baseline (mirrors `table4_paths` / `fig15_exact`).
    let path_pairs = if smoke { 2 } else { 8 };
    let kbest_k = if smoke { 5 } else { 50 };
    let beam = if smoke { 20 } else { 100 };
    let mut rng = SmallRng::seed_from_u64(11);
    let weights = aids_label_weights();
    let data: Vec<(Graph, Graph)> = (0..path_pairs)
        .map(|_| {
            (
                generate::random_connected(8, 2, &weights, &mut rng),
                generate::random_connected(10, 3, &weights, &mut rng),
            )
        })
        .collect();
    let couplings: Vec<_> = data
        .iter()
        .map(|(g1, g2)| Gedgw::new(g1, g2).solve().coupling)
        .collect();
    out.push(measure(
        "kbest_edit_path",
        format!("pairs={path_pairs},k={kbest_k},n=8/10"),
        5,
        || {
            for ((g1, g2), pi) in data.iter().zip(&couplings) {
                black_box(kbest_edit_path(g1, g2, pi, kbest_k).ged);
            }
        },
    ));
    out.push(measure(
        "astar_beam",
        format!("pairs={path_pairs},beam={beam},n=8/10"),
        5,
        || {
            for (g1, g2) in &data {
                black_box(astar_beam(g1, g2, beam).ged);
            }
        },
    ));

    out
}

fn search_suite(smoke: bool) -> Vec<Measurement> {
    eprintln!("search:");
    let mut out = Vec::new();
    let size = if smoke { 12 } else { 100 };
    let tau = 4usize;

    // fig_search: top-k and approximate range filter–verify (same seeds
    // as the criterion bench).
    {
        let mut rng = SmallRng::seed_from_u64(7_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let query = store.graphs().next().expect("non-empty").clone();
        let engine = gedgw_engine(0);
        out.push(measure(
            "fig_search_topk",
            format!("store={size},k=5,threads=1"),
            1,
            || {
                black_box(engine.top_k(&query, &store, 5).expect("valid query"));
            },
        ));
        out.push(measure(
            "fig_search_range",
            format!("store={size},tau={tau},threads=1"),
            1,
            || {
                black_box(
                    engine
                        .range(&query, &store, tau as f64)
                        .expect("valid query"),
                );
            },
        ));
    }

    // fig_exact_search: exact range search, three-tier plan.
    {
        let mut rng = SmallRng::seed_from_u64(8_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let query = store.graphs().next().expect("non-empty").clone();
        let engine = gedgw_engine(0);
        out.push(measure(
            "fig_exact_search_range",
            format!("store={size},tau={tau},threads=1"),
            1,
            || {
                black_box(
                    engine
                        .range_exact(&query, &store, tau as f64)
                        .expect("valid query"),
                );
            },
        ));
    }

    // fig_pivot: exact range search through the pivot index (warmed).
    {
        let pivots = if smoke { 2 } else { 4 };
        let mut rng = SmallRng::seed_from_u64(9_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let query = store.graphs().next().expect("non-empty").clone();
        let engine = gedgw_engine(pivots);
        // Build + sync the pivot table outside the timed region.
        let warm = engine
            .range_exact(&query, &store, tau as f64)
            .expect("valid query");
        assert_eq!(warm.stats.total(), store.len());
        out.push(measure(
            "fig_pivot_range_exact",
            format!("store={size},tau={tau},pivots={pivots},threads=1"),
            1,
            || {
                black_box(
                    engine
                        .range_exact(&query, &store, tau as f64)
                        .expect("valid query"),
                );
            },
        ));
    }

    // fig_shard: the sharded plans on size-heterogeneous data, where the
    // shard aggregate tier drops whole partitions before per-graph work.
    {
        // τ-bounded exact search on unlabeled ego-nets blows up past
        // τ≈2 (dense, label-free A* frontier), so the exact workload
        // pins tau=2 — the same regime tests/sharded_search.rs runs.
        let shard_tau = 2usize;
        let mut rng = SmallRng::seed_from_u64(11_000 + size as u64);
        let store = GraphDataset::imdb_like(size, 12, &mut rng);
        let mut sharded = ShardedStore::new(4);
        for (_, g) in store.iter() {
            sharded.insert(g.clone());
        }
        let query = store
            .graphs()
            .min_by_key(|g| g.num_nodes())
            .expect("non-empty")
            .clone();
        let engine = gedgw_engine(0);
        out.push(measure(
            "sharded_topk",
            format!("store={size},k=5,width=4,threads=1"),
            1,
            || {
                black_box(engine.top_k(&query, &sharded, 5).expect("valid query"));
            },
        ));
        out.push(measure(
            "sharded_range_exact",
            format!("store={size},tau={shard_tau},width=4,threads=1"),
            1,
            || {
                black_box(
                    engine
                        .range_exact(&query, &sharded, shard_tau as f64)
                        .expect("valid query"),
                );
            },
        ));
    }

    // fig_join: the shared-work join plans — one pivot arming and one
    // signature sort amortized over the whole candidate matrix, instead
    // of n·(n−1)/2 (resp. n·m) independent bounded searches.
    {
        let join_tau = 2usize;
        let pivots = if smoke { 2 } else { 3 };
        let probes_n = if smoke { 4 } else { 20 };
        let mut rng = SmallRng::seed_from_u64(13_000 + size as u64);
        let store = GraphDataset::aids_like(size, &mut rng).into_store();
        let probes = GraphDataset::aids_like(probes_n, &mut rng).into_store();
        let engine = gedgw_engine(pivots);
        // Arm the pivot index outside the timed region.
        let warm = engine
            .self_join(&store, join_tau as f64)
            .expect("valid join");
        assert_eq!(warm.stats.total(), store.len() * (store.len() - 1) / 2);
        out.push(measure(
            "self_join",
            format!("store={size},tau={join_tau},pivots={pivots},threads=1"),
            1,
            || {
                black_box(
                    engine
                        .self_join(&store, join_tau as f64)
                        .expect("valid join"),
                );
            },
        ));
        // Cross-join without pivots: the left store is not in the
        // pivot table, so arming it costs one unbounded exact search
        // per probe×pivot every call — on cheap-verify AIDS workloads
        // that dwarfs the τ-bounded verifications it saves. The
        // band/signature tiers are the cross-join's paying filters.
        let engine = gedgw_engine(0);
        out.push(measure(
            "cross_join",
            format!("left={probes_n},right={size},tau={join_tau},pivots=0,threads=1"),
            1,
            || {
                black_box(
                    engine
                        .join(&probes, &store, join_tau as f64)
                        .expect("valid join"),
                );
            },
        ));
    }

    out
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn write_json(path: &Path, suite: &str, mode: &str, rev: &str, results: &[Measurement]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 1,\n");
    s.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    s.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"params\": \"{}\", \"median_ns_per_op\": {}, \"ops_per_sample\": {}}}{}\n",
            m.name,
            m.params,
            m.median_ns_per_op,
            m.ops_per_sample,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || {
                if smoke {
                    PathBuf::from("target/perf_smoke")
                } else {
                    PathBuf::from(".")
                }
            },
            PathBuf::from,
        );
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mode = if smoke { "smoke" } else { "quick" };
    let rev = git_rev();
    eprintln!("perf_baseline mode={mode} rev={rev}");

    let kernels = kernels_suite(smoke);
    write_json(
        &out_dir.join("BENCH_kernels.json"),
        "kernels",
        mode,
        &rev,
        &kernels,
    );

    let search = search_suite(smoke);
    write_json(
        &out_dir.join("BENCH_search.json"),
        "search",
        mode,
        &rev,
        &search,
    );
}
