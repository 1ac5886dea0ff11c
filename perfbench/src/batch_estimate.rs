//! `batch_estimate`: offline estimation with the paper's final method.
//!
//! Set-up labels 80 AIDS-like pairs with exact GED (A*) and trains a
//! GEDIOT model on them, all from a fixed seed, so every run estimates
//! with the same model. Each op is one `BatchRunner::predict_batch` call
//! at one thread with `GedhotSolver` over a batch of 16 AIDS-like pairs;
//! the seed draws a pool of 128 batches, and each cycle runs all of them
//! in an order the seed shuffles. A batch's time is its best over the
//! cycles (see `BestTimes`). Throughput is counted in pairs.
//!
//! The kernels do nearly all the work: conditional gradient, GW and LSAP
//! inside GEDGW, Sinkhorn and the network's forward pass inside GEDIOT.
//! Store, codec and plans are absent.

use crate::layers::Layers;
use crate::report::{median, BestTimes, Budget, OpSamples, RunResult};
use crate::trace::{self, TimingSolver};
use crate::Params;
use ged_baselines::astar::astar_exact_with_limit;
use ged_core::ensemble::{Gedhot, Source};
use ged_core::gedgw::Gedgw;
use ged_core::gediot::{Gediot, GediotConfig};
use ged_core::pairs::{ordered, GedPair};
use ged_core::search::bounded_exact_ged;
use ged_core::solver::{BatchRunner, GedEstimate, GedSolver, GedgwSolver, GedhotSolver};
use ged_graph::GraphDataset;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the training set and the model's initialization.
const TRAIN_SEED: u64 = 20_261_017;
const TRAIN_PAIRS: usize = 80;
const EPOCHS: usize = 10;
/// The expansion cap of the A* labeller (the experiment harness's).
const ASTAR_BUDGET: usize = 300_000;
/// Label sets of the AIDS-like generator.
const NUM_LABELS: usize = 29;
/// Trainings per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The tail rung over the pool's batches: 12.8 of 128 lie beyond it.
const TAIL_PERCENTILE: f64 = 90.0;
const BATCHES: usize = 128;
const BATCH_PAIRS: usize = 16;
/// Pool pairs whose error against exact GED a run reports.
const MAE_PAIRS: usize = 512;
/// Cycles of each traced pass.
const TRACED_CYCLES: usize = 3;

/// Labels the training pairs and trains the model; returns it with the
/// seconds `Gediot::train` took.
fn train() -> (Gediot, f64) {
    let mut rng = SmallRng::seed_from_u64(TRAIN_SEED);
    let graphs: Vec<_> = GraphDataset::aids_like(2 * TRAIN_PAIRS, &mut rng)
        .graphs()
        .cloned()
        .collect();
    let pairs: Vec<GedPair> = graphs
        .chunks_exact(2)
        .filter_map(|c| {
            let (a, b, _) = ordered(&c[0], &c[1]);
            let exact = astar_exact_with_limit(a, b, ASTAR_BUDGET)?;
            Some(GedPair::supervised(
                a.clone(),
                b.clone(),
                exact.ged as f64,
                exact.mapping,
            ))
        })
        .collect();
    let mut model = Gediot::new(GediotConfig::small(NUM_LABELS), &mut rng);
    let t = Instant::now();
    model.train(&pairs, EPOCHS, &mut rng);
    (model, t.elapsed().as_secs_f64())
}

/// The seed's pool: `BATCHES` batches of `BATCH_PAIRS` pairs.
fn pool(seed: u64) -> Vec<Vec<GedPair>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graphs: Vec<_> = GraphDataset::aids_like(2 * BATCHES * BATCH_PAIRS, &mut rng)
        .graphs()
        .cloned()
        .collect();
    let pairs: Vec<GedPair> = graphs
        .chunks_exact(2)
        .map(|c| GedPair::new(c[0].clone(), c[1].clone()))
        .collect();
    pairs.chunks(BATCH_PAIRS).map(<[GedPair]>::to_vec).collect()
}

fn same_bits(a: &[GedEstimate], b: &[GedEstimate]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.ged.to_bits() == y.ged.to_bits())
}

/// Exact GED (unbounded A*) of the first `MAE_PAIRS` pool pairs.
fn exact_geds(pool: &[Vec<GedPair>]) -> Vec<f64> {
    pool.iter()
        .flatten()
        .take(MAE_PAIRS)
        .map(|p| {
            bounded_exact_ged(&p.g1, &p.g2, usize::MAX / 2).expect("unbounded search decides")
                as f64
        })
        .collect()
}

fn mae(estimates: impl Iterator<Item = f64>, exact: &[f64]) -> f64 {
    let errors: Vec<f64> = estimates.zip(exact).map(|(e, x)| (e - x).abs()).collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// Checks the pool's GEDHOT values against the two members run on their
/// own: each must be the smaller member's value, bit for bit.
fn check_members(model: &Gediot, pool: &[Vec<GedPair>], reference: &[Vec<GedEstimate>]) -> bool {
    pool.iter()
        .flatten()
        .zip(reference.iter().flatten())
        .all(|(p, got)| {
            let iot = model.predict(&p.g1, &p.g2).ged;
            let gw = GedgwSolver.predict(p).ged;
            let want = if iot <= gw { iot } else { gw };
            got.ged.to_bits() == want.to_bits()
        })
}

/// Runs shuffled cycles over the pool until `budget` is reached, checking
/// each batch against its reference; a batch's slot is its pool index.
fn run_cycles(
    solver: &dyn GedSolver,
    pool: &[Vec<GedPair>],
    reference: &[Vec<GedEstimate>],
    seed: u64,
    budget: Budget,
    r: &mut RunResult,
) -> (OpSamples, BestTimes) {
    let runner = BatchRunner::new(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut samples = OpSamples::default();
    let mut best = BestTimes::default();
    let mut cycles = 0;
    let mut timed_s = 0.0;
    loop {
        if budget.reached(timed_s, cycles) {
            return (samples, best);
        }
        order.shuffle(&mut rng);
        for &b in &order {
            let t = Instant::now();
            let got = trace::span("batch", || runner.predict_batch(solver, &pool[b]));
            let dt = t.elapsed();
            timed_s += dt.as_secs_f64();
            samples.push("batch", dt);
            best.push(b, "batch", dt);
            r.op(if same_bits(&got, &reference[b]) {
                Ok(())
            } else {
                Err(format!("batch {b} differs from its untimed reference"))
            });
        }
        cycles += 1;
    }
}

fn setup(r: &mut RunResult) -> (Arc<Gediot>, f64, f64) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut trained = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (model, train_s) = train();
        setups.push(t.elapsed().as_secs_f64());
        trained = Some((model, train_s));
    }
    let (model, train_s) = trained.expect("at least one set-up");
    r.note(
        "setup",
        format!("median of {SETUP_REPEATS} label + train runs"),
    );
    (Arc::new(model), median(&setups), train_s)
}

/// Untimed reference values of each batch (also the warm-up).
fn references(solver: &dyn GedSolver, pool: &[Vec<GedPair>]) -> Vec<Vec<GedEstimate>> {
    let runner = BatchRunner::new(1);
    pool.iter()
        .map(|b| runner.predict_batch(solver, b))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> RunResult {
    let mut r = RunResult::default();
    let (model, setup_s, _) = setup(&mut r);
    let solver = GedhotSolver::new(Arc::clone(&model));
    let pool = pool(p.seed);
    let reference = references(&solver, &pool);
    r.check(
        "GEDHOT = the smaller of GEDIOT and GEDGW on every pool pair",
        check_members(&model, &pool, &reference),
    );
    let (samples, best) = run_cycles(
        &solver,
        &pool,
        &reference,
        p.seed,
        Budget::Seconds(p.seconds),
        &mut r,
    );
    let peak_rss_mb = crate::context::peak_rss_mb();
    let batches = best.of(&[]);
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("ops_per_s", best.ops_per_s(BATCH_PAIRS as f64), "ops/s");
    r.metric("p50_ms", batches.p50_ms(), "ms");
    r.metric("tail_ms", batches.tail_ms(TAIL_PERCENTILE), "ms");
    r.note("ops", format!("pairs ({BATCH_PAIRS} per batch)"));
    r.note(
        "p50_ms_op",
        format!("one predict_batch of {BATCH_PAIRS} pairs"),
    );
    r.note("best_times", best.describe());
    r.note("tail", format!("p{TAIL_PERCENTILE} of the batches' best times"));
    let pooled = samples.get("batch");
    r.note(
        "pooled_ops_per_s",
        format!("{:.1}", pooled.len() as f64 * BATCH_PAIRS as f64 / pooled.total_s()),
    );
    let exact = exact_geds(&pool);
    r.note(
        "mae",
        format!(
            "{:.4} GED (GEDHOT vs exact, {} pairs)",
            mae(reference.iter().flatten().map(|e| e.ged), &exact),
            exact.len()
        ),
    );
    samples.describe(&mut r.context);
    r
}

/// The traced run: per-layer metrics.
pub fn run_traced(p: &Params) -> RunResult {
    let mut r = RunResult::default();
    let (model, _, train_s) = setup(&mut r);
    let stock = GedhotSolver::new(Arc::clone(&model));
    let timing = TimingSolver(GedhotSolver::new(Arc::clone(&model)));
    let pool = pool(p.seed);
    let reference = references(&stock, &pool);
    let mut layers = Layers {
        gediot_train_s: train_s,
        ..Layers::default()
    };

    let budget = Budget::Cycles(TRACED_CYCLES);
    let (untraced, _) = run_cycles(&stock, &pool, &reference, p.seed, budget, &mut r);
    let mut passes = Vec::new();
    for _ in 0..2 {
        trace::start();
        let (samples, _) = run_cycles(&timing, &pool, &reference, p.seed, budget, &mut r);
        // Each member of the ensemble on its own, pair by pair.
        let mut gw_wins = 0u64;
        for (i, pair) in pool.iter().flatten().enumerate() {
            trace::set_request(i as u64);
            trace::span("gediot.predict", || model.predict(&pair.g1, &pair.g2));
            trace::span("gedgw.solve", || Gedgw::new(&pair.g1, &pair.g2).solve());
            if Gedhot::new(&model).predict(&pair.g1, &pair.g2).value_source == Source::Gedgw {
                gw_wins += 1;
            }
        }
        passes.push((trace::finish(), samples, gw_wins));
    }
    r.check(
        "GEDHOT member choices repeat exactly across two traced passes",
        passes[0].2 == passes[1].2,
    );
    let (spans, traced, gw_wins) = &passes[0];
    let totals = spans.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    layers.gedhot_predict_us = get("solver.call").mean_us();
    layers.gediot_predict_us = get("gediot.predict").mean_us();
    layers.gedgw_solve_us = get("gedgw.solve").mean_us();
    let n_pairs = (BATCHES * BATCH_PAIRS) as f64;
    layers.gedhot_gw_win_ratio = *gw_wins as f64 / n_pairs;
    layers.trace_overhead_ratio = traced.get("batch").total_s() / untraced.get("batch").total_s();

    let exact = exact_geds(&pool);
    let pairs = || pool.iter().flatten();
    layers.gedhot_mae = mae(reference.iter().flatten().map(|e| e.ged), &exact);
    layers.gediot_mae = mae(pairs().map(|q| model.predict(&q.g1, &q.g2).ged), &exact);
    layers.gedgw_mae = mae(pairs().map(|q| GedgwSolver.predict(q).ged), &exact);

    // The same batches at one thread and at every core.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut times = [0.0f64; 2];
    let mut identical = true;
    for (slot, threads) in [1, nproc].into_iter().enumerate() {
        let runner = BatchRunner::new(threads);
        let t = Instant::now();
        for (b, batch) in pool.iter().enumerate() {
            identical &= same_bits(&runner.predict_batch(&stock, batch), &reference[b]);
        }
        times[slot] = t.elapsed().as_secs_f64();
    }
    r.check(
        &format!("batches at {nproc} threads are bit-identical to 1 thread"),
        identical,
    );
    layers.runner_batch_speedup = times[0] / times[1];
    layers.emit(&mut r);
    r.note("nproc", nproc);
    r.note("traced_cycles", TRACED_CYCLES);
    spans.write("batch_estimate", p.seed);
    r
}
