//! `pivot_search`: the library's store-level plans with the pivot tier on.
//!
//! A `GedEngine` (GEDGW, one thread, 4 pivots per shard) over a
//! `ShardedStore` of 200 AIDS-like graphs in two shards (4–7 and 8–10
//! nodes). Set-up builds the store and runs the first
//! `sync_sharded_pivots`.
//!
//! Each cycle runs every query of a pool of 24 stored and 24 foreign
//! graphs of at most 7 nodes once through `top_k_sharded` (k = 5) and once through
//! `range_exact_sharded` (τ = 2), and 6 writes of each kind — insert a
//! foreign graph and sync the pivots; remove a graph the script inserted
//! earlier and sync — 108 ops in an order the seed shuffles once and
//! every cycle replays, so each slot of the cycle does the same work on
//! the same state in every cycle and its time is its best over the cycles
//! (see `BestTimes`).
//!
//! The store, the query pool and the write pool are fixed: arming a query
//! means exact searches against the pivots, whose cost is heavy-tailed
//! (0.6 ms to 200 ms per query on a 2-core Xeon), so a pool drawn
//! per seed moved the mean by more than any bound worth having. The seed
//! sets the interleaving. Queries are capped at 7 nodes because on a shared
//! host an op of 50–200 ms never runs wholly inside a quiet stretch: with
//! them, best-time `ops_per_s` spread 15% over ten seeds, without them 9%,
//! and arming is still most of a query's time.

use crate::layers::{Layers, PlanCounts};
use crate::report::{median, BestTimes, Budget, OpSamples, RunResult, Samples};
use crate::trace::{self, TimingSolver};
use crate::Params;
use ged_core::engine::{GedEngine, RangeExactResult, SearchResult};
use ged_core::method::MethodKind;
use ged_core::solver::{GedSolver, GedgwSolver, SolverRegistry};
use ged_graph::{Graph, GraphDataset, GraphId, ShardedStore};
use ged_testkit::brute_top_k_sharded;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

/// Seed of the fixed store and pools (see the module docs).
const DATASET_SEED: u64 = 20_261_016;
const STORE_GRAPHS: usize = 200;
const BUCKET_WIDTH: usize = 4;
const PIVOTS: usize = 4;
const POOL_STORED: usize = 24;
const POOL_FOREIGN: usize = 24;
const POOL_WRITES: usize = 6;
/// The largest query graph (see the module docs).
const QUERY_MAX_NODES: usize = 7;
/// The tail rung over the cycle's 108 slots: 10.8 lie beyond it.
const TAIL_PERCENTILE: f64 = 90.0;
const TOP_K: usize = 5;
const TAU: f64 = 2.0;
/// Store builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Every n-th `top_k` answer is compared with the brute-force oracle.
const TOP_K_ORACLE_EVERY: u64 = 8;

#[derive(Clone, Copy)]
enum Query {
    Stored(usize),
    Foreign(usize),
}

/// A query's whole answer, for the thread-parity check.
#[derive(PartialEq)]
enum Answer {
    TopK(Option<SearchResult>),
    Range(Option<RangeExactResult>),
}

#[derive(Clone, Copy)]
enum Op {
    TopK(Query),
    RangeExact(Query),
    Insert(usize),
    Remove,
}

struct Pools {
    graphs: Vec<Graph>,
    stored: Vec<usize>,
    foreign: Vec<Graph>,
    writes: Vec<Graph>,
}

fn pools() -> Pools {
    let mut rng = SmallRng::seed_from_u64(DATASET_SEED);
    let graphs: Vec<Graph> = GraphDataset::aids_like(STORE_GRAPHS, &mut rng)
        .graphs()
        .cloned()
        .collect();
    let mut order: Vec<usize> = (0..STORE_GRAPHS).collect();
    order.shuffle(&mut rng);
    let fresh = |n: usize, rng: &mut SmallRng| -> Vec<Graph> {
        GraphDataset::aids_like(n, rng).graphs().cloned().collect()
    };
    let small = |g: &Graph| g.num_nodes() <= QUERY_MAX_NODES;
    let mut foreign = Vec::with_capacity(POOL_FOREIGN);
    while foreign.len() < POOL_FOREIGN {
        foreign.extend(fresh(1, &mut rng).into_iter().filter(small));
    }
    let writes = fresh(POOL_WRITES, &mut rng);
    let stored = order
        .into_iter()
        .filter(|&i| small(&graphs[i]))
        .take(POOL_STORED)
        .collect();
    Pools {
        graphs,
        stored,
        foreign,
        writes,
    }
}

impl Pools {
    fn query(&self, q: Query) -> &Graph {
        match q {
            Query::Stored(i) => &self.graphs[self.stored[i]],
            Query::Foreign(i) => &self.foreign[i],
        }
    }

    /// One cycle's ops, in the order `seed` fixes for every cycle.
    fn cycle(&self, seed: u64) -> Vec<Op> {
        let queries: Vec<Query> = (0..POOL_STORED)
            .map(Query::Stored)
            .chain((0..POOL_FOREIGN).map(Query::Foreign))
            .collect();
        let mut ops: Vec<Op> = queries.iter().map(|&q| Op::TopK(q)).collect();
        ops.extend(queries.iter().map(|&q| Op::RangeExact(q)));
        ops.extend((0..POOL_WRITES).map(Op::Insert));
        ops.extend((0..POOL_WRITES).map(|_| Op::Remove));
        ops.shuffle(&mut SmallRng::seed_from_u64(seed));
        ops
    }
}

fn engine(pivots: usize, threads: usize, timing: bool) -> GedEngine {
    let mut registry = SolverRegistry::new();
    let solver: Box<dyn GedSolver> = if timing {
        Box::new(TimingSolver(GedgwSolver))
    } else {
        Box::new(GedgwSolver)
    };
    registry.register(MethodKind::Gedgw, solver);
    GedEngine::builder(registry)
        .threads(threads)
        .pivots(pivots)
        .build()
        .expect("GEDGW is registered")
}

/// Builds the store and syncs its pivot blocks; returns it with the
/// seconds the whole set-up and the sync alone took.
fn build(pools: &Pools, engine: &GedEngine) -> (ShardedStore, f64, f64) {
    let t = Instant::now();
    let mut store = ShardedStore::from_graphs(BUCKET_WIDTH, pools.graphs.iter().cloned());
    let s = Instant::now();
    engine.sync_sharded_pivots(&mut store);
    let sync_s = s.elapsed().as_secs_f64();
    (store, t.elapsed().as_secs_f64(), sync_s)
}

/// Executes ops against one store, checking every answer.
struct Runner<'a> {
    pools: &'a Pools,
    engine: &'a GedEngine,
    /// The pivot-free engine whose `range_exact` answers must match.
    plain: GedEngine,
    store: ShardedStore,
    cycle: Vec<Op>,
    inserted: VecDeque<GraphId>,
    traced: bool,
    top_k_seen: u64,
    ops_run: u64,
    samples: OpSamples,
    best: BestTimes,
    plan: PlanCounts,
    result: RunResult,
}

impl<'a> Runner<'a> {
    fn new(
        pools: &'a Pools,
        engine: &'a GedEngine,
        store: ShardedStore,
        seed: u64,
        traced: bool,
    ) -> Self {
        Runner {
            pools,
            engine,
            plain: self::engine(0, 1, false),
            store,
            cycle: pools.cycle(seed),
            inserted: VecDeque::new(),
            traced,
            top_k_seen: 0,
            ops_run: 0,
            samples: OpSamples::default(),
            best: BestTimes::default(),
            plan: PlanCounts::default(),
            result: RunResult::default(),
        }
    }

    /// Untimed warm-up: the write pool is inserted once, in the order the
    /// cycle inserts it, so every cycle's removes find the same earlier
    /// inserts; then a few queries run.
    fn warm_up(&mut self) {
        let inserts: Vec<Op> = self
            .cycle
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Insert(_)))
            .collect();
        for op in inserts {
            self.exec(op, None);
        }
        for i in 0..4 {
            self.exec(Op::RangeExact(Query::Foreign(i)), None);
        }
    }

    /// Runs `op`; `slot` is its place in the cycle when it is timed.
    fn exec(&mut self, op: Op, slot: Option<usize>) {
        let outcome = self.exec_checked(op, slot);
        self.result.op(outcome);
    }

    fn exec_checked(&mut self, op: Op, slot: Option<usize>) -> Result<(), String> {
        self.ops_run += 1;
        trace::set_request(self.ops_run);
        let engine = self.engine;
        let pools = self.pools;
        let (name, elapsed) = match op {
            Op::TopK(q) => {
                let query = pools.query(q);
                let t = Instant::now();
                let r = trace::span("engine.top_k", || {
                    engine.top_k_sharded(query, &self.store, TOP_K)
                })
                .map_err(|e| format!("top_k: {e}"))?;
                let dt = t.elapsed();
                self.after_query(q, query);
                if self.traced {
                    self.plan.add_top_k(&r.stats, r.neighbors.len());
                }
                if r.neighbors.len() != self.store.len().min(TOP_K)
                    || r.neighbors.windows(2).any(|w| w[0].ged > w[1].ged)
                {
                    return Err("top_k: not a ranked top-k list".to_string());
                }
                self.top_k_seen += 1;
                if self.top_k_seen % TOP_K_ORACLE_EVERY == 1 {
                    let bounds = engine
                        .sharded_pivot_bounds(query, &self.store)
                        .ok_or("top_k: pivot blocks not synced")?;
                    let want =
                        brute_top_k_sharded(&self.store, query, &GedgwSolver, TOP_K, Some(&bounds));
                    let same = want.len() == r.neighbors.len()
                        && want
                            .iter()
                            .zip(&r.neighbors)
                            .all(|(w, g)| w.id == g.id && w.ged.to_bits() == g.ged.to_bits());
                    if !same {
                        return Err("top_k differs from brute_top_k_sharded".to_string());
                    }
                }
                (top_k_name(q), dt)
            }
            Op::RangeExact(q) => {
                let query = pools.query(q);
                let t = Instant::now();
                let r = trace::span("engine.range_exact", || {
                    engine.range_exact_sharded(query, &self.store, TAU)
                })
                .map_err(|e| format!("range_exact: {e}"))?;
                let dt = t.elapsed();
                self.after_query(q, query);
                if self.traced {
                    self.plan.add_range_exact(&r.stats, r.matches.len());
                }
                let want = self
                    .plain
                    .range_exact_sharded(query, &self.store, TAU)
                    .map_err(|e| format!("pivot-free range_exact: {e}"))?;
                if r.matches != want.matches
                    || !r.budget_exhausted.is_empty()
                    || !want.budget_exhausted.is_empty()
                {
                    return Err("range_exact differs from the pivot-free engine".to_string());
                }
                (range_name(q), dt)
            }
            Op::Insert(i) => {
                let graph = pools.writes[i].clone();
                let store = &mut self.store;
                let t = Instant::now();
                let id = trace::span("shard.insert", || store.insert(graph));
                trace::span("pivot.sync", || engine.sync_sharded_pivots(store));
                let dt = t.elapsed();
                if !store.pivots_ready(PIVOTS) {
                    return Err("insert: pivot blocks not ready after sync".to_string());
                }
                self.inserted.push_back(id);
                ("insert", dt)
            }
            Op::Remove => {
                let id = self
                    .inserted
                    .pop_front()
                    .expect("the warm-up inserts the write pool first");
                let store = &mut self.store;
                let t = Instant::now();
                let removed = trace::span("shard.remove", || store.remove(id));
                trace::span("pivot.sync", || engine.sync_sharded_pivots(store));
                let dt = t.elapsed();
                if removed.is_none() || !store.pivots_ready(PIVOTS) {
                    return Err("remove: graph missing or pivots not ready".to_string());
                }
                ("remove", dt)
            }
        };
        if let Some(slot) = slot {
            self.samples.push(name, elapsed);
            self.best.push(slot, name, elapsed);
        }
        Ok(())
    }

    /// In traced passes, replays the query's pivot arming on its own.
    fn after_query(&self, q: Query, query: &Graph) {
        if self.traced {
            let name = match q {
                Query::Stored(_) => "pivot.arm_stored",
                Query::Foreign(_) => "pivot.arm_foreign",
            };
            trace::span(name, || {
                self.engine.sharded_pivot_bounds(query, &self.store)
            });
        }
    }

    /// Runs cycles until `budget` is reached; returns how many.
    fn run_cycles(&mut self, budget: Budget) -> usize {
        let mut done = 0;
        loop {
            if budget.reached(self.samples.all().total_s(), done) {
                return done;
            }
            for slot in 0..self.cycle.len() {
                self.exec(self.cycle[slot], Some(slot));
            }
            done += 1;
        }
    }
}

fn top_k_name(q: Query) -> &'static str {
    match q {
        Query::Stored(_) => "top_k_stored",
        Query::Foreign(_) => "top_k_foreign",
    }
}

fn range_name(q: Query) -> &'static str {
    match q {
        Query::Stored(_) => "range_exact_stored",
        Query::Foreign(_) => "range_exact_foreign",
    }
}

fn merged(samples: &OpSamples, names: &[&str]) -> Samples {
    let mut all = Samples::default();
    for n in names {
        all.merge(samples.get(n));
    }
    all
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> RunResult {
    let pools = pools();
    let engine = engine(PIVOTS, 1, false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut store = None;
    for _ in 0..SETUP_REPEATS {
        let (s, secs, _) = build(&pools, &engine);
        setups.push(secs);
        store = Some(s);
    }
    let mut runner = Runner::new(&pools, &engine, store.expect("built"), p.seed, false);
    runner.warm_up();
    let cycles = runner.run_cycles(Budget::Seconds(p.seconds));

    let peak_rss_mb = crate::context::peak_rss_mb();
    let samples = runner.samples;
    let best = runner.best;
    let mut r = runner.result;
    let range = best.of(&["range_exact_stored", "range_exact_foreign"]);
    r.metric("setup_s", median(&setups), "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("ops_per_s", best.ops_per_s(1.0), "ops/s");
    r.metric("p50_ms", range.p50_ms(), "ms");
    r.metric("tail_ms", best.of(&[]).tail_ms(TAIL_PERCENTILE), "ms");
    r.note("p50_ms_op", "range_exact (stored and foreign queries)");
    r.note("best_times", best.describe());
    r.note("tail", format!("p{TAIL_PERCENTILE} of the slots' best times"));
    let pooled = samples.all();
    r.note(
        "pooled_ops_per_s",
        format!("{:.1}", pooled.len() as f64 / pooled.total_s()),
    );
    r.note(
        "setup",
        format!("median of {SETUP_REPEATS} store builds + pivot syncs"),
    );
    r.note("timed_cycles", cycles);
    let top_k = best.of(&["top_k_stored", "top_k_foreign"]);
    r.note(
        "top_k_best_p50_ms",
        format!("{:.4} (n={})", top_k.p50_ms(), top_k.len()),
    );
    r.note(
        "pooled_range_exact_p50_ms",
        format!(
            "{:.4}",
            merged(&samples, &["range_exact_stored", "range_exact_foreign"]).p50_ms()
        ),
    );
    samples.describe(&mut r.context);
    r
}

/// One traced or untraced pass: the warm-up, then one cycle, on a copy of
/// the synced store.
fn pass<'a>(
    pools: &'a Pools,
    engine: &'a GedEngine,
    store: &ShardedStore,
    seed: u64,
    traced: bool,
) -> Runner<'a> {
    let mut runner = Runner::new(pools, engine, store.clone(), seed, traced);
    runner.warm_up();
    runner.run_cycles(Budget::Cycles(1));
    runner
}

/// The traced run: per-layer metrics.
pub fn run_traced(p: &Params) -> RunResult {
    let pools = pools();
    let stock = engine(PIVOTS, 1, false);
    let timing = engine(PIVOTS, 1, true);
    let (store, _, sync_s) = build(&pools, &stock);
    let mut layers = Layers {
        pivot_build_s: sync_s,
        ..Layers::default()
    };

    let untraced = pass(&pools, &stock, &store, p.seed, false);
    let untraced_s = untraced.samples.all().total_s();
    let mut r = untraced.result;

    trace::start();
    let first = pass(&pools, &timing, &store, p.seed, true);
    let spans = trace::finish();
    trace::start();
    let second = pass(&pools, &timing, &store, p.seed, true);
    let spans2 = trace::finish();
    for c in [&first.result, &second.result] {
        r.attempted += c.attempted;
        r.failed += c.failed;
    }
    let mut plan = first.plan.clone();
    plan.solver_calls = spans.query_solver_calls();
    let mut plan2 = second.plan.clone();
    plan2.solver_calls = spans2.query_solver_calls();
    r.check(
        "plan counts, solver calls and pivot ratios repeat exactly across two traced passes",
        plan == plan2,
    );
    layers.store_queries(&spans, plan.clone());
    layers.trace_overhead_ratio = first.samples.all().total_s() / untraced_s;

    // The same queries at one thread and at every core.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let queries: Vec<Op> = pools
        .cycle(p.seed)
        .into_iter()
        .filter(|op| matches!(op, Op::TopK(_) | Op::RangeExact(_)))
        .collect();
    let mut times = [0.0f64; 2];
    let mut answers: [Vec<Answer>; 2] = [Vec::new(), Vec::new()];
    for (slot, threads) in [1, nproc].into_iter().enumerate() {
        let e = engine(PIVOTS, threads, false);
        let t = Instant::now();
        for op in &queries {
            answers[slot].push(match *op {
                Op::TopK(q) => Answer::TopK(e.top_k_sharded(pools.query(q), &store, TOP_K).ok()),
                Op::RangeExact(q) => {
                    Answer::Range(e.range_exact_sharded(pools.query(q), &store, TAU).ok())
                }
                Op::Insert(_) | Op::Remove => unreachable!("queries only"),
            });
        }
        times[slot] = t.elapsed().as_secs_f64();
    }
    r.check(
        &format!("answers at {nproc} threads are bit-identical to 1 thread"),
        answers[0] == answers[1],
    );
    layers.runner_plan_speedup = times[0] / times[1];
    layers.emit(&mut r);

    r.note("nproc", nproc);
    r.note("range_exact_breakdown", range_exact_breakdown(&spans));
    r.note("plan_counts", format!("{plan:?}"));
    spans.write("pivot_search", p.seed);
    r
}

/// Where a traced `range_exact` spends its time, as medians over its
/// queries: the query span, the arming replayed for the same request, the
/// solver calls inside the span, and the query's self time minus its
/// arming (the plan's own work).
fn range_exact_breakdown(spans: &trace::Trace) -> String {
    #[derive(Default)]
    struct Parts {
        total: f64,
        solver: f64,
        arm: f64,
    }
    let mut by_request: std::collections::BTreeMap<u64, Parts> = std::collections::BTreeMap::new();
    for s in &spans.spans {
        if s.name == "engine.range_exact" {
            by_request.entry(s.request).or_default().total += s.duration_ns() as f64 / 1e6;
        }
    }
    for s in &spans.spans {
        let Some(parts) = by_request.get_mut(&s.request) else {
            continue;
        };
        let ms = s.duration_ns() as f64 / 1e6;
        match s.name {
            "solver.call" => parts.solver += ms,
            "pivot.arm_stored" | "pivot.arm_foreign" => parts.arm += ms,
            _ => {}
        }
    }
    let parts: Vec<&Parts> = by_request.values().collect();
    let med = |f: &dyn Fn(&Parts) -> f64| median(&parts.iter().map(|p| f(p)).collect::<Vec<_>>());
    format!(
        "median over {} queries: {:.3} ms; arming {:.3}, solver {:.3}, plan self {:.3}",
        parts.len(),
        med(&|p| p.total),
        med(&|p| p.arm),
        med(&|p| p.solver),
        med(&|p| p.total - p.solver - p.arm),
    )
}
