//! `serve_mixed`: the daemon's request path.
//!
//! A `Server` (GEDGW, one thread, no pivots, otherwise daemon defaults)
//! restores a 300-graph AIDS-like store from a snapshot with
//! `Server::load_local`, as `ged-served --store` does. One scripted client
//! then drives `Server::serve_connection` over in-memory reader and writer
//! types owned by the benchmark: a request's time runs from when its line
//! is handed to `read_line` until its response is flushed. The client is
//! a closed loop: it hands over the next line only after checking the
//! previous response.
//!
//! The mix of 20 requests: 10 `predict` by name, 1 `edit_path`, 2 `top_k`
//! (k = 5), 2 `range_exact` (τ = 2) — one by name, one with an inline
//! foreign graph each — 2 `insert_graph` with an inline graph,
//! 2 `remove_graph` of graphs the script inserted earlier, and 1 `stats`.
//! The script is ten mixes whose names and graphs are fixed, like the
//! store, in an order the seed shuffles once; each cycle replays it, so
//! each slot of the script does the same work on the same store in every
//! cycle, and its time is its best over the cycles (see `BestTimes`).

use crate::layers::{Layers, PlanCounts};
use crate::report::{median, BestTimes, Budget, OpSamples, RunResult};
use crate::trace::{self, TimingSolver};
use crate::{out_dir, Params};
use ged_core::engine::GedEngine;
use ged_core::gedgw::Gedgw;
use ged_core::kbest::kbest_edit_path;
use ged_core::method::MethodKind;
use ged_core::pairs::GedPair;
use ged_core::search::bounded_exact_ged;
use ged_core::solver::{GedSolver, GedgwSolver, SolverRegistry};
use ged_graph::{Graph, GraphDataset, GraphId, ShardedStore};
use ged_server::codec::{encode_server_snapshot, parse_server_snapshot};
use ged_server::server::DEFAULT_BUCKET_WIDTH;
use ged_server::{
    encode_request, encode_response, parse_request, parse_response, GraphRef, Request, Response,
    ResponseBody, Server, ServerConfig,
};
use ged_testkit::{brute_range_exact_sharded, brute_top_k_sharded};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Seed of the fixed store (see `store_graphs`).
const DATASET_SEED: u64 = 20_261_015;
/// Seed of the script's names and graphs (see `script_streams`).
const SCRIPT_SEED: u64 = 20_261_018;
const STORE_GRAPHS: usize = 300;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;
/// Mixes of 20 requests in one scripted cycle.
const SCRIPT_MIXES: usize = 10;
/// Untimed cycles before the timed phase.
const WARMUP_CYCLES: usize = 2;
/// Timed cycles of each traced pass.
const TRACED_CYCLES: usize = 6;
/// The tail rung over the script's 200 slots: 10 lie beyond it.
const TAIL_PERCENTILE: f64 = 95.0;
const TOP_K: u64 = 5;
const TAU: f64 = 2.0;
/// The engine builder's default edit-path beam, which the server keeps.
const BEAM: usize = 16;
/// Every n-th `top_k` / `range_exact` answer is compared with the
/// brute-force oracle (the others get structural checks).
const TOP_K_ORACLE_EVERY: u64 = 16;
const RANGE_ORACLE_EVERY: u64 = 4;
/// Predict pairs whose GEDGW error against exact GED a traced pass reports.
const MAE_PAIRS: usize = 150;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict,
    EditPath,
    TopK { inline: bool },
    RangeExact { inline: bool },
    Insert,
    Remove,
    Stats,
}

fn mix() -> Vec<Kind> {
    let mut c = vec![Kind::Predict; 10];
    c.extend([
        Kind::EditPath,
        Kind::TopK { inline: false },
        Kind::TopK { inline: true },
        Kind::RangeExact { inline: false },
        Kind::RangeExact { inline: true },
        Kind::Insert,
        Kind::Insert,
        Kind::Remove,
        Kind::Remove,
        Kind::Stats,
    ]);
    c
}

fn config() -> ServerConfig {
    ServerConfig {
        threads: Some(1),
        pivots: Some(0),
        ..ServerConfig::default()
    }
}

/// The stored graphs: a fixed dataset, so the cost of a `top_k` over the
/// store is the same in every run (a store drawn per seed moved
/// `ops_per_s` by 9% across seeds).
fn store_graphs() -> Vec<Graph> {
    GraphDataset::aids_like(STORE_GRAPHS, &mut SmallRng::seed_from_u64(DATASET_SEED))
        .graphs()
        .cloned()
        .collect()
}

/// The streams of the script's content: one picks stored names, the other
/// draws fresh graphs for inline queries and inserts. Both are fixed: the
/// cost of a `top_k` ranges over a decade with its query, so with 20
/// `top_k` slots drawn per seed, `ops_per_s` moved by 34% across seeds.
fn script_streams() -> (SmallRng, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(SCRIPT_SEED);
    let picks = SmallRng::seed_from_u64(rng.next_u64());
    let fresh = SmallRng::seed_from_u64(rng.next_u64());
    (picks, fresh)
}

/// The store as the server snapshot holds it, its names, and the file.
struct Snapshot {
    store: ShardedStore,
    names: Vec<String>,
    path: PathBuf,
}

impl Snapshot {
    fn write(graphs: &[Graph], seed: u64) -> Snapshot {
        let store = ShardedStore::from_graphs(DEFAULT_BUCKET_WIDTH, graphs.iter().cloned());
        let names: Vec<String> = (0..graphs.len()).map(|i| format!("g{i}")).collect();
        let text = encode_server_snapshot(0, graphs.len() as u64, &names, &store);
        let path = out_dir().join(format!(
            "serve_mixed-{seed}-{}.snapshot",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("write the setup snapshot");
        Snapshot { store, names, path }
    }

    fn start_server(&self) -> Server {
        let server = Server::new(&config()).expect("GEDGW server config is valid");
        let restored = server.load_local(&self.path).expect("restore the snapshot");
        assert_eq!(restored as usize, self.names.len());
        server
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One scripted request, with the names and graphs the seed drew for it.
#[derive(Clone)]
enum Step {
    Pair {
        path: bool,
        a: (String, Graph),
        b: (String, Graph),
    },
    /// A `top_k` or `range_exact` query by name, or inline when `name`
    /// is `None`.
    Query {
        top_k: bool,
        name: Option<String>,
        graph: Graph,
    },
    Insert(Graph),
    Remove,
    Stats,
}

/// What the client expects back for the request in flight.
enum Pending {
    Predict(Graph, Graph),
    EditPath(Graph, Graph),
    TopK { query: Graph, inline: bool },
    RangeExact { query: Graph, inline: bool },
    Insert { graph: Graph, name: String },
    Remove { name: String },
    Stats,
}

impl Pending {
    fn op(&self) -> &'static str {
        match self {
            Pending::Predict(..) => "predict",
            Pending::EditPath(..) => "edit_path",
            Pending::TopK { .. } => "top_k",
            Pending::RangeExact { .. } => "range_exact",
            Pending::Insert { .. } => "insert",
            Pending::Remove { .. } => "remove",
            Pending::Stats => "stats",
        }
    }
}

/// Trace-mode state: a mirror engine over the timing solver, which
/// replays every timed request against the mirror store.
struct Replay {
    engine: GedEngine,
    plan: PlanCounts,
    bytes: u64,
    /// Request id → served time, for `server.self_us`.
    served_ns: BTreeMap<u64, u64>,
    mae_pairs: Vec<(Graph, Graph, f64)>,
}

impl Replay {
    fn new() -> Replay {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(TimingSolver(GedgwSolver)));
        let engine = GedEngine::builder(registry)
            .threads(1)
            .pivots(0)
            .build()
            .expect("GEDGW is registered");
        Replay {
            engine,
            plan: PlanCounts::default(),
            bytes: 0,
            served_ns: BTreeMap::new(),
            mae_pairs: Vec::new(),
        }
    }
}

/// The scripted client: generates requests, checks responses, and keeps
/// a mirror of the server's store for the oracles.
struct Client {
    picks: SmallRng,
    fresh: SmallRng,
    script: Vec<Step>,
    at: usize,
    /// Untimed inserts before the first cycle, one per `remove_graph` of
    /// the script, so a removal always has an earlier insert to remove.
    prelude: usize,
    cycles_started: usize,
    budget: Budget,
    live: Vec<(String, Graph)>,
    inserted: VecDeque<String>,
    next_name: u64,
    mirror: ShardedStore,
    ids: BTreeMap<String, GraphId>,
    names: BTreeMap<GraphId, String>,
    next_id: u64,
    /// The request in flight, with its slot in the script when timed.
    pending: Option<(u64, Pending, String, Option<usize>)>,
    top_k_seen: u64,
    range_seen: u64,
    timed_s: f64,
    samples: OpSamples,
    best: BestTimes,
    result: RunResult,
    replay: Option<Replay>,
}

impl Client {
    fn new(seed: u64, snap: &Snapshot, budget: Budget, traced: bool) -> Client {
        let (picks, fresh) = script_streams();
        let ids = snap.store.ids();
        let live = snap.names.iter().cloned().zip(store_graphs()).collect();
        let mut client = Client {
            picks,
            fresh,
            script: Vec::new(),
            at: 0,
            prelude: 0,
            cycles_started: 0,
            budget,
            live,
            inserted: VecDeque::new(),
            next_name: snap.names.len() as u64,
            mirror: snap.store.clone(),
            ids: snap
                .names
                .iter()
                .cloned()
                .zip(ids.iter().copied())
                .collect(),
            names: ids.into_iter().zip(snap.names.iter().cloned()).collect(),
            next_id: 0,
            pending: None,
            top_k_seen: 0,
            range_seen: 0,
            timed_s: 0.0,
            samples: OpSamples::default(),
            best: BestTimes::default(),
            result: RunResult::default(),
            replay: traced.then(Replay::new),
        };
        let kinds: Vec<Kind> = (0..SCRIPT_MIXES).flat_map(|_| mix()).collect();
        client.script = kinds.into_iter().map(|k| client.draw(k)).collect();
        client.script.shuffle(&mut SmallRng::seed_from_u64(seed));
        client.prelude = client
            .script
            .iter()
            .filter(|s| matches!(s, Step::Remove))
            .count();
        client
    }

    /// Draws the names and graphs of one scripted request. Names are drawn
    /// from the restored store, which the script never removes from.
    fn draw(&mut self, kind: Kind) -> Step {
        match kind {
            Kind::Predict | Kind::EditPath => Step::Pair {
                path: kind == Kind::EditPath,
                a: self.live_pick(),
                b: self.live_pick(),
            },
            Kind::TopK { inline } | Kind::RangeExact { inline } => {
                let (name, graph) = if inline {
                    (None, self.fresh_graph())
                } else {
                    let (name, graph) = self.live_pick();
                    (Some(name), graph)
                };
                Step::Query {
                    top_k: matches!(kind, Kind::TopK { .. }),
                    name,
                    graph,
                }
            }
            Kind::Insert => Step::Insert(self.fresh_graph()),
            Kind::Remove => Step::Remove,
            Kind::Stats => Step::Stats,
        }
    }

    fn fresh_graph(&mut self) -> Graph {
        GraphDataset::aids_like(1, &mut self.fresh)
            .graphs()
            .next()
            .expect("one graph")
            .clone()
    }

    fn live_pick(&mut self) -> (String, Graph) {
        let i = self.picks.gen_range(0..self.live.len());
        self.live[i].clone()
    }

    /// Whether the request being generated is timed (past the prelude
    /// and the warm-up cycles).
    fn timing(&self) -> bool {
        self.prelude == 0 && self.cycles_started > WARMUP_CYCLES
    }

    /// The next request line, or `None` when the pass is over.
    fn next_request(&mut self) -> Option<String> {
        let (step, slot) = if self.prelude > 0 {
            self.prelude -= 1;
            (Step::Insert(self.fresh_graph()), None)
        } else {
            if self.at == 0 {
                if let Some(timed_cycles) = self.cycles_started.checked_sub(WARMUP_CYCLES) {
                    if self.budget.reached(self.timed_s, timed_cycles) {
                        return None;
                    }
                }
                self.cycles_started += 1;
            }
            let slot = self.at;
            self.at = (self.at + 1) % self.script.len();
            (self.script[slot].clone(), self.timing().then_some(slot))
        };
        let id = self.next_id;
        self.next_id += 1;
        let rid = format!("r{id}");
        let (req, pending) = match step {
            Step::Pair {
                path,
                a: (na, a),
                b: (nb, b),
            } => {
                let (g1, g2) = (GraphRef::Name(na), GraphRef::Name(nb));
                if !path {
                    let req = Request::Predict {
                        id: rid,
                        g1,
                        g2,
                        deadline_ms: None,
                    };
                    (req, Pending::Predict(a, b))
                } else {
                    let req = Request::EditPath {
                        id: rid,
                        g1,
                        g2,
                        k: None,
                        deadline_ms: None,
                    };
                    (req, Pending::EditPath(a, b))
                }
            }
            Step::Query {
                top_k,
                name,
                graph: query,
            } => {
                let inline = name.is_none();
                let query_ref = match name {
                    Some(name) => GraphRef::Name(name),
                    None => GraphRef::Inline(query.clone()),
                };
                if top_k {
                    let req = Request::TopK {
                        id: rid,
                        query: query_ref,
                        k: TOP_K,
                        deadline_ms: None,
                    };
                    (req, Pending::TopK { query, inline })
                } else {
                    let req = Request::RangeExact {
                        id: rid,
                        query: query_ref,
                        tau: TAU,
                        deadline_ms: None,
                    };
                    (req, Pending::RangeExact { query, inline })
                }
            }
            Step::Insert(graph) => {
                let name = format!("g{}", self.next_name);
                self.next_name += 1;
                let req = Request::InsertGraph {
                    id: rid,
                    graph: graph.clone(),
                };
                (req, Pending::Insert { graph, name })
            }
            Step::Remove => {
                let name = self
                    .inserted
                    .pop_front()
                    .expect("every cycle removes no more graphs than earlier cycles inserted");
                let req = Request::RemoveGraph {
                    id: rid,
                    name: name.clone(),
                };
                (req, Pending::Remove { name })
            }
            Step::Stats => (Request::Stats { id: rid }, Pending::Stats),
        };
        let line = encode_request(&req);
        self.pending = Some((id, pending, line.clone(), slot));
        Some(line)
    }

    /// Checks the response to the request in flight and applies its
    /// effect to the mirror.
    fn complete(&mut self, sent: Instant, flushed: Option<Instant>, response: &[u8]) {
        let (id, pending, line, slot) = self.pending.take().expect("a request is in flight");
        let outcome = match flushed {
            None => Err(format!("r{id}: no response")),
            Some(at) => {
                let latency = at.duration_since(sent);
                if let Some(slot) = slot {
                    self.samples.push(pending.op(), latency);
                    self.best.push(slot, pending.op(), latency);
                    self.timed_s += latency.as_secs_f64();
                }
                let text = std::str::from_utf8(response).unwrap_or("");
                let text = text.trim_end_matches('\n');
                self.check(id, &pending, &line, text, slot.is_some(), latency)
            }
        };
        self.result.op(outcome);
    }

    fn check(
        &mut self,
        id: u64,
        pending: &Pending,
        line: &str,
        text: &str,
        timed: bool,
        latency: Duration,
    ) -> Result<(), String> {
        let resp = parse_response(text).map_err(|e| format!("r{id}: unparsable response: {e}"))?;
        if resp.id != format!("r{id}") {
            return Err(format!("r{id}: response echoes id {:?}", resp.id));
        }
        if let ResponseBody::Error { code, message } = &resp.body {
            return Err(format!("r{id}: {code}: {message}"));
        }
        if timed {
            if let Some(replay) = self.replay.as_mut() {
                replay
                    .served_ns
                    .insert(id, u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
                replay.bytes += (line.len() + text.len() + 2) as u64;
            }
        }
        let traced = timed && self.replay.is_some();
        if traced {
            trace::set_request(id);
            let parsed = trace::span("codec.parse", || parse_request(line));
            if parsed.is_err() {
                return Err(format!("r{id}: the codec cannot re-parse its own request"));
            }
        }
        let checked = self.check_body(id, pending, &resp, traced);
        if traced {
            trace::span("codec.encode", || encode_response(&resp));
        }
        checked
    }

    fn check_body(
        &mut self,
        id: u64,
        pending: &Pending,
        resp: &Response,
        traced: bool,
    ) -> Result<(), String> {
        let wrong = |what: &str| Err(format!("r{id} ({}): {what}", pending.op()));
        match (pending, &resp.body) {
            (Pending::Predict(a, b), ResponseBody::Ged { ged }) => {
                let want = GedgwSolver.predict(&GedPair::new(a.clone(), b.clone())).ged;
                if let Some(replay) = self.replay.as_mut().filter(|_| traced) {
                    let got = trace::span("engine.predict", || replay.engine.ged(a, b));
                    let pair = GedPair::new(a.clone(), b.clone());
                    trace::span("gedgw.solve", || Gedgw::new(&pair.g1, &pair.g2).solve());
                    if got.map(|e| e.ged.to_bits()) != Ok(want.to_bits()) {
                        return wrong("mirror engine disagrees");
                    }
                    if replay.mae_pairs.len() < MAE_PAIRS {
                        replay.mae_pairs.push((a.clone(), b.clone(), want));
                    }
                }
                if ged.to_bits() != want.to_bits() {
                    return wrong(&format!("ged {ged} != GEDGW {want}"));
                }
            }
            (Pending::EditPath(a, b), ResponseBody::Path { ged, mapping, ops }) => {
                let pair = GedPair::directed(a.clone(), b.clone());
                let want = GedgwSolver
                    .edit_path(&pair, BEAM)
                    .expect("GEDGW generates paths");
                if let Some(replay) = self.replay.as_ref().filter(|_| traced) {
                    let _ = trace::span("engine.edit_path", || replay.engine.edit_path(a, b));
                    let coupling = Gedgw::new(&pair.g1, &pair.g2).solve().coupling;
                    trace::span("kbest.path", || {
                        kbest_edit_path(&pair.g1, &pair.g2, &coupling, BEAM)
                    });
                }
                if *ged != want.ged as u64
                    || mapping.as_slice() != want.mapping.as_slice()
                    || *ops != want.ops
                {
                    return wrong("path differs from GEDGW + k-best");
                }
            }
            (Pending::TopK { query, inline }, ResponseBody::Neighbors { neighbors }) => {
                if let Some(replay) = self.replay.as_mut().filter(|_| traced) {
                    let r = trace::span("engine.top_k", || {
                        replay
                            .engine
                            .top_k_sharded(query, &self.mirror, TOP_K as usize)
                    })
                    .map_err(|e| format!("r{id}: mirror top_k: {e}"))?;
                    replay.plan.add_top_k(&r.stats, r.neighbors.len());
                    let arm = if *inline {
                        "pivot.arm_foreign"
                    } else {
                        "pivot.arm_stored"
                    };
                    trace::span(arm, || {
                        replay.engine.sharded_pivot_bounds(query, &self.mirror)
                    });
                }
                if neighbors.len() != self.live.len().min(TOP_K as usize)
                    || neighbors.windows(2).any(|w| w[0].ged > w[1].ged)
                {
                    return wrong("not a ranked top-k list");
                }
                self.top_k_seen += 1;
                if self.top_k_seen % TOP_K_ORACLE_EVERY == 1 {
                    let want = brute_top_k_sharded(
                        &self.mirror,
                        query,
                        &GedgwSolver,
                        TOP_K as usize,
                        None,
                    );
                    let same = want.len() == neighbors.len()
                        && want.iter().zip(neighbors).all(|(w, g)| {
                            self.names[&w.id] == g.name && w.ged.to_bits() == g.ged.to_bits()
                        });
                    if !same {
                        return wrong("differs from brute_top_k_sharded");
                    }
                }
            }
            (
                Pending::RangeExact { query, inline },
                ResponseBody::ExactMatches { matches, undecided },
            ) => {
                if let Some(replay) = self.replay.as_mut().filter(|_| traced) {
                    let r = trace::span("engine.range_exact", || {
                        replay.engine.range_exact_sharded(query, &self.mirror, TAU)
                    })
                    .map_err(|e| format!("r{id}: mirror range_exact: {e}"))?;
                    replay.plan.add_range_exact(&r.stats, r.matches.len());
                    let arm = if *inline {
                        "pivot.arm_foreign"
                    } else {
                        "pivot.arm_stored"
                    };
                    trace::span(arm, || {
                        replay.engine.sharded_pivot_bounds(query, &self.mirror)
                    });
                }
                if !undecided.is_empty() || matches.iter().any(|m| m.ged as f64 > TAU) {
                    return wrong("undecided or out-of-range matches");
                }
                self.range_seen += 1;
                if self.range_seen % RANGE_ORACLE_EVERY == 1 {
                    let want = brute_range_exact_sharded(&self.mirror, query, TAU as usize);
                    let same = want.len() == matches.len()
                        && want
                            .iter()
                            .zip(matches)
                            .all(|(w, g)| self.names[&w.id] == g.name && w.ged as u64 == g.ged);
                    if !same {
                        return wrong("differs from brute_range_exact_sharded");
                    }
                }
            }
            (Pending::Insert { graph, name }, ResponseBody::Inserted { name: got }) => {
                if got != name {
                    return wrong(&format!("named {got}, expected {name}"));
                }
                let mirror = &mut self.mirror;
                let mid = trace::span("shard.insert", || mirror.insert(graph.clone()));
                if let Some(replay) = self.replay.as_ref().filter(|_| traced) {
                    trace::span("pivot.sync", || replay.engine.sync_sharded_pivots(mirror));
                }
                self.ids.insert(name.clone(), mid);
                self.names.insert(mid, name.clone());
                self.live.push((name.clone(), graph.clone()));
                self.inserted.push_back(name.clone());
            }
            (Pending::Remove { name }, ResponseBody::Removed { name: got }) => {
                if got != name {
                    return wrong(&format!("removed {got}, expected {name}"));
                }
                let mid = self
                    .ids
                    .remove(name)
                    .expect("the script removes live names");
                self.names.remove(&mid);
                let mirror = &mut self.mirror;
                trace::span("shard.remove", || mirror.remove(mid));
                if let Some(replay) = self.replay.as_ref().filter(|_| traced) {
                    trace::span("pivot.sync", || replay.engine.sync_sharded_pivots(mirror));
                }
                let at = self
                    .live
                    .iter()
                    .position(|(n, _)| n == name)
                    .expect("removed name is live");
                self.live.swap_remove(at);
            }
            (Pending::Stats, ResponseBody::Stats(stats)) => {
                if stats.graphs != self.live.len() as u64 {
                    return wrong(&format!(
                        "{} graphs, mirror has {}",
                        stats.graphs,
                        self.live.len()
                    ));
                }
            }
            _ => return wrong("wrong response type"),
        }
        Ok(())
    }
}

/// What the server writes and when it flushed it.
#[derive(Default)]
struct Wire {
    response: Vec<u8>,
    flushed_at: Option<Instant>,
}

struct ScriptWriter(Rc<RefCell<Wire>>);

impl Write for ScriptWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().response.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.borrow_mut().flushed_at = Some(Instant::now());
        Ok(())
    }
}

/// Hands the server one scripted line per `read_line`; before producing
/// the next line it lets the client check the previous response.
struct ScriptReader<'c> {
    client: &'c mut Client,
    wire: Rc<RefCell<Wire>>,
    line: Vec<u8>,
    pos: usize,
    sent_at: Option<Instant>,
}

impl ScriptReader<'_> {
    fn next_line(&mut self) {
        if let Some(sent) = self.sent_at.take() {
            let (response, flushed) = {
                let mut wire = self.wire.borrow_mut();
                (std::mem::take(&mut wire.response), wire.flushed_at.take())
            };
            self.client.complete(sent, flushed, &response);
        }
        self.line.clear();
        self.pos = 0;
        if let Some(line) = self.client.next_request() {
            self.line.extend_from_slice(line.as_bytes());
            self.line.push(b'\n');
            self.sent_at = Some(Instant::now());
        }
    }
}

impl Read for ScriptReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScriptReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.line.len() {
            self.next_line();
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Serves one scripted session against `server` and returns the client.
fn drive(server: &Server, mut client: Client) -> Client {
    let wire = Rc::new(RefCell::new(Wire::default()));
    let mut reader = ScriptReader {
        client: &mut client,
        wire: Rc::clone(&wire),
        line: Vec::new(),
        pos: 0,
        sent_at: None,
    };
    server.serve_connection(&mut reader, ScriptWriter(wire));
    // The last response was flushed before the reader reported EOF.
    assert!(
        reader.sent_at.is_none(),
        "session ended with a request in flight"
    );
    client
}

fn timed_setups(snap: &Snapshot) -> (f64, Server) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = snap.start_server();
        times.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    (median(&times), server.expect("at least one set-up"))
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> RunResult {
    let snap = Snapshot::write(&store_graphs(), p.seed);
    let (setup_s, server) = timed_setups(&snap);
    let client = drive(
        &server,
        Client::new(p.seed, &snap, Budget::Seconds(p.seconds), false),
    );
    let peak_rss_mb = crate::context::peak_rss_mb();
    let samples = client.samples;
    let best = client.best;
    let mut r = client.result;
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MB");
    r.metric("ops_per_s", best.ops_per_s(1.0), "ops/s");
    r.metric("p50_ms", best.of(&["predict"]).p50_ms(), "ms");
    r.metric("tail_ms", best.of(&[]).tail_ms(TAIL_PERCENTILE), "ms");
    r.note("p50_ms_op", "predict");
    r.note("best_times", best.describe());
    r.note("tail", format!("p{TAIL_PERCENTILE} of the slots' best times"));
    let pooled = samples.all();
    r.note(
        "pooled_ops_per_s",
        format!("{:.1}", pooled.len() as f64 / pooled.total_s()),
    );
    r.note(
        "setup",
        format!("median of {SETUP_REPEATS} snapshot restores"),
    );
    r.note("timed_cycles", client.cycles_started - WARMUP_CYCLES);
    samples.describe(&mut r.context);
    r
}

/// One pass over `TRACED_CYCLES` timed cycles on a fresh server and
/// mirror.
fn pass(seed: u64, snap: &Snapshot, traced: bool) -> Client {
    let server = snap.start_server();
    drive(
        &server,
        Client::new(seed, snap, Budget::Cycles(TRACED_CYCLES), traced),
    )
}

/// The traced run: per-layer metrics.
pub fn run_traced(p: &Params) -> RunResult {
    let snap = Snapshot::write(&store_graphs(), p.seed);
    let mut layers = Layers::default();
    let text = std::fs::read_to_string(&snap.path).expect("read the setup snapshot");
    let restores: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let s = parse_server_snapshot(&text).expect("the snapshot parses");
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(s.store.len(), STORE_GRAPHS);
            dt
        })
        .collect();
    layers.snapshot_restore_ms = median(&restores) * 1e3;
    {
        let mut fresh = snap.store.clone();
        let engine = Replay::new().engine;
        let t = Instant::now();
        engine.sync_sharded_pivots(&mut fresh);
        layers.pivot_build_s = t.elapsed().as_secs_f64();
    }

    let untraced = pass(p.seed, &snap, false);
    let mut r = untraced.result;
    let untraced_s = untraced.samples.all().total_s();

    trace::start();
    let first = pass(p.seed, &snap, true);
    let spans = trace::finish();
    trace::start();
    let second = pass(p.seed, &snap, true);
    let spans2 = trace::finish();

    for c in [&first, &second] {
        r.attempted += c.result.attempted;
        r.failed += c.result.failed;
    }
    let replay = first.replay.expect("traced pass");
    let replay2 = second.replay.expect("traced pass");
    let mut plan = replay.plan.clone();
    plan.solver_calls = spans.query_solver_calls();
    let mut plan2 = replay2.plan.clone();
    plan2.solver_calls = spans2.query_solver_calls();
    r.check(
        "plan counts and solver calls repeat exactly across two traced passes",
        plan == plan2,
    );
    layers.store_queries(&spans, plan);

    let totals = spans.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    layers.codec_parse_us = get("codec.parse").mean_us();
    layers.codec_encode_us = get("codec.encode").mean_us();
    layers.codec_bytes_per_op = replay.bytes as f64 / replay.served_ns.len().max(1) as f64;
    layers.gedgw_solve_us = get("gedgw.solve").mean_us();
    layers.kbest_path_us = get("kbest.path").mean_us();
    // Served time minus the spans that replay the same request's codec
    // and engine work.
    const SERVED_PARTS: [&str; 9] = [
        "codec.parse",
        "codec.encode",
        "engine.predict",
        "engine.edit_path",
        "engine.top_k",
        "engine.range_exact",
        "shard.insert",
        "shard.remove",
        "pivot.sync",
    ];
    let mut parts: BTreeMap<u64, u64> = BTreeMap::new();
    for name in SERVED_PARTS {
        for (req, ns) in spans.per_request_ns(name) {
            *parts.entry(req).or_insert(0) += ns;
        }
    }
    let self_ns: f64 = replay
        .served_ns
        .iter()
        .map(|(req, served)| *served as f64 - *parts.get(req).unwrap_or(&0) as f64)
        .sum();
    layers.server_self_us = self_ns / replay.served_ns.len().max(1) as f64 / 1e3;
    let errors: f64 = replay
        .mae_pairs
        .iter()
        .map(|(a, b, est)| {
            let exact = bounded_exact_ged(a, b, usize::MAX / 2).expect("unbounded search decides");
            (est - exact as f64).abs()
        })
        .sum();
    layers.gedgw_mae = errors / replay.mae_pairs.len().max(1) as f64;
    let traced_s = first.samples.all().total_s();
    layers.trace_overhead_ratio = traced_s / untraced_s;
    layers.emit(&mut r);

    r.note("traced_cycles", TRACED_CYCLES);
    r.note("gedgw_mae_pairs", replay.mae_pairs.len());
    r.note("plan_counts", format!("{:?}", layers.plan));
    spans.write("serve_mixed", p.seed);
    r
}
