//! The daemon: engine + mutable store behind the wire protocol.
//!
//! One [`Server`] owns a [`GedEngine`] (whose [`ged_core::solver::BatchRunner`] pool
//! and prediction cache are shared by every connection) and a mutable
//! [`ShardedStore`] behind a reader–writer lock. Store queries run the
//! engine's sharded plans (shard-level pruning before the per-graph
//! tiers). Read queries execute under the read lock — concurrently with
//! each other, serialized against mutations — and mutations bump both
//! the store's own [`ShardedStore::revision`] and the server's
//! protocol-visible mutation counter (`rev` in every response), then
//! re-sync the per-shard pivot blocks under the same write lock (so the
//! pivot tier is armed before the next read admits).
//!
//! `snapshot` / `load` persist and restore the store — pivot blocks,
//! revisions, and the protocol name table included — via the hand-rolled
//! grammar in [`crate::codec`]; `ged-served --store PATH` restores a
//! snapshot at startup and names the default path for both ops.
//! `snapshot` writes atomically ([`ged_graph::io::write_atomically`]):
//! a failed or interrupted write leaves the previous file intact.
//!
//! Concurrency discipline:
//!
//! * **Admission control** — at most [`ServerConfig::max_inflight`]
//!   store/engine requests execute at once; excess requests are rejected
//!   immediately with a typed `overloaded` error (never queued blind,
//!   never dropped). Introspection (`ping` / `stats`) is always
//!   admitted.
//! * **Deadlines** — a request carrying `deadline_ms` is answered with
//!   `deadline_exceeded` if the deadline elapses before its result is
//!   ready. Store-level queries (`top_k` / `range` / `range_exact` /
//!   `matrix` / `self_join` / `join`) thread a cooperative
//!   [`ged_core::engine::Deadline`] into plan execution: the engine
//!   checks it between verification blocks and abandons the remaining
//!   work mid-plan instead of occupying the worker pool until an answer
//!   nobody is waiting for completes. Per-pair ops (`predict` /
//!   `edit_path`) are not preempted mid-solve — their deadline is
//!   checked on admission and again on completion. A deadline of `0`
//!   deterministically fails without executing.
//! * **Graceful shutdown** — `shutdown` stops admitting, waits for every
//!   in-flight request to finish and be answered, answers itself, then
//!   unblocks all connections. Requests arriving during the drain get a
//!   typed `shutting_down` error.

use crate::codec::{encode_response, encode_server_snapshot, parse_request, parse_server_snapshot};
use crate::protocol::{
    ErrorCode, GraphRef, Request, Response, ResponseBody, StatsBody, WireExactNeighbor,
    WireJoinPair, WireJoinUndecided, WireNeighbor, WireUndecided, MAX_LINE_BYTES,
};
use ged_baselines::solvers::ClassicSolver;
use ged_core::engine::{Deadline, GedEngine, GedQuery, GedResponse, QueryOpts};
use ged_core::method::MethodKind;
use ged_core::pairs::GedPair;
use ged_core::solver::{GedgwSolver, SolverRegistry};
use ged_core::GedError;
use ged_graph::io::write_atomically;
use ged_graph::{Graph, GraphId, GraphStore, ShardedStore};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Graph-size bucket width of the daemon's [`ShardedStore`]: graphs with
/// `n / 8` equal land in the same shard — wide enough that small stores
/// stay in a few shards, narrow enough that heterogeneous stores give
/// the shard tier something to prune.
pub const DEFAULT_BUCKET_WIDTH: usize = 8;

/// Configuration of a [`Server`] (mirrors [`ged_core::engine::GedEngineBuilder`]
/// plus the serving-layer knobs).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Default GED method. The server registers the training-free
    /// solvers (GEDGW, Classic); this picks the default.
    pub method: MethodKind,
    /// Worker threads of the shared [`ged_core::solver::BatchRunner`]
    /// (`None` = builder default).
    pub threads: Option<usize>,
    /// Default edit-path search effort (`None` = builder default).
    pub beam_width: Option<usize>,
    /// Pivot-table target size (`None` = builder default).
    pub pivots: Option<usize>,
    /// Prediction-cache capacity (`None` = builder default).
    pub prediction_cache: Option<usize>,
    /// `range_exact` verification budget (`None` = unlimited).
    pub verify_budget: Option<usize>,
    /// Admission-control cap: maximum store/engine requests in flight.
    pub max_inflight: usize,
    /// Default snapshot path for the `snapshot` / `load` ops (the
    /// binary's `--store PATH`; also loaded at startup when it exists).
    pub store_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            method: MethodKind::Gedgw,
            threads: None,
            beam_width: None,
            pivots: None,
            prediction_cache: None,
            verify_budget: None,
            max_inflight: 64,
            store_path: None,
        }
    }
}

/// The store plus the protocol's name table and mutation counter.
struct StoreState {
    store: ShardedStore,
    names: BTreeMap<String, GraphId>,
    ids: BTreeMap<GraphId, String>,
    next_name: u64,
    rev: u64,
}

struct Shared {
    engine: GedEngine,
    state: RwLock<StoreState>,
    /// Default snapshot path ([`ServerConfig::store_path`]).
    store_path: Option<PathBuf>,
    /// Serializes snapshot writes: `snapshot` runs under the shared read
    /// lock, and two writes to one path would share a temporary file.
    snapshot_writes: Mutex<()>,
    /// Count of admitted (executing) store/engine requests.
    inflight: Mutex<usize>,
    drained: Condvar,
    max_inflight: usize,
    shutting_down: AtomicBool,
    /// Signalled once the shutdown drain has completed.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Read-half handles of open socket connections, shut down on exit
    /// so blocked readers observe EOF.
    conns: Mutex<Vec<UnixStream>>,
}

/// Decrements the in-flight count on drop (even if a handler panics).
struct AdmitGuard<'a>(&'a Shared);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut n = self.0.inflight.lock().unwrap();
        *n -= 1;
        drop(n);
        self.0.drained.notify_all();
    }
}

/// A `ged-served` daemon instance. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

/// Runs a store-level query with the engine's own method under the
/// request's deadline.
fn run(
    engine: &GedEngine,
    query: GedQuery<'_>,
    deadline: Deadline,
) -> Result<GedResponse, (ErrorCode, String)> {
    let opts = QueryOpts {
        deadline,
        ..QueryOpts::default()
    };
    engine.query_with(query, opts).map_err(|e| engine_error(&e))
}

/// Every query is answered in its own shape.
const SHAPE: &str = "a query answers in its own shape";

fn engine_error(e: &GedError) -> (ErrorCode, String) {
    let code = match e {
        GedError::UnknownMethod(_) | GedError::MethodNotRegistered(_) | GedError::Config(_) => {
            ErrorCode::Config
        }
        GedError::PathsUnsupported(_) => ErrorCode::Unsupported,
        GedError::EmptyGraph(_) => ErrorCode::EmptyGraph,
        GedError::InvalidK { .. } => ErrorCode::InvalidK,
        GedError::EmptyStore => ErrorCode::EmptyStore,
        GedError::Parse(_) => ErrorCode::Parse,
        GedError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
    };
    (code, e.to_string())
}

/// The outcome of a store/engine op: the server's mutation counter
/// **captured under the same lock the op executed under** (so replaying
/// mutations up to that counter reproduces exactly the state the op
/// observed), plus the payload or a typed error.
type OpResult = Result<(u64, ResponseBody), (u64, ErrorCode, String)>;

impl Server {
    /// Builds a server: registry with the training-free solvers, an
    /// engine per `config`, and an empty store.
    ///
    /// # Errors
    /// Propagates [`GedError`] from the engine builder (e.g. a default
    /// method that is not training-free).
    pub fn new(config: &ServerConfig) -> Result<Self, GedError> {
        let mut registry = SolverRegistry::new();
        registry.register(MethodKind::Gedgw, Box::new(GedgwSolver));
        registry.register(MethodKind::Classic, Box::new(ClassicSolver));
        let mut builder = GedEngine::builder(registry).method(config.method);
        if let Some(t) = config.threads {
            builder = builder.threads(t);
        }
        if let Some(b) = config.beam_width {
            builder = builder.beam_width(b);
        }
        if let Some(p) = config.pivots {
            builder = builder.pivots(p);
        }
        if let Some(c) = config.prediction_cache {
            builder = builder.prediction_cache(c);
        }
        if let Some(v) = config.verify_budget {
            builder = builder.verify_budget(v);
        }
        let engine = builder.build()?;
        Ok(Server {
            shared: Arc::new(Shared {
                engine,
                state: RwLock::new(StoreState {
                    store: ShardedStore::new(DEFAULT_BUCKET_WIDTH),
                    names: BTreeMap::new(),
                    ids: BTreeMap::new(),
                    next_name: 0,
                    rev: 0,
                }),
                store_path: config.store_path.clone(),
                snapshot_writes: Mutex::new(()),
                inflight: Mutex::new(0),
                drained: Condvar::new(),
                max_inflight: config.max_inflight,
                shutting_down: AtomicBool::new(false),
                done: Mutex::new(false),
                done_cv: Condvar::new(),
                conns: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Inserts `graph` directly (bypassing the wire), returning its
    /// protocol name. Used by the binary's `--seed` flag and by tests.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    pub fn insert_local(&self, graph: Graph) -> String {
        let mut state = self.shared.state.write().unwrap();
        let name = insert_named(&mut state, graph);
        self.shared.engine.sync_sharded_pivots(&mut state.store);
        name
    }

    /// Replaces the store from a snapshot file (bypassing the wire) —
    /// what `ged-served --store PATH` does at startup. Returns the
    /// number of graphs restored.
    ///
    /// # Errors
    /// Returns a message when the file cannot be read or parsed.
    ///
    /// # Panics
    /// Panics if the state lock is poisoned.
    pub fn load_local(&self, path: &Path) -> Result<u64, String> {
        let mut state = self.shared.state.write().unwrap();
        load_snapshot_into(&mut state, &self.shared.engine, path)
            .map_err(|(_, msg)| msg)
            .map(|n| n as u64)
    }

    /// `true` once a `shutdown` request has been received.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Blocks until a `shutdown` request has fully drained.
    ///
    /// # Panics
    /// Panics if the done lock is poisoned.
    pub fn wait_for_shutdown(&self) {
        let mut done = self.shared.done.lock().unwrap();
        while !*done {
            done = self.shared.done_cv.wait(done).unwrap();
        }
    }

    fn current_rev(&self) -> u64 {
        self.shared.state.read().unwrap().rev
    }

    /// Handles one request line and returns `(response line, close)`.
    /// `close` is `true` when the connection should be closed after
    /// writing the response (only after answering a `shutdown`).
    #[must_use]
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let (resp, close) = self.respond(line);
        (encode_response(&resp), close)
    }

    /// The `oversized` rejection of a request line (`what` describes it).
    fn oversized(&self, what: &str) -> Response {
        let msg = format!("{what} exceeds the {MAX_LINE_BYTES}-byte cap");
        Response::error("", self.current_rev(), ErrorCode::Oversized, msg)
    }

    fn respond(&self, line: &str) -> (Response, bool) {
        if line.len() > MAX_LINE_BYTES {
            let what = format!("request line of {} bytes", line.len());
            return (self.oversized(&what), false);
        }
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                let resp = Response::error(&e.id, self.current_rev(), e.code(), e.to_string());
                return (resp, false);
            }
        };
        let id = req.id().to_string();
        if let Request::Shutdown { .. } = req {
            return self.shutdown(&id);
        }
        if self.is_shutting_down() {
            let resp = Response::error(
                &id,
                self.current_rev(),
                ErrorCode::ShuttingDown,
                "server is draining after a shutdown request",
            );
            return (resp, false);
        }
        let result = match &req {
            Request::Ping { .. } => Ok((self.current_rev(), ResponseBody::Pong)),
            Request::Stats { .. } => Ok(self.stats()),
            _ => self.admitted(&req),
        };
        let resp = match result {
            Ok((rev, body)) => Response { id, rev, body },
            Err((rev, code, message)) => Response::error(&id, rev, code, message),
        };
        (resp, false)
    }

    /// Runs a read op under the read lock, pairing its outcome with the
    /// mutation counter of the state it observed.
    fn with_read<F>(&self, f: F) -> OpResult
    where
        F: FnOnce(&StoreState, &GedEngine) -> Result<ResponseBody, (ErrorCode, String)>,
    {
        let state = self.shared.state.read().unwrap();
        let rev = state.rev;
        match f(&state, &self.shared.engine) {
            Ok(body) => Ok((rev, body)),
            Err((code, msg)) => Err((rev, code, msg)),
        }
    }

    /// Runs a mutation under the write lock; the reported counter is the
    /// post-mutation value (unchanged when the mutation fails).
    fn with_write<F>(&self, f: F) -> OpResult
    where
        F: FnOnce(&mut StoreState, &GedEngine) -> Result<ResponseBody, (ErrorCode, String)>,
    {
        let mut state = self.shared.state.write().unwrap();
        let out = f(&mut state, &self.shared.engine);
        let rev = state.rev;
        match out {
            Ok(body) => Ok((rev, body)),
            Err((code, msg)) => Err((rev, code, msg)),
        }
    }

    fn stats(&self) -> (u64, ResponseBody) {
        let state = self.shared.state.read().unwrap();
        let engine = &self.shared.engine;
        let body = ResponseBody::Stats(StatsBody {
            graphs: state.store.len() as u64,
            method: engine.method().to_string(),
            pivots: engine.pivot_target() as u64,
            cached_predictions: engine.cached_predictions().map(|n| n as u64),
            inflight: *self.shared.inflight.lock().unwrap() as u64,
            max_inflight: self.shared.max_inflight as u64,
        });
        (state.rev, body)
    }

    /// Admission-controlled store/engine ops.
    fn admitted(&self, req: &Request) -> OpResult {
        let _guard = {
            let mut n = self.shared.inflight.lock().unwrap();
            if *n >= self.shared.max_inflight {
                let msg = format!(
                    "{} requests already in flight (cap {})",
                    *n, self.shared.max_inflight
                );
                drop(n);
                return Err((self.current_rev(), ErrorCode::Overloaded, msg));
            }
            *n += 1;
            AdmitGuard(&self.shared)
        };
        let start = Instant::now();
        let deadline_ms = match req {
            Request::Predict { deadline_ms, .. }
            | Request::EditPath { deadline_ms, .. }
            | Request::TopK { deadline_ms, .. }
            | Request::Range { deadline_ms, .. }
            | Request::RangeExact { deadline_ms, .. }
            | Request::Matrix { deadline_ms, .. }
            | Request::SelfJoin { deadline_ms, .. }
            | Request::Join { deadline_ms, .. } => *deadline_ms,
            _ => None,
        };
        if deadline_ms == Some(0) {
            return Err((
                self.current_rev(),
                ErrorCode::DeadlineExceeded,
                "deadline of 0 ms elapsed before execution".to_string(),
            ));
        }
        // Store-level queries get a cooperative engine deadline: the
        // plan checks it between verification blocks and aborts
        // mid-execution rather than finishing work nobody waits for.
        let deadline = deadline_ms.map_or(Deadline::NONE, |ms| {
            Deadline::within(Duration::from_millis(ms))
        });
        let result = match req {
            Request::InsertGraph { graph, .. } => self.insert_graph(graph),
            Request::RemoveGraph { name, .. } => self.remove_graph(name),
            Request::Predict { g1, g2, .. } => self.predict(g1, g2),
            Request::EditPath { g1, g2, k, .. } => self.edit_path(g1, g2, *k),
            Request::TopK { query, k, .. } => self.top_k(query, *k, deadline),
            Request::Range { query, tau, .. } => self.range(query, *tau, false, deadline),
            Request::RangeExact { query, tau, .. } => self.range(query, *tau, true, deadline),
            Request::Matrix { .. } => self.matrix(deadline),
            Request::SelfJoin { tau, .. } => self.self_join(*tau, deadline),
            Request::Join { graphs, tau, .. } => self.join(graphs, *tau, deadline),
            Request::Snapshot { path, .. } => self.snapshot(path.as_deref()),
            Request::Load { path, .. } => self.load(path.as_deref()),
            _ => unreachable!("introspection ops are not admission-controlled"),
        };
        if let Some(ms) = deadline_ms {
            let elapsed = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
            if elapsed >= ms {
                let rev = match &result {
                    Ok((rev, _)) | Err((rev, _, _)) => *rev,
                };
                return Err((
                    rev,
                    ErrorCode::DeadlineExceeded,
                    format!("deadline of {ms} ms exceeded ({elapsed} ms elapsed)"),
                ));
            }
        }
        result
    }

    fn insert_graph(&self, graph: &Graph) -> OpResult {
        self.with_write(|state, engine| {
            if graph.num_nodes() == 0 {
                return Err((
                    ErrorCode::EmptyGraph,
                    "refusing to store a graph with no nodes".to_string(),
                ));
            }
            let name = insert_named(state, graph.clone());
            engine.sync_sharded_pivots(&mut state.store);
            Ok(ResponseBody::Inserted { name })
        })
    }

    fn remove_graph(&self, name: &str) -> OpResult {
        self.with_write(|state, engine| {
            let Some(id) = state.names.remove(name) else {
                return Err((
                    ErrorCode::UnknownGraph,
                    format!("no stored graph named {name:?}"),
                ));
            };
            state.ids.remove(&id);
            state.store.remove(id);
            state.rev += 1;
            engine.sync_sharded_pivots(&mut state.store);
            Ok(ResponseBody::Removed {
                name: name.to_string(),
            })
        })
    }

    fn predict(&self, g1: &GraphRef, g2: &GraphRef) -> OpResult {
        self.with_read(|state, engine| {
            // Stored or inline, both graphs resolve to references and go
            // through `ged`, whose prediction cache keys on the pair
            // fingerprint — stored pairs still hit it.
            let a = resolve(state, g1)?;
            let b = resolve(state, g2)?;
            let estimate = engine.ged(a, b).map_err(|e| engine_error(&e))?;
            Ok(ResponseBody::Ged { ged: estimate.ged })
        })
    }

    fn edit_path(&self, g1: &GraphRef, g2: &GraphRef, k: Option<u64>) -> OpResult {
        self.with_read(|state, engine| {
            let a = resolve(state, g1)?;
            let b = resolve(state, g2)?;
            let path = match k {
                None => engine.edit_path(a, b),
                Some(k) => engine
                    .query(GedQuery::Path {
                        pair: &GedPair::directed(a.clone(), b.clone()),
                        k: Some(usize::try_from(k).unwrap_or(usize::MAX)),
                    })
                    .map(|r| r.into_path().expect(SHAPE)),
            }
            .map_err(|e| engine_error(&e))?;
            Ok(ResponseBody::Path {
                ged: path.ged as u64,
                mapping: path.mapping.as_slice().to_vec(),
                ops: path.ops,
            })
        })
    }

    fn top_k(&self, query: &GraphRef, k: u64, deadline: Deadline) -> OpResult {
        self.with_read(|state, engine| {
            let q = resolve(state, query)?;
            let k = usize::try_from(k).unwrap_or(usize::MAX);
            let store = (&state.store).into();
            let top_k = GedQuery::TopK { query: q, store, k };
            let result = run(engine, top_k, deadline)?.into_top_k().expect(SHAPE);
            Ok(ResponseBody::Neighbors {
                neighbors: named_neighbors(state, result.neighbors.iter().map(|n| (n.id, n.ged))),
            })
        })
    }

    fn range(&self, query: &GraphRef, tau: f64, exact: bool, deadline: Deadline) -> OpResult {
        self.with_read(|state, engine| {
            let query = resolve(state, query)?;
            let store = (&state.store).into();
            if exact {
                let range = GedQuery::RangeExact { query, store, tau };
                let result = run(engine, range, deadline)?
                    .into_range_exact()
                    .expect(SHAPE);
                Ok(ResponseBody::ExactMatches {
                    matches: result
                        .matches
                        .iter()
                        .map(|m| WireExactNeighbor {
                            name: state.ids[&m.id].clone(),
                            ged: m.ged as u64,
                        })
                        .collect(),
                    undecided: result
                        .budget_exhausted
                        .iter()
                        .map(|u| WireUndecided {
                            name: state.ids[&u.id].clone(),
                            known_match_ub: u.known_match_ub.map(|ub| ub as u64),
                        })
                        .collect(),
                })
            } else {
                let range = GedQuery::Range { query, store, tau };
                let result = run(engine, range, deadline)?.into_range().expect(SHAPE);
                Ok(ResponseBody::Neighbors {
                    neighbors: named_neighbors(
                        state,
                        result.neighbors.iter().map(|n| (n.id, n.ged)),
                    ),
                })
            }
        })
    }

    fn matrix(&self, deadline: Deadline) -> OpResult {
        self.with_read(|state, engine| {
            let store = (&state.store).into();
            let matrix = GedQuery::Matrix { store };
            let m = run(engine, matrix, deadline)?.into_matrix().expect(SHAPE);
            let names: Vec<String> = m.ids().iter().map(|id| state.ids[id].clone()).collect();
            let rows: Vec<Vec<f64>> = (0..m.size()).map(|i| m.row(i).to_vec()).collect();
            Ok(ResponseBody::Matrix { names, rows })
        })
    }

    fn self_join(&self, tau: f64, deadline: Deadline) -> OpResult {
        self.with_read(|state, engine| {
            let store = (&state.store).into();
            let join = GedQuery::SelfJoin { store, tau };
            let result = run(engine, join, deadline)?.into_self_join().expect(SHAPE);
            Ok(ResponseBody::SelfJoin {
                pairs: result
                    .pairs
                    .iter()
                    .map(|p| WireJoinPair {
                        a: state.ids[&p.a].clone(),
                        b: state.ids[&p.b].clone(),
                        ged: p.ged as u64,
                    })
                    .collect(),
                undecided: result
                    .budget_exhausted
                    .iter()
                    .map(|u| WireJoinUndecided {
                        a: state.ids[&u.a].clone(),
                        b: state.ids[&u.b].clone(),
                        known_match_ub: u.known_match_ub.map(|ub| ub as u64),
                    })
                    .collect(),
                candidates: result.stats.total() as u64,
                verified: result.stats.verified as u64,
            })
        })
    }

    fn join(&self, graphs: &[Graph], tau: f64, deadline: Deadline) -> OpResult {
        self.with_read(|state, engine| {
            // The request's inline batch becomes the join's left store;
            // its graphs are addressed by position (`"q{i}"`) on the
            // wire, so build the position map off the fresh ids.
            for (i, g) in graphs.iter().enumerate() {
                if g.num_nodes() == 0 {
                    return Err((
                        ErrorCode::EmptyGraph,
                        format!("query graph {i} of the join batch has no nodes"),
                    ));
                }
            }
            let left = GraphStore::from_graphs(graphs.iter().cloned());
            let position: BTreeMap<GraphId, usize> = left
                .ids()
                .into_iter()
                .enumerate()
                .map(|(i, id)| (id, i))
                .collect();
            let join = GedQuery::Join {
                store: (&left).into(),
                other: (&state.store).into(),
                tau,
            };
            let result = run(engine, join, deadline)?.into_join().expect(SHAPE);
            Ok(ResponseBody::Join {
                pairs: result
                    .pairs
                    .iter()
                    .map(|p| WireJoinPair {
                        a: format!("q{}", position[&p.a]),
                        b: state.ids[&p.b].clone(),
                        ged: p.ged as u64,
                    })
                    .collect(),
                undecided: result
                    .budget_exhausted
                    .iter()
                    .map(|u| WireJoinUndecided {
                        a: format!("q{}", position[&u.a]),
                        b: state.ids[&u.b].clone(),
                        known_match_ub: u.known_match_ub.map(|ub| ub as u64),
                    })
                    .collect(),
                candidates: result.stats.total() as u64,
                verified: result.stats.verified as u64,
            })
        })
    }

    /// Resolves a snapshot path: the request's override, else the
    /// daemon's `--store` default.
    fn snapshot_path(&self, path: Option<&str>) -> Result<PathBuf, (ErrorCode, String)> {
        match path {
            Some(p) => Ok(PathBuf::from(p)),
            None => self.shared.store_path.clone().ok_or((
                ErrorCode::Config,
                "no snapshot path: pass \"path\" or start with --store PATH".to_string(),
            )),
        }
    }

    fn snapshot(&self, path: Option<&str>) -> OpResult {
        let path = match self.snapshot_path(path) {
            Ok(p) => p,
            Err((code, msg)) => return Err((self.current_rev(), code, msg)),
        };
        self.with_read(|state, _| {
            let names: Vec<String> = state.ids.values().cloned().collect();
            let json = encode_server_snapshot(state.rev, state.next_name, &names, &state.store);
            // The guard protects no data, so a poisoned lock is still sound.
            let lock = self.shared.snapshot_writes.lock();
            let _writing = lock.unwrap_or_else(std::sync::PoisonError::into_inner);
            write_atomically(&path, json.as_bytes()).map_err(|e| {
                (
                    ErrorCode::Io,
                    format!("cannot write snapshot {}: {e}", path.display()),
                )
            })?;
            Ok(ResponseBody::Snapshotted {
                path: path.display().to_string(),
                graphs: state.store.len() as u64,
            })
        })
    }

    fn load(&self, path: Option<&str>) -> OpResult {
        let path = match self.snapshot_path(path) {
            Ok(p) => p,
            Err((code, msg)) => return Err((self.current_rev(), code, msg)),
        };
        self.with_write(|state, engine| {
            let graphs = load_snapshot_into(state, engine, &path)?;
            Ok(ResponseBody::Loaded {
                path: path.display().to_string(),
                graphs: graphs as u64,
            })
        })
    }

    /// The shutdown sequence (see the module docs).
    fn shutdown(&self, id: &str) -> (Response, bool) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            // A concurrent shutdown is already draining.
            let resp = Response::error(
                id,
                self.current_rev(),
                ErrorCode::ShuttingDown,
                "shutdown already in progress",
            );
            return (resp, true);
        }
        // Drain: wait until every admitted request has finished (each
        // holds an AdmitGuard; its connection thread writes the response
        // before reading — and admitting — anything else).
        let mut n = self.shared.inflight.lock().unwrap();
        while *n > 0 {
            n = self.shared.drained.wait(n).unwrap();
        }
        drop(n);
        // Unblock every socket reader; buffered-but-unread pipelined
        // lines on other connections are dropped by design (documented).
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        let mut done = self.shared.done.lock().unwrap();
        *done = true;
        drop(done);
        self.shared.done_cv.notify_all();
        let resp = Response {
            id: id.to_string(),
            rev: self.current_rev(),
            body: ResponseBody::ShutdownComplete,
        };
        (resp, true)
    }

    /// Serves one line-delimited session over arbitrary streams (the
    /// stdin/stdout transport; also what socket connections delegate
    /// to). Returns on EOF, on an unwritable response, or after
    /// answering a `shutdown`.
    ///
    /// At most [`MAX_LINE_BYTES`] plus a `\r\n` ending is buffered per
    /// line: a longer line is answered `oversized` as soon as the cap is
    /// crossed, and its remainder is discarded through the next `\n`
    /// without being stored.
    pub fn serve_connection<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) {
        let limit = MAX_LINE_BYTES as u64 + 2;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            // Bytes, not a `String`: a cap that splits a UTF-8 character
            // is still an oversized line, not a decoding failure.
            let truncated = buf.len() as u64 == limit && !buf.ends_with(b"\n");
            let (resp, close) = if truncated {
                (encode_response(&self.oversized("request line")), false)
            } else {
                let Ok(line) = std::str::from_utf8(&buf) else {
                    return;
                };
                let trimmed = line.trim_end_matches(['\n', '\r']);
                if trimmed.is_empty() {
                    continue;
                }
                self.handle_line(trimmed)
            };
            if writer
                .write_all(resp.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                return;
            }
            if close || (truncated && reader.skip_until(b'\n').is_err()) {
                return;
            }
        }
    }

    /// Serves one Unix-socket connection, registering it so shutdown can
    /// unblock its reader.
    pub fn serve_stream(&self, stream: UnixStream) {
        if let Ok(clone) = stream.try_clone() {
            self.shared.conns.lock().unwrap().push(clone);
        }
        self.serve_connection(BufReader::new(&stream), &stream);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Accept loop over a Unix listener: one thread per connection,
    /// until shutdown has drained. Joins every connection thread before
    /// returning.
    ///
    /// # Panics
    /// Panics if the listener cannot be switched to non-blocking mode.
    pub fn serve_listener(&self, listener: &UnixListener) {
        listener
            .set_nonblocking(true)
            .expect("listener non-blocking mode");
        let mut handles = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let server = self.clone();
                    handles.push(std::thread::spawn(move || server.serve_stream(stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if *self.shared.done.lock().unwrap() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

fn insert_named(state: &mut StoreState, graph: Graph) -> String {
    let name = format!("g{}", state.next_name);
    state.next_name += 1;
    let id = state.store.insert(graph);
    state.names.insert(name.clone(), id);
    state.ids.insert(id, name.clone());
    state.rev += 1;
    name
}

/// Replaces `state` wholesale from the snapshot at `path`: store (ids,
/// revisions, and pivot blocks included), name table, name counter, and
/// mutation counter. Re-syncs the pivot blocks afterwards so a snapshot
/// taken at a different pivot target still arms the engine's tier (an
/// O(shards) no-op when the targets agree).
fn load_snapshot_into(
    state: &mut StoreState,
    engine: &GedEngine,
    path: &Path,
) -> Result<usize, (ErrorCode, String)> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        (
            ErrorCode::Io,
            format!("cannot read snapshot {}: {e}", path.display()),
        )
    })?;
    let snap = parse_server_snapshot(&text).map_err(|e| {
        (
            ErrorCode::Io,
            format!("malformed snapshot {}: {e}", path.display()),
        )
    })?;
    let mut names = BTreeMap::new();
    let mut ids = BTreeMap::new();
    for (id, name) in snap.store.ids().into_iter().zip(&snap.names) {
        ids.insert(id, name.clone());
        names.insert(name.clone(), id);
    }
    if names.len() != snap.store.len() {
        return Err((
            ErrorCode::Io,
            format!("snapshot {} repeats graph names", path.display()),
        ));
    }
    state.store = snap.store;
    state.names = names;
    state.ids = ids;
    state.next_name = snap.next_name;
    state.rev = snap.rev;
    engine.sync_sharded_pivots(&mut state.store);
    Ok(state.store.len())
}

fn resolve_id(state: &StoreState, name: &str) -> Result<GraphId, (ErrorCode, String)> {
    state.names.get(name).copied().ok_or_else(|| {
        (
            ErrorCode::UnknownGraph,
            format!("no stored graph named {name:?}"),
        )
    })
}

fn resolve<'a>(state: &'a StoreState, r: &'a GraphRef) -> Result<&'a Graph, (ErrorCode, String)> {
    match r {
        GraphRef::Inline(g) => Ok(g),
        GraphRef::Name(name) => {
            let id = resolve_id(state, name)?;
            state
                .store
                .get(id)
                .ok_or_else(|| (ErrorCode::UnknownGraph, format!("stale name {name:?}")))
        }
    }
}

fn named_neighbors(
    state: &StoreState,
    neighbors: impl Iterator<Item = (GraphId, f64)>,
) -> Vec<WireNeighbor> {
    neighbors
        .map(|(id, ged)| WireNeighbor {
            name: state.ids[&id].clone(),
            ged,
        })
        .collect()
}
