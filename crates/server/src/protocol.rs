//! The `ged-served` wire protocol: typed request and response messages.
//!
//! The protocol is line-delimited JSON — exactly one request object per
//! line in, one response object per line out, over stdin/stdout or a Unix
//! domain socket. Like the rest of the workspace the codec is hand-rolled
//! ([`crate::codec`], on `ged_graph::io::Reader`).
//!
//! Every request carries the protocol version `"v"` (currently
//! [`PROTOCOL_VERSION`]), a client-chosen `"id"` echoed verbatim in the
//! response, and an `"op"`. Every response echoes `"v"` and `"id"` and
//! adds `"ok"`, the server's mutation counter `"rev"` (see
//! [`Response::rev`]), and a `"type"`-tagged payload.
//!
//! Members of every object may come in any order, with whitespace between
//! tokens; the encoders write them in the order shown below. Each object
//! takes exactly the members shown for its op or type: a missing required
//! member, a repeated member, and a member the op (or type) does not
//! define, even one another op uses, are all rejected. A rejected request
//! is answered with a `parse` error that echoes the request's `"id"`
//! whenever the parser had read it before the error, and `""` otherwise.
//! Numbers must fit their field: `u64` counts, `u32` labels, finite `f64`
//! reals.
//!
//! ```text
//! request  := {"v":1,"id":STR,"op":OP ...op fields...}
//! response := {"v":1,"id":STR,"ok":BOOL,"rev":U64,"type":TYPE ...}
//! graphref := STR | graph            (stored name, or inline graph)
//! graph    := {"labels":[U32,...],"edges":[[U32,U32],...]}
//! ```
//!
//! Requests (`[...]` marks an optional member):
//!
//! ```text
//! {"v":1,"id":I,"op":"ping"}
//! {"v":1,"id":I,"op":"stats"}
//! {"v":1,"id":I,"op":"shutdown"}
//! {"v":1,"id":I,"op":"insert_graph","graph":GRAPH}
//! {"v":1,"id":I,"op":"remove_graph","name":STR}
//! {"v":1,"id":I,"op":"predict","g1":REF,"g2":REF[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"edit_path","g1":REF,"g2":REF[,"k":U64][,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"top_k","query":REF,"k":U64[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"range","query":REF,"tau":F64[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"range_exact","query":REF,"tau":F64[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"matrix"[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"self_join","tau":F64[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"join","graphs":[GRAPH,...],"tau":F64[,"deadline_ms":U64]}
//! {"v":1,"id":I,"op":"snapshot"[,"path":STR]}
//! {"v":1,"id":I,"op":"load"[,"path":STR]}
//! ```
//!
//! Stored graphs are addressed by server-assigned names `"g0"`, `"g1"`,
//! ... (monotonic, never reused), minted by `insert_graph` and returned
//! in its response. Raw [`ged_graph::GraphId`]s are process-local and
//! never cross the wire.
//!
//! `snapshot` persists the sharded store (plus the name table) to disk
//! and `load` replaces the store from such a file; both default to the
//! path the daemon was started with (`ged-served --store PATH`) when the
//! request carries no `"path"`. The on-disk shape wraps the
//! `ged_graph::shard::ShardedStore` snapshot grammar:
//!
//! ```text
//! server-snapshot := {"schema":1,"rev":U64,"next_name":U64,
//!                     "names":[STR,...],"store":SNAPSHOT}
//! ```
//!
//! with `"names"` listing every stored graph's protocol name in
//! ascending id order (one per store entry, zipped back on load).

use ged_graph::Graph;
use std::fmt;

/// The protocol version this build speaks. Requests with any other
/// version are rejected with [`ErrorCode::Protocol`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on the byte length of one request line (newline excluded).
/// Longer lines are rejected with [`ErrorCode::Oversized`] without being
/// parsed, bounding per-request memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A graph argument of a query: either the name of a stored graph or an
/// inline graph payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphRef {
    /// A server-assigned stored-graph name (`"g0"`, `"g1"`, ...).
    Name(String),
    /// An inline graph, parsed by the `ged_graph::io` grammar.
    Inline(Graph),
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Client-chosen id, echoed in the response.
        id: String,
    },
    /// Server introspection snapshot.
    Stats {
        /// Client-chosen id, echoed in the response.
        id: String,
    },
    /// Drain in-flight requests, answer, and stop serving.
    Shutdown {
        /// Client-chosen id, echoed in the response.
        id: String,
    },
    /// Insert a graph into the store; the response carries its name.
    InsertGraph {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The graph to insert.
        graph: Graph,
    },
    /// Remove a stored graph by name.
    RemoveGraph {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// Name of the graph to remove.
        name: String,
    },
    /// Estimate the GED of two graphs.
    Predict {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// First graph.
        g1: GraphRef,
        /// Second graph.
        g2: GraphRef,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Produce a feasible edit path for two graphs.
    EditPath {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// Source graph.
        g1: GraphRef,
        /// Target graph.
        g2: GraphRef,
        /// Optional search effort (beam width / k-best candidates).
        k: Option<u64>,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// The `k` stored graphs nearest to `query`.
    TopK {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The query graph.
        query: GraphRef,
        /// How many neighbors to return.
        k: u64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Every stored graph with estimated GED ≤ τ.
    Range {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The query graph.
        query: GraphRef,
        /// The GED threshold τ.
        tau: f64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Every stored graph with **exact** GED ≤ τ.
    RangeExact {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The query graph.
        query: GraphRef,
        /// The GED threshold τ.
        tau: f64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// The full pairwise distance matrix of the store.
    Matrix {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Every unordered pair of stored graphs with **exact** GED ≤ τ —
    /// the GED self-join ([`ged_core::engine::GedQuery::SelfJoin`]).
    SelfJoin {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The GED threshold τ.
        tau: f64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Every (query graph, stored graph) pair with **exact** GED ≤ τ —
    /// a cross-store join of an inline query batch against the store
    /// ([`ged_core::engine::GedQuery::Join`]).
    Join {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// The inline query batch (the join's left side), addressed in
        /// responses by position as `"q0"`, `"q1"`, ...
        graphs: Vec<Graph>,
        /// The GED threshold τ.
        tau: f64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Persist the store (and name table) to a snapshot file.
    Snapshot {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// Target path; defaults to the daemon's `--store` path.
        path: Option<String>,
    },
    /// Replace the store (and name table) from a snapshot file.
    Load {
        /// Client-chosen id, echoed in the response.
        id: String,
        /// Source path; defaults to the daemon's `--store` path.
        path: Option<String>,
    },
}

impl Request {
    /// The client-chosen id of this request.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::InsertGraph { id, .. }
            | Request::RemoveGraph { id, .. }
            | Request::Predict { id, .. }
            | Request::EditPath { id, .. }
            | Request::TopK { id, .. }
            | Request::Range { id, .. }
            | Request::RangeExact { id, .. }
            | Request::Matrix { id, .. }
            | Request::SelfJoin { id, .. }
            | Request::Join { id, .. }
            | Request::Snapshot { id, .. }
            | Request::Load { id, .. } => id,
        }
    }
}

/// Typed protocol error codes (the `"code"` field of an error response).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse.
    Parse,
    /// A request of another protocol version: a well-formed `"v"` other
    /// than [`PROTOCOL_VERSION`].
    Protocol,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// A graph name did not resolve in the store.
    UnknownGraph,
    /// An input graph has no nodes.
    EmptyGraph,
    /// A zero `k` / search budget.
    InvalidK,
    /// A store-level query against an empty store.
    EmptyStore,
    /// The request is valid but the engine cannot serve it (e.g. edit
    /// paths from a value-only method).
    Unsupported,
    /// Engine-side configuration failure.
    Config,
    /// The per-request deadline elapsed before the result was ready.
    DeadlineExceeded,
    /// Admission control rejected the request: too many in flight.
    Overloaded,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// A snapshot file could not be read, written, or parsed.
    Io,
}

impl ErrorCode {
    /// The wire spelling of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::EmptyGraph => "empty_graph",
            ErrorCode::InvalidK => "invalid_k",
            ErrorCode::EmptyStore => "empty_store",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Config => "config",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Io => "io",
        }
    }

    /// Parses the wire spelling back into the code.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "parse" => ErrorCode::Parse,
            "protocol" => ErrorCode::Protocol,
            "oversized" => ErrorCode::Oversized,
            "unknown_graph" => ErrorCode::UnknownGraph,
            "empty_graph" => ErrorCode::EmptyGraph,
            "invalid_k" => ErrorCode::InvalidK,
            "empty_store" => ErrorCode::EmptyStore,
            "unsupported" => ErrorCode::Unsupported,
            "config" => ErrorCode::Config,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "overloaded" => ErrorCode::Overloaded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "io" => ErrorCode::Io,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One canonical edit operation on the wire
/// (mirrors [`ged_graph::CanonicalOp`]).
///
/// ```text
/// ["relabel",u] | ["insert_node",v] | ["delete_edge",u,v] | ["insert_edge",v,v']
/// ```
pub type WireOp = ged_graph::CanonicalOp;

/// A ranked neighbor on the wire: stored-graph name plus GED estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct WireNeighbor {
    /// Stored-graph name.
    pub name: String,
    /// Bound-refined GED estimate.
    pub ged: f64,
}

/// An exact match on the wire: stored-graph name plus exact GED.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireExactNeighbor {
    /// Stored-graph name.
    pub name: String,
    /// Exact GED (≤ τ).
    pub ged: u64,
}

/// A budget-undecided candidate of a `range_exact` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireUndecided {
    /// Stored-graph name.
    pub name: String,
    /// `Some(ub)` when a pivot certificate proved membership with bound
    /// `ub`; `None` when membership is unknown.
    pub known_match_ub: Option<u64>,
}

/// One join match on the wire: two graph names plus the pair's exact
/// GED. Self-join names are both stored graphs (`"g{n}"`, `a` always
/// the smaller id); in a cross join `a` addresses a position of the
/// request's query batch (`"q{i}"`) and `b` a stored graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireJoinPair {
    /// First graph of the pair.
    pub a: String,
    /// Second graph of the pair.
    pub b: String,
    /// Exact GED (≤ τ).
    pub ged: u64,
}

/// A budget-undecided join pair — same naming convention as
/// [`WireJoinPair`], carrying the membership evidence that survived
/// instead of an exact distance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireJoinUndecided {
    /// First graph of the pair.
    pub a: String,
    /// Second graph of the pair.
    pub b: String,
    /// `Some(ub)` when a pivot certificate proved membership with bound
    /// `ub`; `None` when membership is unknown.
    pub known_match_ub: Option<u64>,
}

/// The server introspection snapshot (`stats` response payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsBody {
    /// Number of stored graphs.
    pub graphs: u64,
    /// The engine's default method, wire-spelled (e.g. `"GEDGW"`).
    pub method: String,
    /// The engine's pivot-table target size.
    pub pivots: u64,
    /// Entries currently in the prediction cache, if caching is on.
    pub cached_predictions: Option<u64>,
    /// Requests currently admitted and executing.
    pub inflight: u64,
    /// The admission-control cap ([`crate::ServerConfig::max_inflight`]).
    pub max_inflight: u64,
}

/// The payload of a response, tagged by the wire `"type"` field.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// `ping` answer.
    Pong,
    /// `stats` answer.
    Stats(StatsBody),
    /// `shutdown` answer: the server has drained and is exiting.
    ShutdownComplete,
    /// `insert_graph` answer: the assigned name.
    Inserted {
        /// The server-assigned name of the new graph.
        name: String,
    },
    /// `remove_graph` answer.
    Removed {
        /// The name that was removed.
        name: String,
    },
    /// `predict` answer.
    Ged {
        /// The GED estimate.
        ged: f64,
    },
    /// `edit_path` answer.
    Path {
        /// The realized path length (feasible upper bound).
        ged: u64,
        /// The node mapping `V1 -> V2` inducing the path.
        mapping: Vec<u32>,
        /// The path as canonical operations.
        ops: Vec<WireOp>,
    },
    /// `top_k` / `range` answer: ranked neighbors.
    Neighbors {
        /// Matches sorted by ascending GED (ties by insertion order).
        neighbors: Vec<WireNeighbor>,
    },
    /// `range_exact` answer.
    ExactMatches {
        /// Every match with its exact GED, in id order.
        matches: Vec<WireExactNeighbor>,
        /// Candidates the verify budget could not resolve.
        undecided: Vec<WireUndecided>,
    },
    /// `matrix` answer.
    Matrix {
        /// Stored-graph names, in matrix position order.
        names: Vec<String>,
        /// The symmetric distance matrix, row-major, one row per name.
        rows: Vec<Vec<f64>>,
    },
    /// `self_join` answer: every stored pair within τ.
    SelfJoin {
        /// Matches in ascending `(a, b)` id order, exact distances.
        pairs: Vec<WireJoinPair>,
        /// Pairs the verify budget could not resolve.
        undecided: Vec<WireJoinUndecided>,
        /// Exact candidate pair count (`n·(n−1)/2`).
        candidates: u64,
        /// Pairs that needed a bounded exact verification — the join
        /// plan's shared work keeps this far below `candidates`.
        verified: u64,
    },
    /// `join` answer: every (query, stored) pair within τ.
    Join {
        /// Matches in ascending (query position, stored id) order.
        pairs: Vec<WireJoinPair>,
        /// Pairs the verify budget could not resolve.
        undecided: Vec<WireJoinUndecided>,
        /// Exact candidate pair count (`batch × store`).
        candidates: u64,
        /// Pairs that needed a bounded exact verification.
        verified: u64,
    },
    /// `snapshot` answer: where the store was written.
    Snapshotted {
        /// The path the snapshot was written to.
        path: String,
        /// Number of graphs persisted.
        graphs: u64,
    },
    /// `load` answer: what the store was replaced with.
    Loaded {
        /// The path the snapshot was read from.
        path: String,
        /// Number of graphs restored.
        graphs: u64,
    },
    /// Any failure: a typed code plus a human-readable message.
    Error {
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A response line: the echoed id, the server's mutation counter at the
/// time the request executed, and the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The client-chosen id of the request this answers. Empty when the
    /// request line was too malformed to recover an id.
    pub id: String,
    /// The server's mutation counter: the number of store mutations
    /// applied before this request executed. Mutation responses report
    /// the counter *after* applying themselves, so replaying mutations
    /// in `rev` order against a fresh store and re-running each read
    /// against the state at its `rev` reproduces every response exactly.
    pub rev: u64,
    /// The payload.
    pub body: ResponseBody,
}

impl Response {
    /// `true` iff the body is not an [`ResponseBody::Error`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        !matches!(self.body, ResponseBody::Error { .. })
    }

    /// Convenience constructor for an error response.
    #[must_use]
    pub fn error(id: &str, rev: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Response {
            id: id.to_string(),
            rev,
            body: ResponseBody::Error {
                code,
                message: message.into(),
            },
        }
    }
}
