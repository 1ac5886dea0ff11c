//! Hand-rolled wire codec for the [`crate::protocol`] messages.
//!
//! Both directions are covered — requests and responses, encode and
//! parse — so the same codec serves the daemon and its clients (and lets
//! property tests round-trip every message variant). The grammars are
//! written on [`ged_graph::io::Reader`], the workspace's one JSON reader,
//! and report its structured [`ParseError`]s.

use crate::protocol::{
    ErrorCode, GraphRef, Request, Response, ResponseBody, StatsBody, WireExactNeighbor,
    WireJoinPair, WireJoinUndecided, WireNeighbor, WireUndecided, PROTOCOL_VERSION,
};
use ged_graph::io::{graph_to_json, Members, ParseError, ParseErrorKind, Reader};
use ged_graph::{CanonicalOp, ShardedStore};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` in Rust's shortest round-trip decimal form
/// (valid JSON for finite values; the protocol carries finite numbers
/// only).
fn push_f64(out: &mut String, x: f64) {
    debug_assert!(x.is_finite(), "protocol numbers must be finite");
    let _ = write!(out, "{x}");
}

fn push_graph_ref(out: &mut String, r: &GraphRef) {
    match r {
        GraphRef::Name(n) => push_json_string(out, n),
        GraphRef::Inline(g) => out.push_str(&graph_to_json(g)),
    }
}

fn push_deadline(out: &mut String, deadline_ms: Option<u64>) {
    if let Some(ms) = deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
}

/// Encodes a request as one JSON line (no trailing newline).
#[must_use]
pub fn encode_request(req: &Request) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"v\":{PROTOCOL_VERSION},\"id\":");
    push_json_string(&mut s, req.id());
    s.push_str(",\"op\":");
    match req {
        Request::Ping { .. } => s.push_str("\"ping\""),
        Request::Stats { .. } => s.push_str("\"stats\""),
        Request::Shutdown { .. } => s.push_str("\"shutdown\""),
        Request::InsertGraph { graph, .. } => {
            s.push_str("\"insert_graph\",\"graph\":");
            s.push_str(&graph_to_json(graph));
        }
        Request::RemoveGraph { name, .. } => {
            s.push_str("\"remove_graph\",\"name\":");
            push_json_string(&mut s, name);
        }
        Request::Predict {
            g1,
            g2,
            deadline_ms,
            ..
        } => {
            s.push_str("\"predict\",\"g1\":");
            push_graph_ref(&mut s, g1);
            s.push_str(",\"g2\":");
            push_graph_ref(&mut s, g2);
            push_deadline(&mut s, *deadline_ms);
        }
        Request::EditPath {
            g1,
            g2,
            k,
            deadline_ms,
            ..
        } => {
            s.push_str("\"edit_path\",\"g1\":");
            push_graph_ref(&mut s, g1);
            s.push_str(",\"g2\":");
            push_graph_ref(&mut s, g2);
            if let Some(k) = k {
                let _ = write!(s, ",\"k\":{k}");
            }
            push_deadline(&mut s, *deadline_ms);
        }
        Request::TopK {
            query,
            k,
            deadline_ms,
            ..
        } => {
            s.push_str("\"top_k\",\"query\":");
            push_graph_ref(&mut s, query);
            let _ = write!(s, ",\"k\":{k}");
            push_deadline(&mut s, *deadline_ms);
        }
        Request::Range {
            query,
            tau,
            deadline_ms,
            ..
        } => {
            s.push_str("\"range\",\"query\":");
            push_graph_ref(&mut s, query);
            s.push_str(",\"tau\":");
            push_f64(&mut s, *tau);
            push_deadline(&mut s, *deadline_ms);
        }
        Request::RangeExact {
            query,
            tau,
            deadline_ms,
            ..
        } => {
            s.push_str("\"range_exact\",\"query\":");
            push_graph_ref(&mut s, query);
            s.push_str(",\"tau\":");
            push_f64(&mut s, *tau);
            push_deadline(&mut s, *deadline_ms);
        }
        Request::Matrix { deadline_ms, .. } => {
            s.push_str("\"matrix\"");
            push_deadline(&mut s, *deadline_ms);
        }
        Request::SelfJoin {
            tau, deadline_ms, ..
        } => {
            s.push_str("\"self_join\",\"tau\":");
            push_f64(&mut s, *tau);
            push_deadline(&mut s, *deadline_ms);
        }
        Request::Join {
            graphs,
            tau,
            deadline_ms,
            ..
        } => {
            s.push_str("\"join\",\"graphs\":[");
            for (i, g) in graphs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&graph_to_json(g));
            }
            s.push_str("],\"tau\":");
            push_f64(&mut s, *tau);
            push_deadline(&mut s, *deadline_ms);
        }
        Request::Snapshot { path, .. } => {
            s.push_str("\"snapshot\"");
            if let Some(p) = path {
                s.push_str(",\"path\":");
                push_json_string(&mut s, p);
            }
        }
        Request::Load { path, .. } => {
            s.push_str("\"load\"");
            if let Some(p) = path {
                s.push_str(",\"path\":");
                push_json_string(&mut s, p);
            }
        }
    }
    s.push('}');
    s
}

fn push_ops(out: &mut String, ops: &[CanonicalOp]) {
    out.push('[');
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match op {
            CanonicalOp::Relabel(u) => {
                let _ = write!(out, "[\"relabel\",{u}]");
            }
            CanonicalOp::InsertNode(v) => {
                let _ = write!(out, "[\"insert_node\",{v}]");
            }
            CanonicalOp::DeleteEdge(u, v) => {
                let _ = write!(out, "[\"delete_edge\",{u},{v}]");
            }
            CanonicalOp::InsertEdge(u, v) => {
                let _ = write!(out, "[\"insert_edge\",{u},{v}]");
            }
        }
    }
    out.push(']');
}

/// The shared tail of the `self_join` / `join` response payloads.
fn push_join_body(
    s: &mut String,
    pairs: &[WireJoinPair],
    undecided: &[WireJoinUndecided],
    candidates: u64,
    verified: u64,
) {
    s.push_str(",\"pairs\":[");
    for (i, p) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"a\":");
        push_json_string(s, &p.a);
        s.push_str(",\"b\":");
        push_json_string(s, &p.b);
        let _ = write!(s, ",\"ged\":{}}}", p.ged);
    }
    s.push_str("],\"undecided\":[");
    for (i, u) in undecided.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"a\":");
        push_json_string(s, &u.a);
        s.push_str(",\"b\":");
        push_json_string(s, &u.b);
        s.push_str(",\"known_match_ub\":");
        match u.known_match_ub {
            Some(ub) => {
                let _ = write!(s, "{ub}");
            }
            None => s.push_str("null"),
        }
        s.push('}');
    }
    let _ = write!(s, "],\"candidates\":{candidates},\"verified\":{verified}");
}

/// Encodes a response as one JSON line (no trailing newline).
#[must_use]
pub fn encode_response(resp: &Response) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"v\":{PROTOCOL_VERSION},\"id\":");
    push_json_string(&mut s, &resp.id);
    let _ = write!(s, ",\"ok\":{},\"rev\":{},\"type\":", resp.is_ok(), resp.rev);
    match &resp.body {
        ResponseBody::Pong => s.push_str("\"pong\""),
        ResponseBody::ShutdownComplete => s.push_str("\"shutdown_complete\""),
        ResponseBody::Stats(b) => {
            let _ = write!(s, "\"stats\",\"graphs\":{},\"method\":", b.graphs);
            push_json_string(&mut s, &b.method);
            let _ = write!(s, ",\"pivots\":{},\"cached_predictions\":", b.pivots);
            match b.cached_predictions {
                Some(n) => {
                    let _ = write!(s, "{n}");
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"inflight\":{},\"max_inflight\":{}",
                b.inflight, b.max_inflight
            );
        }
        ResponseBody::Inserted { name } => {
            s.push_str("\"inserted\",\"name\":");
            push_json_string(&mut s, name);
        }
        ResponseBody::Removed { name } => {
            s.push_str("\"removed\",\"name\":");
            push_json_string(&mut s, name);
        }
        ResponseBody::Ged { ged } => {
            s.push_str("\"ged\",\"ged\":");
            push_f64(&mut s, *ged);
        }
        ResponseBody::Path { ged, mapping, ops } => {
            let _ = write!(s, "\"path\",\"ged\":{ged},\"mapping\":[");
            for (i, v) in mapping.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s.push_str("],\"ops\":");
            push_ops(&mut s, ops);
        }
        ResponseBody::Neighbors { neighbors } => {
            s.push_str("\"neighbors\",\"neighbors\":[");
            for (i, n) in neighbors.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"name\":");
                push_json_string(&mut s, &n.name);
                s.push_str(",\"ged\":");
                push_f64(&mut s, n.ged);
                s.push('}');
            }
            s.push(']');
        }
        ResponseBody::ExactMatches { matches, undecided } => {
            s.push_str("\"exact\",\"matches\":[");
            for (i, m) in matches.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"name\":");
                push_json_string(&mut s, &m.name);
                let _ = write!(s, ",\"ged\":{}}}", m.ged);
            }
            s.push_str("],\"undecided\":[");
            for (i, u) in undecided.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"name\":");
                push_json_string(&mut s, &u.name);
                s.push_str(",\"known_match_ub\":");
                match u.known_match_ub {
                    Some(ub) => {
                        let _ = write!(s, "{ub}");
                    }
                    None => s.push_str("null"),
                }
                s.push('}');
            }
            s.push(']');
        }
        ResponseBody::SelfJoin {
            pairs,
            undecided,
            candidates,
            verified,
        } => {
            s.push_str("\"self_join\"");
            push_join_body(&mut s, pairs, undecided, *candidates, *verified);
        }
        ResponseBody::Join {
            pairs,
            undecided,
            candidates,
            verified,
        } => {
            s.push_str("\"join\"");
            push_join_body(&mut s, pairs, undecided, *candidates, *verified);
        }
        ResponseBody::Matrix { names, rows } => {
            s.push_str("\"matrix\",\"names\":[");
            for (i, n) in names.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_string(&mut s, n);
            }
            s.push_str("],\"rows\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('[');
                for (j, x) in row.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    push_f64(&mut s, *x);
                }
                s.push(']');
            }
            s.push(']');
        }
        ResponseBody::Snapshotted { path, graphs } => {
            s.push_str("\"snapshotted\",\"path\":");
            push_json_string(&mut s, path);
            let _ = write!(s, ",\"graphs\":{graphs}");
        }
        ResponseBody::Loaded { path, graphs } => {
            s.push_str("\"loaded\",\"path\":");
            push_json_string(&mut s, path);
            let _ = write!(s, ",\"graphs\":{graphs}");
        }
        ResponseBody::Error { code, message } => {
            s.push_str("\"error\",\"code\":");
            push_json_string(&mut s, code.as_str());
            s.push_str(",\"message\":");
            push_json_string(&mut s, message);
        }
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A request line the codec rejected, with the id it had read by then.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The line's `"id"`, or `""` when the error came before the id was
    /// read.
    pub id: String,
    /// What went wrong, and where.
    pub error: ParseError,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for RequestError {}

impl RequestError {
    /// The code the daemon answers this error with: [`ErrorCode::Protocol`]
    /// for a well-formed `"v"` of another protocol version,
    /// [`ErrorCode::Parse`] for everything else.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        if self.error.kind == VERSION_MISMATCH {
            ErrorCode::Protocol
        } else {
            ErrorCode::Parse
        }
    }
}

/// The error kind of a `"v"` other than [`PROTOCOL_VERSION`].
const VERSION_MISMATCH: ParseErrorKind = ParseErrorKind::Invalid("protocol version");

/// The members of a request: the envelope, then every op's fields.
#[rustfmt::skip]
const REQUEST_KEYS: [&str; 13] = [
    "v", "id", "op", "g1", "g2", "query", "k", "tau", "deadline_ms", "graph", "name", "graphs",
    "path",
];

/// The `"v"` value, which must be [`PROTOCOL_VERSION`].
fn version(r: &mut Reader<'_>) -> Result<(), ParseError> {
    let at = r.next_at();
    if r.u64()? == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(r.err(at, VERSION_MISMATCH))
    }
}

fn string(r: &mut Reader<'_>) -> Result<String, ParseError> {
    r.string().map(Cow::into_owned)
}

fn graph_ref(r: &mut Reader<'_>) -> Result<GraphRef, ParseError> {
    let at = r.next_at();
    match r.peek() {
        Some(b'"') => Ok(GraphRef::Name(string(r)?)),
        Some(b'{') => Ok(GraphRef::Inline(r.graph()?)),
        _ => Err(r.err(at, ParseErrorKind::Invalid("graph reference"))),
    }
}

/// Reads a request; `id` holds the id once read, also when a later part
/// of the line fails.
fn request(r: &mut Reader<'_>, id: &mut Option<String>) -> Result<Request, ParseError> {
    let (mut v, mut op, mut graph, mut name, mut g1, mut g2) = (None, None, None, None, None, None);
    let (mut k, mut query, mut tau, mut graphs, mut path, mut deadline_ms) =
        (None, None, None, None, None, None);
    let m = r.object(&REQUEST_KEYS, |r, key| {
        match key {
            "v" => v = Some(version(r)?),
            "id" => *id = Some(string(r)?),
            "op" => op = Some((r.next_at(), r.string()?)),
            "g1" => g1 = Some(graph_ref(r)?),
            "g2" => g2 = Some(graph_ref(r)?),
            "query" => query = Some(graph_ref(r)?),
            "k" => k = Some(r.u64()?),
            "tau" => tau = Some(r.f64()?),
            "deadline_ms" => deadline_ms = Some(r.u64()?),
            "graph" => graph = Some(r.graph()?),
            "name" => name = Some(string(r)?),
            "graphs" => graphs = Some(r.list(Reader::graph)?),
            _ => path = Some(string(r)?),
        }
        Ok(())
    })?;
    r.end()?;
    m.need(r, v, "\"v\"")?;
    m.need(r, id.as_ref(), "\"id\"")?;
    let (op_at, op) = m.need(r, op, "\"op\"")?;
    // The op's own fields, past the envelope.
    let only = |fields: &[&str]| m.only(r, &REQUEST_KEYS, 3, fields);
    // Each arm checks its members before it takes the id, so an error
    // leaves the id in place for the caller.
    let mut id = || id.take().unwrap_or_default();
    let req = match &*op {
        "ping" => only(&[]).map(|()| Request::Ping { id: id() })?,
        "stats" => only(&[]).map(|()| Request::Stats { id: id() })?,
        "shutdown" => only(&[]).map(|()| Request::Shutdown { id: id() })?,
        "insert_graph" => {
            only(&["graph"])?;
            let graph = m.need(r, graph, "\"graph\"")?;
            Request::InsertGraph { id: id(), graph }
        }
        "remove_graph" => {
            only(&["name"])?;
            let name = m.need(r, name, "\"name\"")?;
            Request::RemoveGraph { id: id(), name }
        }
        "predict" => {
            only(&["g1", "g2", "deadline_ms"])?;
            let (g1, g2) = (m.need(r, g1, "\"g1\"")?, m.need(r, g2, "\"g2\"")?);
            Request::Predict {
                id: id(),
                g1,
                g2,
                deadline_ms,
            }
        }
        "edit_path" => {
            only(&["g1", "g2", "k", "deadline_ms"])?;
            let (g1, g2) = (m.need(r, g1, "\"g1\"")?, m.need(r, g2, "\"g2\"")?);
            Request::EditPath {
                id: id(),
                g1,
                g2,
                k,
                deadline_ms,
            }
        }
        "top_k" => {
            only(&["query", "k", "deadline_ms"])?;
            let (query, k) = (m.need(r, query, "\"query\"")?, m.need(r, k, "\"k\"")?);
            Request::TopK {
                id: id(),
                query,
                k,
                deadline_ms,
            }
        }
        "range" | "range_exact" => {
            only(&["query", "tau", "deadline_ms"])?;
            let (query, tau) = (m.need(r, query, "\"query\"")?, m.need(r, tau, "\"tau\"")?);
            let id = id();
            if &*op == "range" {
                Request::Range {
                    id,
                    query,
                    tau,
                    deadline_ms,
                }
            } else {
                Request::RangeExact {
                    id,
                    query,
                    tau,
                    deadline_ms,
                }
            }
        }
        "matrix" => {
            only(&["deadline_ms"])?;
            Request::Matrix {
                id: id(),
                deadline_ms,
            }
        }
        "self_join" => {
            only(&["tau", "deadline_ms"])?;
            let tau = m.need(r, tau, "\"tau\"")?;
            Request::SelfJoin {
                id: id(),
                tau,
                deadline_ms,
            }
        }
        "join" => {
            only(&["graphs", "tau", "deadline_ms"])?;
            let (graphs, tau) = (m.need(r, graphs, "\"graphs\"")?, m.need(r, tau, "\"tau\"")?);
            Request::Join {
                id: id(),
                graphs,
                tau,
                deadline_ms,
            }
        }
        "snapshot" => only(&["path"]).map(|()| Request::Snapshot { id: id(), path })?,
        "load" => only(&["path"]).map(|()| Request::Load { id: id(), path })?,
        _ => return Err(r.err(op_at, ParseErrorKind::Invalid("op"))),
    };
    Ok(req)
}

/// The members of a response: the envelope, then every type's fields.
#[rustfmt::skip]
const RESPONSE_KEYS: [&str; 26] = [
    "v", "id", "ok", "rev", "type", "graphs", "method", "pivots", "cached_predictions",
    "inflight", "max_inflight", "name", "ged", "mapping", "ops", "neighbors", "matches",
    "undecided", "pairs", "candidates", "verified", "names", "rows", "path", "code", "message",
];

fn edit_op(r: &mut Reader<'_>) -> Result<CanonicalOp, ParseError> {
    r.expect("[")?;
    let at = r.next_at();
    let kind = r.string()?;
    r.expect(",")?;
    let a = r.u32()?;
    let op = match &*kind {
        "relabel" => CanonicalOp::Relabel(a),
        "insert_node" => CanonicalOp::InsertNode(a),
        "delete_edge" | "insert_edge" => {
            r.expect(",")?;
            let b = r.u32()?;
            if kind == "delete_edge" {
                CanonicalOp::DeleteEdge(a, b)
            } else {
                CanonicalOp::InsertEdge(a, b)
            }
        }
        _ => return Err(r.err(at, ParseErrorKind::Invalid("edit op"))),
    };
    r.expect("]")?;
    Ok(op)
}

/// A `{"name":STR,"ged":NUM}` entry, its `ged` read by `ged`.
fn named<'a, T>(
    r: &mut Reader<'a>,
    ged: fn(&mut Reader<'a>) -> Result<T, ParseError>,
) -> Result<(String, T), ParseError> {
    let (mut name, mut value) = (None, None);
    let m = r.object(&["name", "ged"], |r, key| {
        if key == "name" {
            name = Some(string(r)?);
        } else {
            value = Some(ged(r)?);
        }
        Ok(())
    })?;
    Ok((m.need(r, name, "\"name\"")?, m.need(r, value, "\"ged\"")?))
}

fn join_pair(r: &mut Reader<'_>) -> Result<WireJoinPair, ParseError> {
    let (mut a, mut b, mut ged) = (None, None, None);
    let m = r.object(&["a", "b", "ged"], |r, key| {
        match key {
            "a" => a = Some(string(r)?),
            "b" => b = Some(string(r)?),
            _ => ged = Some(r.u64()?),
        }
        Ok(())
    })?;
    let (a, b) = (m.need(r, a, "\"a\"")?, m.need(r, b, "\"b\"")?);
    let ged = m.need(r, ged, "\"ged\"")?;
    Ok(WireJoinPair { a, b, ged })
}

const UNDECIDED_KEYS: [&str; 4] = ["name", "a", "b", "known_match_ub"];

/// An `undecided` entry: `{"name","known_match_ub"}` in an `exact`
/// response, `{"a","b","known_match_ub"}` in a join. The response's type
/// may come after the list, so entries are read with every key and
/// shaped once it is known.
struct Undecided {
    m: Members<4>,
    name: Option<String>,
    a: Option<String>,
    b: Option<String>,
    ub: Option<Option<u64>>,
}

fn undecided(r: &mut Reader<'_>) -> Result<Undecided, ParseError> {
    let (mut name, mut a, mut b, mut ub) = (None, None, None, None);
    let m = r.object(&UNDECIDED_KEYS, |r, key| {
        match key {
            "name" => name = Some(string(r)?),
            "a" => a = Some(string(r)?),
            "b" => b = Some(string(r)?),
            _ => ub = Some(r.nullable(Reader::u64)?),
        }
        Ok(())
    })?;
    Ok(Undecided { m, name, a, b, ub })
}

impl Undecided {
    /// The `exact` shape.
    fn named(self, r: &Reader<'_>) -> Result<WireUndecided, ParseError> {
        self.m
            .only(r, &UNDECIDED_KEYS, 0, &["name", "known_match_ub"])?;
        let name = self.m.need(r, self.name, "\"name\"")?;
        let known_match_ub = self.m.need(r, self.ub, "\"known_match_ub\"")?;
        Ok(WireUndecided {
            name,
            known_match_ub,
        })
    }

    /// The join shape.
    fn pair(self, r: &Reader<'_>) -> Result<WireJoinUndecided, ParseError> {
        self.m
            .only(r, &UNDECIDED_KEYS, 0, &["a", "b", "known_match_ub"])?;
        let (a, b) = (
            self.m.need(r, self.a, "\"a\"")?,
            self.m.need(r, self.b, "\"b\"")?,
        );
        let known_match_ub = self.m.need(r, self.ub, "\"known_match_ub\"")?;
        Ok(WireJoinUndecided {
            a,
            b,
            known_match_ub,
        })
    }
}

#[allow(clippy::too_many_lines)]
fn response(r: &mut Reader<'_>) -> Result<Response, ParseError> {
    let (mut v, mut id, mut ok, mut rev, mut ty) = (None, None, None, None, None);
    let (mut graphs, mut method, mut pivots, mut cached) = (None, None, None, None);
    let (mut inflight, mut max_inflight, mut name, mut ged) = (None, None, None, None);
    let (mut mapping, mut ops, mut neighbors, mut matches) = (None, None, None, None);
    let (mut undecided_list, mut pairs, mut candidates, mut verified) = (None, None, None, None);
    let (mut names, mut rows, mut path, mut code, mut message) = (None, None, None, None, None);
    let m = r.object(&RESPONSE_KEYS, |r, key| {
        match key {
            "v" => v = Some(version(r)?),
            "id" => id = Some(string(r)?),
            "ok" => {
                let at = r.next_at();
                let flag = ["false", "true"].iter().position(|t| r.try_token(t));
                ok = Some(flag.ok_or_else(|| r.err(at, ParseErrorKind::Invalid("ok flag")))? == 1);
            }
            "rev" => rev = Some(r.u64()?),
            "type" => ty = Some((r.next_at(), r.string()?)),
            "graphs" => graphs = Some(r.u64()?),
            "method" => method = Some(string(r)?),
            "pivots" => pivots = Some(r.u64()?),
            "cached_predictions" => cached = Some(r.nullable(Reader::u64)?),
            "inflight" => inflight = Some(r.u64()?),
            "max_inflight" => max_inflight = Some(r.u64()?),
            "name" => name = Some(string(r)?),
            "ged" => ged = Some((r.next_at(), r.number()?)),
            "mapping" => mapping = Some(r.list(Reader::u32)?),
            "ops" => ops = Some(r.list(edit_op)?),
            "neighbors" => neighbors = Some(r.list(|r| named(r, Reader::f64))?),
            "matches" => matches = Some(r.list(|r| named(r, Reader::u64))?),
            "undecided" => undecided_list = Some(r.list(undecided)?),
            "pairs" => pairs = Some(r.list(join_pair)?),
            "candidates" => candidates = Some(r.u64()?),
            "verified" => verified = Some(r.u64()?),
            "names" => names = Some(r.list(string)?),
            "rows" => rows = Some(r.list(|r| r.list(Reader::f64))?),
            "path" => path = Some(string(r)?),
            "code" => code = Some((r.next_at(), r.string()?)),
            _ => message = Some(string(r)?),
        }
        Ok(())
    })?;
    r.end()?;
    m.need(r, v, "\"v\"")?;
    let id = m.need(r, id, "\"id\"")?;
    let ok = m.need(r, ok, "\"ok\"")?;
    let rev = m.need(r, rev, "\"rev\"")?;
    let (ty_at, ty) = m.need(r, ty, "\"type\"")?;
    let r = &*r;
    // The type's own fields, past the envelope.
    let only = |fields: &[&str]| m.only(r, &RESPONSE_KEYS, 5, fields);
    let undecided_list = || m.need(r, undecided_list, "\"undecided\"");
    let body = match &*ty {
        "pong" => only(&[]).map(|()| ResponseBody::Pong)?,
        "shutdown_complete" => only(&[]).map(|()| ResponseBody::ShutdownComplete)?,
        "stats" => {
            only(&[
                "graphs",
                "method",
                "pivots",
                "cached_predictions",
                "inflight",
                "max_inflight",
            ])?;
            ResponseBody::Stats(StatsBody {
                graphs: m.need(r, graphs, "\"graphs\"")?,
                method: m.need(r, method, "\"method\"")?,
                pivots: m.need(r, pivots, "\"pivots\"")?,
                cached_predictions: m.need(r, cached, "\"cached_predictions\"")?,
                inflight: m.need(r, inflight, "\"inflight\"")?,
                max_inflight: m.need(r, max_inflight, "\"max_inflight\"")?,
            })
        }
        "inserted" | "removed" => {
            only(&["name"])?;
            let name = m.need(r, name, "\"name\"")?;
            if &*ty == "inserted" {
                ResponseBody::Inserted { name }
            } else {
                ResponseBody::Removed { name }
            }
        }
        "ged" => {
            only(&["ged"])?;
            let (at, ged) = m.need(r, ged, "\"ged\"")?;
            ResponseBody::Ged {
                ged: r.f64_token(at, ged)?,
            }
        }
        "path" => {
            only(&["ged", "mapping", "ops"])?;
            let (at, ged) = m.need(r, ged, "\"ged\"")?;
            ResponseBody::Path {
                ged: r.int_token(at, ged)?,
                mapping: m.need(r, mapping, "\"mapping\"")?,
                ops: m.need(r, ops, "\"ops\"")?,
            }
        }
        "neighbors" => {
            only(&["neighbors"])?;
            let list = m.need(r, neighbors, "\"neighbors\"")?.into_iter();
            let neighbors = list.map(|(name, ged)| WireNeighbor { name, ged }).collect();
            ResponseBody::Neighbors { neighbors }
        }
        "exact" => {
            only(&["matches", "undecided"])?;
            let list = m.need(r, matches, "\"matches\"")?.into_iter();
            let matches = list
                .map(|(name, ged)| WireExactNeighbor { name, ged })
                .collect();
            let undecided = undecided_list()?.into_iter().map(|u| u.named(r));
            let undecided = undecided.collect::<Result<_, _>>()?;
            ResponseBody::ExactMatches { matches, undecided }
        }
        "self_join" | "join" => {
            only(&["pairs", "undecided", "candidates", "verified"])?;
            let pairs = m.need(r, pairs, "\"pairs\"")?;
            let undecided = undecided_list()?.into_iter().map(|u| u.pair(r));
            let undecided = undecided.collect::<Result<_, _>>()?;
            let candidates = m.need(r, candidates, "\"candidates\"")?;
            let verified = m.need(r, verified, "\"verified\"")?;
            if &*ty == "self_join" {
                ResponseBody::SelfJoin {
                    pairs,
                    undecided,
                    candidates,
                    verified,
                }
            } else {
                ResponseBody::Join {
                    pairs,
                    undecided,
                    candidates,
                    verified,
                }
            }
        }
        "matrix" => {
            only(&["names", "rows"])?;
            ResponseBody::Matrix {
                names: m.need(r, names, "\"names\"")?,
                rows: m.need(r, rows, "\"rows\"")?,
            }
        }
        "snapshotted" | "loaded" => {
            only(&["path", "graphs"])?;
            let path = m.need(r, path, "\"path\"")?;
            let graphs = m.need(r, graphs, "\"graphs\"")?;
            if &*ty == "snapshotted" {
                ResponseBody::Snapshotted { path, graphs }
            } else {
                ResponseBody::Loaded { path, graphs }
            }
        }
        "error" => {
            only(&["code", "message"])?;
            let (at, code) = m.need(r, code, "\"code\"")?;
            let code = ErrorCode::from_str_opt(&code)
                .ok_or_else(|| r.err(at, ParseErrorKind::Invalid("error code")))?;
            let message = m.need(r, message, "\"message\"")?;
            ResponseBody::Error { code, message }
        }
        _ => return Err(r.err(ty_at, ParseErrorKind::Invalid("response type"))),
    };
    let resp = Response { id, rev, body };
    if ok != resp.is_ok() {
        return Err(r.err(ty_at, ParseErrorKind::Invalid("ok flag")));
    }
    Ok(resp)
}

/// Parses one request line. Members may come in any order; see the
/// [`crate::protocol`] docs for the key policy.
///
/// # Errors
/// Returns a [`RequestError`] if the line is not a well-formed request of
/// the current protocol version, carrying the request's id if the parser
/// had read it.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let mut id = None;
    request(&mut Reader::new(line), &mut id).map_err(|error| RequestError {
        id: id.unwrap_or_default(),
        error,
    })
}

/// Parses one response line (members in any order).
///
/// # Errors
/// Returns a [`ParseError`] if the line is not a well-formed response of
/// the current protocol version.
pub fn parse_response(line: &str) -> Result<Response, ParseError> {
    response(&mut Reader::new(line))
}

// ---------------------------------------------------------------------------
// Server snapshots (the `snapshot` / `load` on-disk wrapper)
// ---------------------------------------------------------------------------

/// The parsed contents of a server snapshot file: the protocol mutation
/// counter, the next name to mint, every stored graph's name in
/// ascending id order, and the sharded store itself.
#[derive(Debug)]
pub struct ServerSnapshot {
    /// The server's mutation counter at save time.
    pub rev: u64,
    /// The next `g{n}` name to mint.
    pub next_name: u64,
    /// Protocol names, one per store entry, in ascending id order.
    pub names: Vec<String>,
    /// The store, ids and pivot blocks included.
    pub store: ShardedStore,
}

/// Encodes a server snapshot (see the [`crate::protocol`] docs for the
/// grammar). `names` must be in ascending id order — the order
/// [`ged_graph::ShardedStore::ids`] reports.
#[must_use]
pub fn encode_server_snapshot(
    rev: u64,
    next_name: u64,
    names: &[String],
    store: &ShardedStore,
) -> String {
    let mut s = format!("{{\"schema\":1,\"rev\":{rev},\"next_name\":{next_name},\"names\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_string(&mut s, name);
    }
    s.push_str("],\"store\":");
    s.push_str(&store.to_json());
    s.push('}');
    s
}

/// Parses a server snapshot file, reading the `"store"` payload with the
/// `ged_graph::shard` snapshot grammar (members in any order).
///
/// # Errors
/// Returns a [`ParseError`] on any grammar violation, including a name
/// table whose length disagrees with the store population.
pub fn parse_server_snapshot(s: &str) -> Result<ServerSnapshot, ParseError> {
    let r = &mut Reader::new(s);
    let (mut schema, mut rev, mut next_name, mut names, mut store) = (None, None, None, None, None);
    let mut names_at = 0;
    let keys = ["schema", "rev", "next_name", "names", "store"];
    let m = r.object(&keys, |r, key| {
        match key {
            "schema" => {
                let at = r.next_at();
                if r.u64()? != 1 {
                    return Err(r.err(at, ParseErrorKind::Invalid("snapshot schema")));
                }
                schema = Some(());
            }
            "rev" => rev = Some(r.u64()?),
            "next_name" => next_name = Some(r.u64()?),
            "names" => {
                names_at = r.next_at();
                names = Some(r.list(string)?);
            }
            _ => store = Some(ShardedStore::read(r)?),
        }
        Ok(())
    })?;
    r.end()?;
    m.need(r, schema, "\"schema\"")?;
    let (rev, next_name) = (
        m.need(r, rev, "\"rev\"")?,
        m.need(r, next_name, "\"next_name\"")?,
    );
    let (names, store) = (
        m.need(r, names, "\"names\"")?,
        m.need(r, store, "\"store\"")?,
    );
    if names.len() != store.len() {
        return Err(r.err(names_at, ParseErrorKind::Invalid("name table")));
    }
    Ok(ServerSnapshot {
        rev,
        next_name,
        names,
        store,
    })
}
