//! Hand-rolled wire codec for the [`crate::protocol`] messages.
//!
//! Both directions are covered — requests and responses, encode and
//! parse — so the same codec serves the daemon and its clients (and lets
//! property tests round-trip every message variant). The parser is the
//! same fixed-grammar recursive descent as `ged_graph::io` (which it
//! delegates inline graph payloads to via
//! [`ged_graph::io::graph_from_json_prefix`]), and reports the same
//! structured [`ParseError`]s.

use crate::protocol::{
    ErrorCode, GraphRef, Request, Response, ResponseBody, StatsBody, WireExactNeighbor,
    WireJoinPair, WireJoinUndecided, WireNeighbor, WireUndecided, PROTOCOL_VERSION,
};
use ged_graph::io::{graph_from_json_prefix, graph_to_json, ParseError, ParseErrorKind};
use ged_graph::{CanonicalOp, ShardedStore};
use std::fmt::Write as _;

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

/// Recursive-descent parser over one wire line (same style as the
/// `ged_graph::io` parser; wire lines contain no raw newlines, so error
/// positions are always line 1).
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            input: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, at: usize, kind: ParseErrorKind) -> ParseError {
        ParseError {
            at,
            line: 1,
            column: at + 1,
            kind,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, token: &'static str) -> Result<(), ParseError> {
        self.skip_ws();
        let end = self.pos + token.len();
        if end <= self.bytes.len() && &self.bytes[self.pos..end] == token.as_bytes() {
            self.pos = end;
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::Expected(token)))
        }
    }

    /// Consumes `token` if it is next; leaves the position alone if not.
    fn try_token(&mut self, token: &str) -> bool {
        self.skip_ws();
        let end = self.pos + token.len();
        if end <= self.bytes.len() && &self.bytes[self.pos..end] == token.as_bytes() {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn u64(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err(start, ParseErrorKind::ExpectedNumber));
        }
        self.input[start..self.pos]
            .parse::<u64>()
            .map_err(|_| self.err(start, ParseErrorKind::NumberOverflow))
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        let start = {
            self.skip_ws();
            self.pos
        };
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.err(start, ParseErrorKind::NumberOverflow))
    }

    fn f64(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err(start, ParseErrorKind::ExpectedNumber));
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err(start, ParseErrorKind::ExpectedNumber))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err(at, ParseErrorKind::Expected("\"")));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err(self.pos, ParseErrorKind::Invalid("string escape")));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let code = self
                                .input
                                .get(self.pos..end)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| {
                                    self.err(at, ParseErrorKind::Invalid("unicode escape"))
                                })?;
                            self.pos = end;
                            out.push(code);
                        }
                        _ => return Err(self.err(at, ParseErrorKind::Invalid("string escape"))),
                    }
                }
                _ => {
                    // Copy the full UTF-8 scalar starting at `at`.
                    let ch_end = (at + 1..=self.bytes.len())
                        .find(|&e| self.input.is_char_boundary(e))
                        .expect("input is valid UTF-8");
                    out.push_str(&self.input[at..ch_end]);
                    self.pos = ch_end;
                }
            }
        }
    }

    /// An inline graph object, delegated to the `ged_graph::io` grammar.
    fn graph(&mut self) -> Result<ged_graph::Graph, ParseError> {
        self.skip_ws();
        let base = self.pos;
        let (g, used) = graph_from_json_prefix(&self.input[base..]).map_err(|e| ParseError {
            at: base + e.at,
            line: 1,
            column: base + e.at + 1,
            kind: e.kind,
        })?;
        self.pos = base + used;
        Ok(g)
    }

    fn graph_ref(&mut self) -> Result<GraphRef, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(GraphRef::Name(self.string()?)),
            Some(b'{') => Ok(GraphRef::Inline(self.graph()?)),
            _ => Err(self.err(self.pos, ParseErrorKind::Invalid("graph reference"))),
        }
    }

    /// `,"name":<u64>` if present.
    fn opt_u64_field(&mut self, comma_name_colon: &str) -> Result<Option<u64>, ParseError> {
        if self.try_token(comma_name_colon) {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::TrailingInput))
        }
    }

    fn envelope(&mut self) -> Result<String, ParseError> {
        self.expect("{")?;
        self.expect("\"v\"")?;
        self.expect(":")?;
        let at = {
            self.skip_ws();
            self.pos
        };
        let v = self.u64()?;
        if v != PROTOCOL_VERSION {
            return Err(self.err(at, ParseErrorKind::Invalid("protocol version")));
        }
        self.expect(",")?;
        self.expect("\"id\"")?;
        self.expect(":")?;
        self.string()
    }

    fn request(&mut self) -> Result<Request, ParseError> {
        let id = self.envelope()?;
        self.expect(",")?;
        self.expect("\"op\"")?;
        self.expect(":")?;
        let op_at = {
            self.skip_ws();
            self.pos
        };
        let op = self.string()?;
        let req = match op.as_str() {
            "ping" => Request::Ping { id },
            "stats" => Request::Stats { id },
            "shutdown" => Request::Shutdown { id },
            "insert_graph" => {
                self.expect(",")?;
                self.expect("\"graph\"")?;
                self.expect(":")?;
                let graph = self.graph()?;
                Request::InsertGraph { id, graph }
            }
            "remove_graph" => {
                self.expect(",")?;
                self.expect("\"name\"")?;
                self.expect(":")?;
                let name = self.string()?;
                Request::RemoveGraph { id, name }
            }
            "predict" | "edit_path" => {
                self.expect(",")?;
                self.expect("\"g1\"")?;
                self.expect(":")?;
                let g1 = self.graph_ref()?;
                self.expect(",")?;
                self.expect("\"g2\"")?;
                self.expect(":")?;
                let g2 = self.graph_ref()?;
                if op == "predict" {
                    let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                    Request::Predict {
                        id,
                        g1,
                        g2,
                        deadline_ms,
                    }
                } else {
                    let k = self.opt_u64_field(",\"k\":")?;
                    let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                    Request::EditPath {
                        id,
                        g1,
                        g2,
                        k,
                        deadline_ms,
                    }
                }
            }
            "top_k" => {
                self.expect(",")?;
                self.expect("\"query\"")?;
                self.expect(":")?;
                let query = self.graph_ref()?;
                self.expect(",")?;
                self.expect("\"k\"")?;
                self.expect(":")?;
                let k = self.u64()?;
                let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                Request::TopK {
                    id,
                    query,
                    k,
                    deadline_ms,
                }
            }
            "range" | "range_exact" => {
                self.expect(",")?;
                self.expect("\"query\"")?;
                self.expect(":")?;
                let query = self.graph_ref()?;
                self.expect(",")?;
                self.expect("\"tau\"")?;
                self.expect(":")?;
                let tau = self.f64()?;
                let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                if op == "range" {
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
                let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                Request::Matrix { id, deadline_ms }
            }
            "self_join" => {
                self.expect(",")?;
                self.expect("\"tau\"")?;
                self.expect(":")?;
                let tau = self.f64()?;
                let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                Request::SelfJoin {
                    id,
                    tau,
                    deadline_ms,
                }
            }
            "join" => {
                self.expect(",")?;
                self.expect("\"graphs\"")?;
                self.expect(":")?;
                let graphs = self.list(Self::graph)?;
                self.expect(",")?;
                self.expect("\"tau\"")?;
                self.expect(":")?;
                let tau = self.f64()?;
                let deadline_ms = self.opt_u64_field(",\"deadline_ms\":")?;
                Request::Join {
                    id,
                    graphs,
                    tau,
                    deadline_ms,
                }
            }
            "snapshot" | "load" => {
                let path = if self.try_token(",\"path\":") {
                    Some(self.string()?)
                } else {
                    None
                };
                if op == "snapshot" {
                    Request::Snapshot { id, path }
                } else {
                    Request::Load { id, path }
                }
            }
            _ => return Err(self.err(op_at, ParseErrorKind::Invalid("op"))),
        };
        self.expect("}")?;
        self.end()?;
        Ok(req)
    }

    /// `{"name":S,"ged":<num>}`-shaped entries.
    fn named_f64(&mut self) -> Result<WireNeighbor, ParseError> {
        self.expect("{")?;
        self.expect("\"name\"")?;
        self.expect(":")?;
        let name = self.string()?;
        self.expect(",")?;
        self.expect("\"ged\"")?;
        self.expect(":")?;
        let ged = self.f64()?;
        self.expect("}")?;
        Ok(WireNeighbor { name, ged })
    }

    /// `[item, item, ...]` with `item` produced by `f`.
    fn list<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.expect("[")?;
        let mut out = Vec::new();
        if self.try_token("]") {
            return Ok(out);
        }
        loop {
            out.push(f(self)?);
            if !self.try_token(",") {
                self.expect("]")?;
                return Ok(out);
            }
        }
    }

    fn op(&mut self) -> Result<CanonicalOp, ParseError> {
        self.expect("[")?;
        let at = {
            self.skip_ws();
            self.pos
        };
        let kind = self.string()?;
        self.expect(",")?;
        let a = self.u32()?;
        let op = match kind.as_str() {
            "relabel" => CanonicalOp::Relabel(a),
            "insert_node" => CanonicalOp::InsertNode(a),
            "delete_edge" | "insert_edge" => {
                self.expect(",")?;
                let b = self.u32()?;
                if kind == "delete_edge" {
                    CanonicalOp::DeleteEdge(a, b)
                } else {
                    CanonicalOp::InsertEdge(a, b)
                }
            }
            _ => return Err(self.err(at, ParseErrorKind::Invalid("edit op"))),
        };
        self.expect("]")?;
        Ok(op)
    }

    fn response(&mut self) -> Result<Response, ParseError> {
        let id = self.envelope()?;
        self.expect(",")?;
        self.expect("\"ok\"")?;
        self.expect(":")?;
        let ok = if self.try_token("true") {
            true
        } else if self.try_token("false") {
            false
        } else {
            return Err(self.err(self.pos, ParseErrorKind::Invalid("ok flag")));
        };
        self.expect(",")?;
        self.expect("\"rev\"")?;
        self.expect(":")?;
        let rev = self.u64()?;
        self.expect(",")?;
        self.expect("\"type\"")?;
        self.expect(":")?;
        let ty_at = {
            self.skip_ws();
            self.pos
        };
        let ty = self.string()?;
        let body = match ty.as_str() {
            "pong" => ResponseBody::Pong,
            "shutdown_complete" => ResponseBody::ShutdownComplete,
            "stats" => {
                self.expect(",")?;
                self.expect("\"graphs\"")?;
                self.expect(":")?;
                let graphs = self.u64()?;
                self.expect(",")?;
                self.expect("\"method\"")?;
                self.expect(":")?;
                let method = self.string()?;
                self.expect(",")?;
                self.expect("\"pivots\"")?;
                self.expect(":")?;
                let pivots = self.u64()?;
                self.expect(",")?;
                self.expect("\"cached_predictions\"")?;
                self.expect(":")?;
                let cached_predictions = if self.try_token("null") {
                    None
                } else {
                    Some(self.u64()?)
                };
                self.expect(",")?;
                self.expect("\"inflight\"")?;
                self.expect(":")?;
                let inflight = self.u64()?;
                self.expect(",")?;
                self.expect("\"max_inflight\"")?;
                self.expect(":")?;
                let max_inflight = self.u64()?;
                ResponseBody::Stats(StatsBody {
                    graphs,
                    method,
                    pivots,
                    cached_predictions,
                    inflight,
                    max_inflight,
                })
            }
            "inserted" | "removed" => {
                self.expect(",")?;
                self.expect("\"name\"")?;
                self.expect(":")?;
                let name = self.string()?;
                if ty == "inserted" {
                    ResponseBody::Inserted { name }
                } else {
                    ResponseBody::Removed { name }
                }
            }
            "ged" => {
                self.expect(",")?;
                self.expect("\"ged\"")?;
                self.expect(":")?;
                ResponseBody::Ged { ged: self.f64()? }
            }
            "path" => {
                self.expect(",")?;
                self.expect("\"ged\"")?;
                self.expect(":")?;
                let ged = self.u64()?;
                self.expect(",")?;
                self.expect("\"mapping\"")?;
                self.expect(":")?;
                let mapping = self.list(Self::u32)?;
                self.expect(",")?;
                self.expect("\"ops\"")?;
                self.expect(":")?;
                let ops = self.list(Self::op)?;
                ResponseBody::Path { ged, mapping, ops }
            }
            "neighbors" => {
                self.expect(",")?;
                self.expect("\"neighbors\"")?;
                self.expect(":")?;
                let neighbors = self.list(Self::named_f64)?;
                ResponseBody::Neighbors { neighbors }
            }
            "exact" => {
                self.expect(",")?;
                self.expect("\"matches\"")?;
                self.expect(":")?;
                let matches = self.list(|p| {
                    p.expect("{")?;
                    p.expect("\"name\"")?;
                    p.expect(":")?;
                    let name = p.string()?;
                    p.expect(",")?;
                    p.expect("\"ged\"")?;
                    p.expect(":")?;
                    let ged = p.u64()?;
                    p.expect("}")?;
                    Ok(WireExactNeighbor { name, ged })
                })?;
                self.expect(",")?;
                self.expect("\"undecided\"")?;
                self.expect(":")?;
                let undecided = self.list(|p| {
                    p.expect("{")?;
                    p.expect("\"name\"")?;
                    p.expect(":")?;
                    let name = p.string()?;
                    p.expect(",")?;
                    p.expect("\"known_match_ub\"")?;
                    p.expect(":")?;
                    let known_match_ub = if p.try_token("null") {
                        None
                    } else {
                        Some(p.u64()?)
                    };
                    p.expect("}")?;
                    Ok(WireUndecided {
                        name,
                        known_match_ub,
                    })
                })?;
                ResponseBody::ExactMatches { matches, undecided }
            }
            "self_join" | "join" => {
                self.expect(",")?;
                self.expect("\"pairs\"")?;
                self.expect(":")?;
                let pairs = self.list(|p| {
                    p.expect("{")?;
                    p.expect("\"a\"")?;
                    p.expect(":")?;
                    let a = p.string()?;
                    p.expect(",")?;
                    p.expect("\"b\"")?;
                    p.expect(":")?;
                    let b = p.string()?;
                    p.expect(",")?;
                    p.expect("\"ged\"")?;
                    p.expect(":")?;
                    let ged = p.u64()?;
                    p.expect("}")?;
                    Ok(WireJoinPair { a, b, ged })
                })?;
                self.expect(",")?;
                self.expect("\"undecided\"")?;
                self.expect(":")?;
                let undecided = self.list(|p| {
                    p.expect("{")?;
                    p.expect("\"a\"")?;
                    p.expect(":")?;
                    let a = p.string()?;
                    p.expect(",")?;
                    p.expect("\"b\"")?;
                    p.expect(":")?;
                    let b = p.string()?;
                    p.expect(",")?;
                    p.expect("\"known_match_ub\"")?;
                    p.expect(":")?;
                    let known_match_ub = if p.try_token("null") {
                        None
                    } else {
                        Some(p.u64()?)
                    };
                    p.expect("}")?;
                    Ok(WireJoinUndecided {
                        a,
                        b,
                        known_match_ub,
                    })
                })?;
                self.expect(",")?;
                self.expect("\"candidates\"")?;
                self.expect(":")?;
                let candidates = self.u64()?;
                self.expect(",")?;
                self.expect("\"verified\"")?;
                self.expect(":")?;
                let verified = self.u64()?;
                if ty == "self_join" {
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
                self.expect(",")?;
                self.expect("\"names\"")?;
                self.expect(":")?;
                let names = self.list(Self::string)?;
                self.expect(",")?;
                self.expect("\"rows\"")?;
                self.expect(":")?;
                let rows = self.list(|p| p.list(Self::f64))?;
                ResponseBody::Matrix { names, rows }
            }
            "snapshotted" | "loaded" => {
                self.expect(",")?;
                self.expect("\"path\"")?;
                self.expect(":")?;
                let path = self.string()?;
                self.expect(",")?;
                self.expect("\"graphs\"")?;
                self.expect(":")?;
                let graphs = self.u64()?;
                if ty == "snapshotted" {
                    ResponseBody::Snapshotted { path, graphs }
                } else {
                    ResponseBody::Loaded { path, graphs }
                }
            }
            "error" => {
                self.expect(",")?;
                self.expect("\"code\"")?;
                self.expect(":")?;
                let code_at = {
                    self.skip_ws();
                    self.pos
                };
                let code = self.string()?;
                let code = ErrorCode::from_str_opt(&code)
                    .ok_or_else(|| self.err(code_at, ParseErrorKind::Invalid("error code")))?;
                self.expect(",")?;
                self.expect("\"message\"")?;
                self.expect(":")?;
                let message = self.string()?;
                ResponseBody::Error { code, message }
            }
            _ => return Err(self.err(ty_at, ParseErrorKind::Invalid("response type"))),
        };
        let resp = Response { id, rev, body };
        if ok != resp.is_ok() {
            return Err(self.err(ty_at, ParseErrorKind::Invalid("ok flag")));
        }
        self.expect("}")?;
        self.end()?;
        Ok(resp)
    }
}

/// Parses one request line.
///
/// # Errors
/// Returns a [`ParseError`] if the line is not a well-formed request of
/// the current protocol version.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    Parser::new(line).request()
}

/// Parses one response line.
///
/// # Errors
/// Returns a [`ParseError`] if the line is not a well-formed response of
/// the current protocol version.
pub fn parse_response(line: &str) -> Result<Response, ParseError> {
    Parser::new(line).response()
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

/// Parses a server snapshot file, delegating the `"store"` payload to
/// the `ged_graph::shard` snapshot grammar.
///
/// # Errors
/// Returns a [`ParseError`] on any grammar violation, including a name
/// table whose length disagrees with the store population.
pub fn parse_server_snapshot(s: &str) -> Result<ServerSnapshot, ParseError> {
    let mut p = Parser::new(s);
    p.expect("{")?;
    p.expect("\"schema\"")?;
    p.expect(":")?;
    let at = {
        p.skip_ws();
        p.pos
    };
    if p.u64()? != 1 {
        return Err(p.err(at, ParseErrorKind::Invalid("snapshot schema")));
    }
    p.expect(",")?;
    p.expect("\"rev\"")?;
    p.expect(":")?;
    let rev = p.u64()?;
    p.expect(",")?;
    p.expect("\"next_name\"")?;
    p.expect(":")?;
    let next_name = p.u64()?;
    p.expect(",")?;
    p.expect("\"names\"")?;
    p.expect(":")?;
    let names_at = {
        p.skip_ws();
        p.pos
    };
    let names = p.list(|p| p.string())?;
    p.expect(",")?;
    p.expect("\"store\"")?;
    p.expect(":")?;
    p.skip_ws();
    let base = p.pos;
    let (store, used) = ShardedStore::from_json_prefix(&s[base..]).map_err(|e| ParseError {
        at: base + e.at,
        line: 1,
        column: base + e.at + 1,
        kind: e.kind,
    })?;
    p.pos = base + used;
    p.expect("}")?;
    p.end()?;
    if names.len() != store.len() {
        return Err(ParseError {
            at: names_at,
            line: 1,
            column: names_at + 1,
            kind: ParseErrorKind::Invalid("name table"),
        });
    }
    Ok(ServerSnapshot {
        rev,
        next_name,
        names,
        store,
    })
}
