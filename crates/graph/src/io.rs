//! Dataset and graph serialization, and the workspace's JSON reader.
//!
//! A small JSON-based format so that experiment runs can snapshot the exact
//! synthetic datasets they used (graphs, splits, ground truth) and be
//! replayed later. The writer and [`Reader`] are hand-rolled (the build
//! environment is offline, so no serde). Writers emit object members in
//! the order shown below; the reader takes them in any order.
//!
//! ```text
//! graph   := {"labels":[u32,...],"edges":[[u32,u32],...]}
//! dataset := {"kind":"AIDS"|"Linux"|"IMDB","graphs":[graph,...]}
//! ```
//!
//! Every member shown is required. An undefined member is rejected as
//! [`ParseErrorKind::UnknownKey`], a repeated one as
//! [`ParseErrorKind::DuplicateKey`], both at the key. Edges are checked
//! after the graph's `}` (`edges` may come first), each error at its edge.
//!
//! # Sharded-store snapshots
//!
//! [`crate::shard::ShardedStore`] persists itself through the same
//! hand-rolled codec (see [`crate::shard::ShardedStore::save`] /
//! [`crate::shard::ShardedStore::load`]). Unlike datasets — where
//! [`crate::store::GraphId`]s are process-local handles and are *not*
//! persisted — snapshots do carry each graph's raw sequence number, so a
//! loaded store resolves exactly the ids the saved one did (the global
//! allocator is advanced past every restored seq to keep ids unique).
//! The grammar, under the same member rules:
//!
//! ```text
//! pivdist  := [u64,u64]                              // [lb,ub]; lb = ub when exact
//! pivrow   := {"seq":u64,"dists":[pivdist,...]}      // one row per member graph
//! pivots   := null
//!           | {"target":u64,"revision":u64,"ids":[u64,...],"rows":[pivrow,...]}
//! entry    := {"seq":u64,"graph":graph}
//! shard    := {"bucket":u64,"revision":u64,"entries":[entry,...],"pivots":pivots}
//! snapshot := {"schema":1,"bucket_width":u64,"revision":u64,"shards":[shard,...]}
//! ```
//!
//! Signatures and CSR views are *not* persisted: both are deterministic
//! functions of the graph and are recomputed on load.
//!
//! # The reader
//!
//! These grammars and `ged-server`'s wire protocol are plain functions
//! over [`Reader`]. It walks the input once, builds no value tree, and
//! recurses only as deep as the grammar nests: a value the grammar does
//! not expect is rejected where it starts, never skipped.

use crate::dataset::{DatasetKind, GraphDataset};
use crate::graph::{Graph, Label};
use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// A structured JSON-codec error: what went wrong and exactly where.
///
/// Positions are reported three ways — absolute byte offset plus 1-based
/// line and column — because the codec parses both whole files
/// ([`load_dataset`]) and single lines of a line-delimited protocol, where
/// the caller wants to prefix its own line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Absolute byte offset into the input where the error was detected.
    pub at: usize,
    /// 1-based line number of `at`.
    pub line: usize,
    /// 1-based byte column of `at` within its line.
    pub column: usize,
    /// What the parser expected or which invariant the input violated.
    pub kind: ParseErrorKind,
}

/// The failure cases of the graph/dataset grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A fixed token of the grammar was expected. A required member
    /// missing from an object is reported at its `}`: as its quoted key
    /// when the object is empty, else as `,` (more members were due).
    Expected(&'static str),
    /// A decimal number was expected.
    ExpectedNumber,
    /// A number does not fit in the integer width the grammar calls for
    /// (`u32` for labels and edge endpoints, `u64` for snapshot fields),
    /// or is beyond `f64`'s finite range.
    NumberOverflow,
    /// An edge `(u, u)` — the graphs here are simple.
    SelfLoop(u32),
    /// An edge endpoint at or beyond the node count.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (u32, u32),
        /// The graph's node count.
        nodes: u32,
    },
    /// The same undirected edge listed twice.
    DuplicateEdge(u32, u32),
    /// A dataset `kind` string that is not `AIDS`, `Linux`, or `IMDB`.
    UnknownKind,
    /// Input continuing past the end of the value.
    TrailingInput,
    /// A syntactically well-formed field holding a semantically invalid
    /// value (used by grammars layered on top of this codec, e.g. the
    /// `ged-server` wire protocol: unknown op, bad protocol version).
    Invalid(&'static str),
    /// A member the object's grammar does not define (in the wire
    /// protocol, also one the request's op or response's type lacks).
    UnknownKey,
    /// A member whose key already occurred in the same object.
    DuplicateKey,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, column {} (byte {}): ",
            self.line, self.column, self.at
        )?;
        match &self.kind {
            ParseErrorKind::Expected(token) => write!(f, "expected `{token}`"),
            ParseErrorKind::ExpectedNumber => write!(f, "expected a number"),
            ParseErrorKind::NumberOverflow => write!(f, "number overflows its field"),
            ParseErrorKind::SelfLoop(u) => write!(f, "self loop at node {u}"),
            ParseErrorKind::EdgeOutOfRange {
                edge: (u, v),
                nodes,
            } => {
                write!(f, "edge ({u},{v}) out of range (n={nodes})")
            }
            ParseErrorKind::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u},{v})"),
            ParseErrorKind::UnknownKind => write!(f, "unknown dataset kind"),
            ParseErrorKind::TrailingInput => write!(f, "trailing input after value"),
            ParseErrorKind::Invalid(what) => write!(f, "invalid {what}"),
            ParseErrorKind::UnknownKey => write!(f, "unknown key"),
            ParseErrorKind::DuplicateKey => write!(f, "duplicate key"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph to a JSON string.
#[must_use]
pub fn graph_to_json(g: &Graph) -> String {
    let mut s = String::from("{\"labels\":[");
    for (i, l) in g.labels().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&l.0.to_string());
    }
    s.push_str("],\"edges\":[");
    for (i, (u, v)) in g.edges().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{u},{v}]"));
    }
    s.push_str("]}");
    s
}

/// Parses a graph from a JSON string.
///
/// # Errors
/// Returns a [`ParseError`] if the JSON is malformed or violates graph
/// invariants (out-of-range endpoints, self loops, duplicate edges).
pub fn graph_from_json(s: &str) -> Result<Graph, ParseError> {
    let mut r = Reader::new(s);
    let g = r.graph()?;
    r.end()?;
    Ok(g)
}

/// Serializes a dataset to a JSON string. Graphs are written in id
/// order; [`crate::store::GraphId`]s themselves are process-local handles
/// and are not persisted (loading mints fresh ids).
#[must_use]
pub fn dataset_to_json(ds: &GraphDataset) -> String {
    let mut s = format!("{{\"kind\":\"{}\",\"graphs\":[", ds.kind.name());
    for (i, g) in ds.graphs().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&graph_to_json(g));
    }
    s.push_str("]}");
    s
}

/// Parses a dataset from a JSON string.
///
/// # Errors
/// Returns a [`ParseError`] if the JSON is malformed or any graph is
/// invalid.
pub fn dataset_from_json(s: &str) -> Result<GraphDataset, ParseError> {
    let mut r = Reader::new(s);
    let mut kind = None;
    let mut graphs = None;
    let m = r.object(&["kind", "graphs"], |r, key| {
        match key {
            "kind" => {
                let at = r.next_at();
                kind = Some(match r.string().as_deref() {
                    Ok("AIDS") => DatasetKind::Aids,
                    Ok("Linux") => DatasetKind::Linux,
                    Ok("IMDB") => DatasetKind::Imdb,
                    _ => return Err(r.err(at, ParseErrorKind::UnknownKind)),
                });
            }
            _ => graphs = Some(r.list(Reader::graph)?),
        }
        Ok(())
    })?;
    let kind = m.need(&r, kind, "\"kind\"")?;
    let graphs = m.need(&r, graphs, "\"graphs\"")?;
    r.end()?;
    Ok(GraphDataset::from_graphs(kind, graphs))
}

/// Writes a dataset to a JSON file.
///
/// # Errors
/// Propagates I/O errors.
pub fn save_dataset(ds: &GraphDataset, path: &Path) -> io::Result<()> {
    fs::write(path, dataset_to_json(ds))
}

/// Reads a dataset from a JSON file.
///
/// # Errors
/// Propagates I/O errors and reports malformed JSON.
pub fn load_dataset(path: &Path) -> io::Result<GraphDataset> {
    let s = fs::read_to_string(path)?;
    dataset_from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes `bytes` to `path` atomically: into the sibling file named
/// `path` plus `.tmp`, synced, then renamed over `path`, and the directory
/// synced. When a step before the rename fails, `path` is left as it was
/// and the temporary file is removed. Writers to one `path` share the
/// temporary file, so the caller must serialize them.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let written = fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    written.and_then(|()| fs::File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all()))
}

/// A streaming JSON reader: one input and a position. Each method skips
/// whitespace, reads one token or production and advances past it, or
/// fails with a [`ParseError`] positioned where the input went wrong. The
/// small ones are `#[inline]`: the wire codec calls them across crates.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
}

/// What [`Reader::object`] saw of one object: which keys occurred, where,
/// and where the object closed. Grammars check it after the `}`.
pub struct Members<const N: usize> {
    close: usize,
    seen: u64,
    at: [usize; N],
}

impl<const N: usize> Members<N> {
    /// The value of the required member `key` (quoted, as `"\"edges\""`),
    /// or, when `slot` is empty, the error [`ParseErrorKind::Expected`]
    /// describes, at the object's `}`.
    pub fn need<T>(
        &self,
        r: &Reader<'_>,
        slot: Option<T>,
        key: &'static str,
    ) -> Result<T, ParseError> {
        let token = if self.seen == 0 { key } else { "," };
        slot.ok_or_else(|| r.err(self.close, ParseErrorKind::Expected(token)))
    }

    /// Accepts, past the first `common` of the `keys` this object was read
    /// with, only the members named in `allowed`: for grammars whose
    /// fields depend on a tag member, such as a request's `op`.
    pub fn only(
        &self,
        r: &Reader<'_>,
        keys: &[&str; N],
        common: usize,
        allowed: &[&str],
    ) -> Result<(), ParseError> {
        let other =
            (common..N).filter(|&i| self.seen & (1 << i) != 0 && !allowed.contains(&keys[i]));
        let first = other.map(|i| self.at[i]).min();
        first.map_or(Ok(()), |at| Err(r.err(at, ParseErrorKind::UnknownKey)))
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        Reader { input, pos: 0 }
    }

    /// A [`ParseError`] of `kind` at byte `at`. Line and column are
    /// derived here, on error paths only.
    #[must_use]
    pub fn err(&self, at: usize, kind: ParseErrorKind) -> ParseError {
        let before = &self.input.as_bytes()[..at.min(self.input.len())];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        ParseError {
            at,
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            column: at - line_start + 1,
            kind,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// The position of the next token.
    #[inline]
    pub fn next_at(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// The next byte, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.as_bytes().get(self.pos).copied()
    }

    /// Consumes `token` if it comes next.
    #[inline]
    pub fn try_token(&mut self, token: &str) -> bool {
        self.skip_ws();
        let found = self.input.as_bytes()[self.pos..].starts_with(token.as_bytes());
        if found {
            self.pos += token.len();
        }
        found
    }

    /// Consumes `token`.
    #[inline]
    pub fn expect(&mut self, token: &'static str) -> Result<(), ParseError> {
        if self.try_token(token) {
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::Expected(token)))
        }
    }

    /// The text of a number (sign, digits, fraction, exponent), for a
    /// value whose type the grammar learns later.
    #[inline]
    pub fn number(&mut self) -> Result<&'a str, ParseError> {
        let (start, bytes) = (self.next_at(), self.input.as_bytes());
        let numeric = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
        self.pos += bytes[start..].iter().take_while(|b| numeric(b)).count();
        if start == self.pos {
            return Err(self.err(start, ParseErrorKind::ExpectedNumber));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Converts a [`Reader::number`] read at `at` to an unsigned `T`:
    /// [`ParseErrorKind::ExpectedNumber`] unless it is all digits,
    /// [`ParseErrorKind::NumberOverflow`] if it does not fit.
    pub fn int_token<T: std::str::FromStr>(&self, at: usize, token: &str) -> Result<T, ParseError> {
        if !token.bytes().all(|b| b.is_ascii_digit()) {
            return Err(self.err(at, ParseErrorKind::ExpectedNumber));
        }
        token
            .parse()
            .map_err(|_| self.err(at, ParseErrorKind::NumberOverflow))
    }

    /// Converts a [`Reader::number`] read at `at` to a finite `f64`:
    /// [`ParseErrorKind::NumberOverflow`] beyond `f64`'s range.
    pub fn f64_token(&self, at: usize, token: &str) -> Result<f64, ParseError> {
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(self.err(at, ParseErrorKind::NumberOverflow)),
            Err(_) => Err(self.err(at, ParseErrorKind::ExpectedNumber)),
        }
    }

    /// An unsigned integer: see [`Reader::int_token`].
    pub(crate) fn uint<T: std::str::FromStr>(&mut self) -> Result<T, ParseError> {
        let at = self.next_at();
        let token = self.number()?;
        self.int_token(at, token)
    }

    /// A `u32`: see [`Reader::int_token`].
    pub fn u32(&mut self) -> Result<u32, ParseError> {
        self.uint()
    }

    /// A `u64`: see [`Reader::int_token`].
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ParseError> {
        self.uint()
    }

    /// A finite `f64`: see [`Reader::f64_token`].
    pub fn f64(&mut self) -> Result<f64, ParseError> {
        let at = self.next_at();
        let token = self.number()?;
        self.f64_token(at, token)
    }

    /// A string, borrowed from the input unless it has escapes (all of
    /// JSON's, `\u` surrogate pairs included).
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect("\"")?;
        let (input, start) = (self.input, self.pos);
        let bytes = input.as_bytes();
        // The end of the plain run at `from`: the next quote or backslash.
        let run = |from: usize| {
            let end = bytes[from..].iter().position(|&b| b == b'"' || b == b'\\');
            end.map(|n| from + n)
        };
        let unterminated = |r: &Self| r.err(bytes.len(), ParseErrorKind::Expected("\""));
        let mut end = run(start).ok_or_else(|| unterminated(self))?;
        if bytes[end] == b'"' {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&input[start..end]));
        }
        let mut out = String::from(&input[start..end]);
        while bytes[end] == b'\\' {
            let (at, escape) = (end, bytes.get(end + 1).copied());
            self.pos = end + 2;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self
                    .unicode_escape()
                    .ok_or_else(|| self.err(at, ParseErrorKind::Invalid("unicode escape")))?,
                None => return Err(self.err(at + 1, ParseErrorKind::Invalid("string escape"))),
                Some(_) => return Err(self.err(at, ParseErrorKind::Invalid("string escape"))),
            });
            end = run(self.pos).ok_or_else(|| unterminated(self))?;
            out.push_str(&input[self.pos..end]);
        }
        self.pos = end + 1;
        Ok(Cow::Owned(out))
    }

    /// The character of a `\uXXXX` escape whose `\u` was just read,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Option<char> {
        let hex4 = |r: &mut Self| {
            let h = r
                .input
                .get(r.pos..r.pos + 4)
                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
            r.pos += 4;
            u32::from_str_radix(h, 16).ok()
        };
        let hi = hex4(self)?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi);
        }
        let pair = self.input[self.pos..].starts_with("\\u");
        self.pos += 2;
        let lo = hex4(self).filter(|lo| pair && (0xDC00..0xE000).contains(lo))?;
        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
    }

    /// `[item, ...]`, each item read by `f`.
    pub fn list<T>(
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

    /// `null`, or a value read by `f`.
    pub fn nullable<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        if self.try_token("null") {
            Ok(None)
        } else {
            f(self).map(Some)
        }
    }

    /// `{"key": value, ...}`, members in any order: `member` gets each
    /// key, as its entry of `keys`, and reads the value.
    pub fn object<const N: usize>(
        &mut self,
        keys: &[&'static str; N],
        mut member: impl FnMut(&mut Self, &'static str) -> Result<(), ParseError>,
    ) -> Result<Members<N>, ParseError> {
        const { assert!(N <= 64, "the seen-set is one u64") };
        self.expect("{")?;
        let mut m = Members {
            close: 0,
            seen: 0,
            at: [0; N],
        };
        while m.seen == 0 && self.peek() != Some(b'}') || m.seen != 0 && self.try_token(",") {
            let at = self.next_at();
            let key = self.string()?;
            let i = keys
                .iter()
                .position(|k| k.as_bytes() == key.as_bytes())
                .ok_or_else(|| self.err(at, ParseErrorKind::UnknownKey))?;
            if m.seen & (1 << i) != 0 {
                return Err(self.err(at, ParseErrorKind::DuplicateKey));
            }
            (m.seen, m.at[i]) = (m.seen | 1 << i, at);
            self.expect(":")?;
            member(self, keys[i])?;
        }
        m.close = self.next_at();
        self.expect("}")?;
        Ok(m)
    }

    /// A `graph` object. Edges are checked after its `}`.
    pub fn graph(&mut self) -> Result<Graph, ParseError> {
        let (mut labels, mut edges, mut edges_at) = (None, None, 0);
        let m = self.object(&["labels", "edges"], |r, key| {
            if key == "labels" {
                labels = Some(r.list(|r| r.u32().map(Label))?);
            } else {
                edges_at = r.next_at();
                edges = Some(r.list(Self::edge)?);
            }
            Ok(())
        })?;
        let labels: Vec<Label> = m.need(self, labels, "\"labels\"")?;
        let edges = m.need(self, edges, "\"edges\"")?;
        let n = labels.len() as u32;
        let mut g = Graph::from_edges(labels, &[]);
        for (i, &(u, v)) in edges.iter().enumerate() {
            let kind = if u == v {
                ParseErrorKind::SelfLoop(u)
            } else if u >= n || v >= n {
                ParseErrorKind::EdgeOutOfRange {
                    edge: (u, v),
                    nodes: n,
                }
            } else if g.has_edge(u, v) {
                ParseErrorKind::DuplicateEdge(u, v)
            } else {
                g.add_edge(u, v);
                continue;
            };
            // Replay the list, which parsed once already, to the edge.
            let mut r = Reader {
                input: self.input,
                pos: edges_at + 1,
            };
            for _ in 0..i {
                let _ = (r.edge(), r.expect(","));
            }
            return Err(self.err(r.next_at(), kind));
        }
        Ok(g)
    }

    fn edge(&mut self) -> Result<(u32, u32), ParseError> {
        self.expect("[")?;
        let u = self.u32()?;
        self.expect(",")?;
        let v = self.u32()?;
        self.expect("]")?;
        Ok((u, v))
    }

    /// Succeeds at the end of the input (trailing whitespace allowed).
    pub fn end(&mut self) -> Result<(), ParseError> {
        if self.next_at() == self.input.len() {
            Ok(())
        } else {
            Err(self.err(self.pos, ParseErrorKind::TrailingInput))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GraphDataset;
    use crate::graph::Label;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn graph_json_roundtrip() {
        let g = Graph::from_edges(vec![Label(1), Label(2), Label(3)], &[(0, 1), (1, 2)]);
        let s = graph_to_json(&g);
        let g2 = graph_from_json(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::new();
        assert_eq!(graph_from_json(&graph_to_json(&g)).unwrap(), g);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            graph_from_json("not json").unwrap_err().kind,
            ParseErrorKind::Expected("{")
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0,0]}").unwrap_err().kind,
            ParseErrorKind::Expected(",")
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0],\"edges\":[]} tail")
                .unwrap_err()
                .kind,
            ParseErrorKind::TrailingInput
        );
        assert_eq!(
            graph_from_json("{\"labels\":[99999999999],\"edges\":[]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::NumberOverflow
        );
        assert_eq!(
            dataset_from_json("{\"kind\":\"QM9\",\"graphs\":[]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::UnknownKind
        );
    }

    #[test]
    fn rejects_invariant_violations() {
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[1,1]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::SelfLoop(1)
        );
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[0,2]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::EdgeOutOfRange {
                edge: (0, 2),
                nodes: 2
            }
        );
        // Duplicate, also when reversed.
        assert_eq!(
            graph_from_json("{\"labels\":[0,0],\"edges\":[[0,1],[1,0]]}")
                .unwrap_err()
                .kind,
            ParseErrorKind::DuplicateEdge(1, 0)
        );
    }

    #[test]
    fn errors_carry_position() {
        // The bad number starts at byte 11 of line 2.
        let e = graph_from_json("{\"labels\":\n[0],\"edges\":[[0,x]]}").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::ExpectedNumber);
        assert_eq!(e.line, 2);
        assert_eq!(e.column, e.at - "{\"labels\":\n".len() + 1);
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("expected a number"), "{msg}");

        // Single-line inputs report line 1 and column = byte + 1.
        let e = graph_from_json("nope").unwrap_err();
        assert_eq!((e.line, e.column, e.at), (1, 1, 0));
    }

    #[test]
    fn members_come_in_any_order_with_whitespace() {
        let g = Graph::from_edges(vec![Label(4), Label(5), Label(6)], &[(0, 1), (2, 1)]);
        let reordered = " {\n \"edges\" : [ [0 , 1] ,[2,1] ] , \"labels\":[4,5,6]} \n";
        assert_eq!(graph_from_json(reordered).unwrap(), g);
        let ds = dataset_from_json("{\"graphs\":[],\"kind\":\"IMDB\"}").unwrap();
        assert_eq!((ds.kind, ds.len()), (DatasetKind::Imdb, 0));
        // Edge checks wait for the labels, and still point at the edge.
        let line = "{\"edges\":[[0,1],[0,3]],\"labels\":[0,0]}";
        let e = graph_from_json(line).unwrap_err();
        assert_eq!(
            e.kind,
            ParseErrorKind::EdgeOutOfRange {
                edge: (0, 3),
                nodes: 2
            }
        );
        assert_eq!(&line[e.at..], "[0,3]],\"labels\":[0,0]}");
    }

    #[test]
    fn unknown_duplicate_and_missing_members_are_typed() {
        let line = "{\"labels\":[],\"nodes\":3,\"edges\":[]}";
        let e = graph_from_json(line).unwrap_err();
        assert_eq!(
            (e.kind, e.at),
            (ParseErrorKind::UnknownKey, line.find("\"nodes").unwrap())
        );
        let line = "{\"labels\":[],\"edges\":[],\"labels\":[]}";
        let e = graph_from_json(line).unwrap_err();
        assert_eq!(
            (e.kind, e.at),
            (
                ParseErrorKind::DuplicateKey,
                line.rfind("\"labels").unwrap()
            )
        );
        // A missing member is reported at the `}`.
        let e = graph_from_json("{\"edges\":[]}").unwrap_err();
        assert_eq!((e.kind, e.at), (ParseErrorKind::Expected(","), 11));
        let e = graph_from_json("{ }").unwrap_err();
        assert_eq!((e.kind, e.at), (ParseErrorKind::Expected("\"labels\""), 2));
        // Escaped keys name the same member.
        let g = graph_from_json("{\"\\u006cabels\":[0],\"edges\":[]}").unwrap();
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn strings_decode_every_json_escape() {
        let mut r = Reader::new(r#""a\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00z" "plain""#);
        assert_eq!(r.string().unwrap(), "a\"\\/\u{8}\u{c}\n\r\té\u{1f600}z");
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        for (bad, kind, at) in [
            (r#""\ud83d""#, ParseErrorKind::Invalid("unicode escape"), 1),
            (r#""\ude00""#, ParseErrorKind::Invalid("unicode escape"), 1),
            (r#""\u+123""#, ParseErrorKind::Invalid("unicode escape"), 1),
            (r#""ok\q""#, ParseErrorKind::Invalid("string escape"), 3),
            ("\"tail\\", ParseErrorKind::Invalid("string escape"), 6),
            ("\"open", ParseErrorKind::Expected("\""), 5),
        ] {
            let e = Reader::new(bad).string().unwrap_err();
            assert_eq!((e.kind, e.at), (kind, at), "{bad}");
        }
    }

    #[test]
    fn numbers_are_typed_by_their_field() {
        let mut r = Reader::new("18446744073709551615 -0.5 1e308");
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.5f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1e308);
        let int = |s: &str| Reader::new(s).u64().unwrap_err().kind;
        let real = |s: &str| Reader::new(s).f64().unwrap_err().kind;
        assert_eq!(int("18446744073709551616"), ParseErrorKind::NumberOverflow);
        assert_eq!(int("-1"), ParseErrorKind::ExpectedNumber);
        assert_eq!(int("1.5"), ParseErrorKind::ExpectedNumber);
        assert_eq!(real("1e999"), ParseErrorKind::NumberOverflow);
        assert_eq!(real(&"9".repeat(400)), ParseErrorKind::NumberOverflow);
        assert_eq!(real("1e"), ParseErrorKind::ExpectedNumber);
        assert_eq!(real("x"), ParseErrorKind::ExpectedNumber);
    }

    #[test]
    fn deep_nesting_is_rejected_without_recursion() {
        for open in ["[", "{"] {
            let deep = open.repeat(100_000);
            assert!(graph_from_json(&deep).is_err());
            let inside = format!("{{\"labels\":[{deep}");
            assert_eq!(
                graph_from_json(&inside).unwrap_err().kind,
                ParseErrorKind::ExpectedNumber
            );
        }
    }

    #[test]
    fn atomic_writes_replace_or_leave_the_target() {
        let dir = std::env::temp_dir().join(format!("ot_ged_io_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomically(&path, b"first").unwrap();
        write_atomically(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(
            !dir.join("out.json.tmp").exists(),
            "the temporary is renamed away"
        );
        // A directory in the temporary file's place: the write fails and
        // the target keeps its bytes.
        std::fs::create_dir(dir.join("out.json.tmp")).unwrap();
        assert!(write_atomically(&path, b"third").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_file_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ds = GraphDataset::linux_like(10, &mut rng);
        let dir = std::env::temp_dir().join("ot_ged_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        save_dataset(&ds, &path).unwrap();
        let ds2 = load_dataset(&path).unwrap();
        assert_eq!(ds.kind, ds2.kind);
        assert_eq!(ds.len(), ds2.len());
        assert!(ds.graphs().eq(ds2.graphs()), "graphs round-trip in order");
        std::fs::remove_file(&path).ok();
    }
}
