//! Protocol codec properties: every request and response variant
//! round-trips bit-exactly through `encode_* -> parse_*`, and malformed
//! or oversized lines are rejected with typed errors, never panics.

use ged_graph::io::ParseErrorKind;
use ged_graph::{Graph, Label};
use ged_server::codec::{encode_request, encode_response, parse_request, parse_response};
use ged_server::protocol::{ErrorCode, Request, Response, ResponseBody, MAX_LINE_BYTES};
use ged_server::{Server, ServerConfig};
use ged_testkit::wire::{random_graph, random_request, random_response};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::io::{self, BufReader, Cursor, Read, Write};
use std::rc::Rc;

const SEED: u64 = 0x5E4; // server-suite seed stream

/// Exact-f64 equality for round-trip checks (`PartialEq` conflates
/// `0.0` and `-0.0`; the wire must preserve the sign bit too).
fn assert_bits_equal(a: &Response, b: &Response) {
    assert_eq!(a, b);
    match (&a.body, &b.body) {
        (ResponseBody::Ged { ged: x }, ResponseBody::Ged { ged: y }) => {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        (ResponseBody::Neighbors { neighbors: xs }, ResponseBody::Neighbors { neighbors: ys }) => {
            for (x, y) in xs.iter().zip(ys) {
                assert_eq!(x.ged.to_bits(), y.ged.to_bits());
            }
        }
        (ResponseBody::Matrix { rows: xs, .. }, ResponseBody::Matrix { rows: ys, .. }) => {
            for (rx, ry) in xs.iter().zip(ys) {
                for (x, y) in rx.iter().zip(ry) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        _ => {}
    }
}

#[test]
fn every_request_variant_round_trips() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for case in 0..600 {
        let req = random_request(case, &mut rng);
        let line = encode_request(&req);
        let back = parse_request(&line)
            .unwrap_or_else(|e| panic!("case {case}: {e}\nline: {line}\nreq: {req:?}"));
        assert_eq!(back, req, "case {case}: {line}");
        // Tau round-trips bit-exactly, not just PartialEq-equally.
        if let (
            Request::Range { tau: a, .. } | Request::RangeExact { tau: a, .. },
            Request::Range { tau: b, .. } | Request::RangeExact { tau: b, .. },
        ) = (&req, &back)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
        }
    }
}

#[test]
fn every_response_variant_round_trips() {
    let mut rng = SmallRng::seed_from_u64(SEED + 1);
    for case in 0..600 {
        let resp = random_response(case, &mut rng);
        let line = encode_response(&resp);
        let back = parse_response(&line)
            .unwrap_or_else(|e| panic!("case {case}: {e}\nline: {line}\nresp: {resp:?}"));
        assert_bits_equal(&back, &resp);
    }
}

#[test]
fn malformed_request_lines_are_rejected() {
    for line in [
        "",
        "not json",
        "{}",
        "{\"v\":1}",
        "{\"v\":1,\"id\":\"x\"}",
        "{\"v\":1,\"id\":\"x\",\"op\":\"nope\"}",
        "{\"v\":1,\"id\":\"x\",\"op\":\"ping\"} trailing",
        "{\"v\":1,\"id\":\"x\",\"op\":\"ping\"",
        "{\"v\":1,\"id\":\"x\",\"op\":\"predict\",\"g1\":7,\"g2\":\"g0\"}",
        "{\"v\":1,\"id\":\"x\",\"op\":\"top_k\",\"query\":\"g0\",\"k\":\"many\"}",
        "{\"v\":1,\"id\":\"x\",\"op\":\"top_k\",\"query\":\"g0\",\"k\":99999999999999999999999}",
        "{\"v\":1,\"id\":\"bad escape \\q\",\"op\":\"ping\"}",
        "{\"v\":1,\"id\":\"bad unicode \\uZZZZ\",\"op\":\"ping\"}",
        "{\"v\":1,\"id\":\"x\",\"op\":\"insert_graph\",\"graph\":{\"labels\":[0],\"edges\":[[0,0]]}}",
    ] {
        assert!(parse_request(line).is_err(), "accepted: {line}");
    }
    // The version gate and unknown ops carry pinpointed kinds.
    assert_eq!(
        parse_request("{\"v\":2,\"id\":\"x\",\"op\":\"ping\"}")
            .unwrap_err()
            .error
            .kind,
        ParseErrorKind::Invalid("protocol version")
    );
    assert_eq!(
        parse_request("{\"v\":1,\"id\":\"x\",\"op\":\"nope\"}")
            .unwrap_err()
            .error
            .kind,
        ParseErrorKind::Invalid("op")
    );
    // Inline-graph errors are rebased to the position in the *request*
    // line, not the graph substring.
    let line = "{\"v\":1,\"id\":\"x\",\"op\":\"insert_graph\",\"graph\":{\"labels\":[0],\"edges\":[[0,0]]}}";
    let err = parse_request(line).unwrap_err().error;
    assert_eq!(err.kind, ParseErrorKind::SelfLoop(0));
    assert_eq!(&line[err.at..err.at + 1], "[", "anchored at the edge");
}

#[test]
fn malformed_response_lines_are_rejected() {
    for line in [
        "",
        "{\"v\":1,\"id\":\"x\",\"ok\":true,\"rev\":0}",
        "{\"v\":1,\"id\":\"x\",\"ok\":true,\"rev\":0,\"type\":\"nope\"}",
        "{\"v\":1,\"id\":\"x\",\"ok\":maybe,\"rev\":0,\"type\":\"pong\"}",
        "{\"v\":1,\"id\":\"x\",\"ok\":true,\"rev\":-1,\"type\":\"pong\"}",
        "{\"v\":1,\"id\":\"x\",\"ok\":true,\"rev\":0,\"type\":\"error\",\"code\":\"nope\",\"message\":\"m\"}",
        // ok flag inconsistent with the body type, both directions.
        "{\"v\":1,\"id\":\"x\",\"ok\":false,\"rev\":0,\"type\":\"pong\"}",
        "{\"v\":1,\"id\":\"x\",\"ok\":true,\"rev\":0,\"type\":\"error\",\"code\":\"parse\",\"message\":\"m\"}",
    ] {
        assert!(parse_response(line).is_err(), "accepted: {line}");
    }
}

#[test]
fn oversized_lines_get_a_typed_rejection_without_parsing() {
    let server = Server::new(&ServerConfig::default()).unwrap();
    // A syntactically valid request that is simply too long.
    let mut line = String::from("{\"v\":1,\"id\":\"");
    line.push_str(&"x".repeat(MAX_LINE_BYTES));
    line.push_str("\",\"op\":\"ping\"}");
    assert!(line.len() > MAX_LINE_BYTES);
    let (resp_line, close) = server.handle_line(&line);
    assert!(!close);
    let resp = parse_response(&resp_line).unwrap();
    assert_eq!(resp.id, "", "id is not recovered from oversized lines");
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // A line exactly at the cap parses normally.
    let pad = MAX_LINE_BYTES - "{\"v\":1,\"id\":\"\",\"op\":\"ping\"}".len();
    let ok_line = format!("{{\"v\":1,\"id\":\"{}\",\"op\":\"ping\"}}", "y".repeat(pad));
    assert_eq!(ok_line.len(), MAX_LINE_BYTES);
    let (resp_line, _) = server.handle_line(&ok_line);
    assert!(parse_response(&resp_line).unwrap().is_ok());
}

/// A reader that counts the bytes it hands out, in a counter shared with
/// [`RecordingWriter`].
struct CountingReader {
    data: Cursor<Vec<u8>>,
    consumed: Rc<Cell<usize>>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.data.read(buf)?;
        self.consumed.set(self.consumed.get() + n);
        Ok(n)
    }
}

/// Collects response lines, each with the input bytes consumed by the
/// time it was flushed.
struct RecordingWriter {
    pending: Vec<u8>,
    lines: Vec<(String, usize)>,
    consumed: Rc<Cell<usize>>,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let text = String::from_utf8(std::mem::take(&mut self.pending)).expect("UTF-8 responses");
        for line in text.lines() {
            self.lines.push((line.to_string(), self.consumed.get()));
        }
        Ok(())
    }
}

/// Serves `input` as one connection; returns each response with the
/// input consumed when it was flushed.
fn serve_bytes(input: Vec<u8>) -> Vec<(Response, usize)> {
    let server = Server::new(&ServerConfig::default()).unwrap();
    let consumed = Rc::new(Cell::new(0));
    let reader = BufReader::new(CountingReader {
        data: Cursor::new(input),
        consumed: Rc::clone(&consumed),
    });
    let mut writer = RecordingWriter {
        pending: Vec::new(),
        lines: Vec::new(),
        consumed,
    };
    server.serve_connection(reader, &mut writer);
    writer
        .lines
        .into_iter()
        .map(|(line, at)| (parse_response(&line).unwrap(), at))
        .collect()
}

fn assert_oversized(resp: &Response, ctx: &str) {
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized, "{ctx}"),
        ref other => panic!("{ctx}: expected oversized error, got {other:?}"),
    }
}

const PING: &str = "{\"v\":1,\"id\":\"p\",\"op\":\"ping\"}";

#[test]
fn oversized_lines_are_answered_before_the_rest_is_read() {
    // 8 MiB without a line ending: the rejection must not wait for (or
    // buffer) the whole line. The multi-byte filler puts the cap inside
    // a UTF-8 character, which must still read as oversized.
    let ascii = vec![b'x'; 8 << 20];
    let mut split = b"x".to_vec();
    split.extend("é".repeat(4 << 20).into_bytes());
    for (filler, ctx) in [(ascii, "ascii"), (split, "split utf-8")] {
        let mut input = filler;
        input.push(b'\n');
        input.extend_from_slice(PING.as_bytes());
        input.push(b'\n');
        let responses = serve_bytes(input);
        assert_eq!(responses.len(), 2, "{ctx}: one response per line");
        let (first, consumed) = &responses[0];
        assert_oversized(first, ctx);
        assert!(
            *consumed <= MAX_LINE_BYTES + (64 << 10),
            "{ctx}: answered after {consumed} bytes of input"
        );
        assert_eq!(responses[1].0.id, "p", "{ctx}: the connection stays open");
        assert_eq!(responses[1].0.body, ResponseBody::Pong, "{ctx}");
    }
}

#[test]
fn a_line_of_exactly_the_cap_is_served_with_either_ending() {
    let pad = MAX_LINE_BYTES - "{\"v\":1,\"id\":\"\",\"op\":\"ping\"}".len();
    let line = |pad: usize| format!("{{\"v\":1,\"id\":\"{}\",\"op\":\"ping\"}}", "y".repeat(pad));
    for ending in ["\n", "\r\n"] {
        let ctx = format!("ending {ending:?}");
        let input = format!("{}{ending}{PING}{ending}", line(pad));
        let responses = serve_bytes(input.into_bytes());
        assert_eq!(responses.len(), 2, "{ctx}");
        assert_eq!(responses[0].0.body, ResponseBody::Pong, "{ctx}: at the cap");
        assert_eq!(responses[0].0.id.len(), pad, "{ctx}: id echoed");
        assert_eq!(responses[1].0.body, ResponseBody::Pong, "{ctx}");

        // One byte over the cap is oversized, and the next line is served.
        let input = format!("{}{ending}{PING}{ending}", line(pad + 1));
        let responses = serve_bytes(input.into_bytes());
        assert_eq!(responses.len(), 2, "{ctx}");
        assert_oversized(&responses[0].0, &ctx);
        assert_eq!(responses[1].0.body, ResponseBody::Pong, "{ctx}");
    }
}

#[test]
fn parse_errors_become_typed_error_responses() {
    let server = Server::new(&ServerConfig::default()).unwrap();
    let (line, close) = server.handle_line("garbage");
    assert!(!close);
    let resp = parse_response(&line).unwrap();
    assert!(!resp.is_ok());
    match resp.body {
        ResponseBody::Error { code, message } => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(message.contains("parse error"), "{message}");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
}

/// The labeled-graph JSON grammar is shared with `ged_graph::io`, so an
/// inline graph that crate can print must parse inside a request.
#[test]
fn inline_graphs_share_the_io_grammar() {
    let g = Graph::from_edges(vec![Label(1), Label(2)], &[(0, 1)]);
    let line = format!(
        "{{\"v\":1,\"id\":\"q\",\"op\":\"insert_graph\",\"graph\":{}}}",
        ged_graph::io::graph_to_json(&g)
    );
    match parse_request(&line).unwrap() {
        Request::InsertGraph { graph, .. } => assert_eq!(graph, g),
        other => panic!("unexpected {other:?}"),
    }
}

/// The `server-snapshot` wrapper (revision + name table + store
/// snapshot) round-trips bit-exactly, and a name table whose length
/// disagrees with the store is rejected with a positioned error.
#[test]
fn server_snapshot_wrapper_round_trips() {
    use ged_server::codec::{encode_server_snapshot, parse_server_snapshot};
    let mut rng = SmallRng::seed_from_u64(0x5AFE);
    let mut store = ged_graph::ShardedStore::new(3);
    let mut names = Vec::new();
    for i in 0..9 {
        store.insert(random_graph(&mut rng));
        names.push(format!("g{i}\"needs\\escaping"));
    }
    let line = encode_server_snapshot(store.revision(), 42, &names, &store);
    let snap = parse_server_snapshot(&line).expect("wrapper parses");
    assert_eq!(snap.rev, store.revision());
    assert_eq!(snap.next_name, 42);
    assert_eq!(snap.names, names);
    assert_eq!(snap.store.ids(), store.ids());
    assert_eq!(
        encode_server_snapshot(snap.rev, snap.next_name, &snap.names, &snap.store),
        line,
        "re-encoding is byte-stable"
    );

    names.pop();
    let short = encode_server_snapshot(store.revision(), 42, &names, &store);
    let err = parse_server_snapshot(&short).expect_err("name table too short");
    assert!(err.to_string().contains("name table"), "{err}");
}
