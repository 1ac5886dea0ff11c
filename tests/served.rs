//! Serving-layer properties, on the in-process harness
//! (`ged_testkit::served`): concurrent wire sessions are bit-identical
//! to a serial replay of the same requests, graceful shutdown drains and
//! answers every admitted request, and deadline / admission rejections
//! are typed and deterministic.

use ged_testkit::served::{connect, serve_in_process};
use ged_testkit::PROPERTY_SEED;
use ot_ged::graph::generate::random_connected;
use ot_ged::graph::io::graph_to_json;
use ot_ged::graph::Graph;
use ot_ged::server::protocol::{ErrorCode, Request, Response, ResponseBody};
use ot_ged::server::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn small_graph(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(3..7);
    random_connected(n, rng.gen_range(0..3), &[3.0, 2.0, 1.0], rng)
}

/// A random request line for the replay property: reads and mutations
/// over a shifting pool of stored names (many of which won't resolve —
/// typed errors must replay bit-identically too).
fn random_op_line(id: &str, rng: &mut SmallRng) -> String {
    let name = |rng: &mut SmallRng| format!("\"g{}\"", rng.gen_range(0..20));
    let graph_ref = |rng: &mut SmallRng| {
        if rng.gen_bool(0.5) {
            name(rng)
        } else {
            graph_to_json(&small_graph(rng))
        }
    };
    match rng.gen_range(0..100) {
        0..=29 => format!(
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"insert_graph\",\"graph\":{}}}",
            graph_to_json(&small_graph(rng))
        ),
        30..=44 => format!(
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"remove_graph\",\"name\":{}}}",
            name(rng)
        ),
        45..=69 => format!(
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"predict\",\"g1\":{},\"g2\":{}}}",
            graph_ref(rng),
            graph_ref(rng)
        ),
        70..=84 => format!(
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"top_k\",\"query\":{},\"k\":{}}}",
            graph_ref(rng),
            rng.gen_range(1..5)
        ),
        85..=94 => format!(
            "{{\"v\":1,\"id\":\"{id}\",\"op\":\"range\",\"query\":{},\"tau\":{}}}",
            graph_ref(rng),
            rng.gen_range(0..8)
        ),
        _ => format!("{{\"v\":1,\"id\":\"{id}\",\"op\":\"ping\"}}"),
    }
}

fn response_rev(line: &str) -> (u64, bool) {
    let resp: Response = ot_ged::server::parse_response(line).expect("well-formed response");
    let is_mutation = matches!(
        resp.body,
        ResponseBody::Inserted { .. } | ResponseBody::Removed { .. }
    );
    (resp.rev, is_mutation)
}

/// N concurrent wire sessions interleaving reads and mutations produce
/// exactly the responses a serial replay produces: mutations applied in
/// `rev` order against a fresh server, each read re-issued at the state
/// its `rev` marks. Bit-identical response lines, errors included.
#[test]
fn concurrent_sessions_are_bit_identical_to_serial_replay() {
    const THREADS: u64 = 4;
    const OPS: usize = 15;
    let config = ServerConfig {
        threads: Some(2),
        ..ServerConfig::default()
    };
    let (server, mut setup) = serve_in_process(&config);

    // Seed a few graphs over the wire (recorded — the replay needs them).
    let mut recorded: Vec<(String, String)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED);
    for i in 0..5 {
        let line = format!(
            "{{\"v\":1,\"id\":\"seed{i}\",\"op\":\"insert_graph\",\"graph\":{}}}",
            graph_to_json(&small_graph(&mut rng))
        );
        let resp = setup.request_line(&line);
        recorded.push((line, resp));
    }

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut client = connect(&server);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 1 + t);
                let mut log = Vec::with_capacity(OPS);
                for i in 0..OPS {
                    let line = random_op_line(&format!("t{t}-{i}"), &mut rng);
                    let resp = client.request_line(&line);
                    log.push((line, resp));
                }
                log
            })
        })
        .collect();
    for h in handles {
        recorded.extend(h.join().expect("worker thread"));
    }

    // Split the transcript: mutations keyed by the rev they produced,
    // everything else keyed by the rev it observed.
    let mut mutations: BTreeMap<u64, (String, String)> = BTreeMap::new();
    let mut reads: BTreeMap<u64, Vec<(String, String)>> = BTreeMap::new();
    for (req, resp) in recorded {
        let (rev, is_mutation) = response_rev(&resp);
        if is_mutation {
            let prev = mutations.insert(rev, (req, resp));
            assert!(prev.is_none(), "two mutations claim rev {rev}");
        } else {
            reads.entry(rev).or_default().push((req, resp));
        }
    }
    let total = mutations.len() as u64;
    assert!(
        mutations.keys().copied().eq(1..=total),
        "mutation revs must be the contiguous sequence 1..={total}"
    );

    // Serial replay on a fresh server, no concurrency anywhere.
    let replay = Server::new(&config).expect("replay server");
    for at_rev in 0..=total {
        for (req, want) in reads.get(&at_rev).into_iter().flatten() {
            let (got, close) = replay.handle_line(req);
            assert!(!close);
            assert_eq!(&got, want, "read at rev {at_rev} diverged\nreq: {req}");
        }
        if let Some((req, want)) = mutations.get(&(at_rev + 1)) {
            let (got, close) = replay.handle_line(req);
            assert!(!close);
            assert_eq!(&got, want, "mutation to rev {} diverged", at_rev + 1);
        }
    }
}

/// `shutdown` with queries verifiably in flight: the drain answers every
/// admitted request in full, shutdown itself answers last, the served
/// connections then see EOF, and later requests (any connection) get a
/// typed `shutting_down` error.
#[test]
fn shutdown_drains_and_answers_inflight_queries() {
    const CLIENTS: u64 = 3;
    let config = ServerConfig {
        threads: Some(2),
        ..ServerConfig::default()
    };
    let (server, mut control) = serve_in_process(&config);
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 100);
    // The matrix query must verifiably overlap with the control
    // connection's polling below: a 40-graph store of 14–17-node
    // graphs keeps each matrix ~100 ms+, so three staggered clients
    // are reliably in flight at once (a dozen small graphs answer in
    // ~2 ms — faster than the clients are spawned — and the poll loop
    // would never observe them together).
    for _ in 0..40 {
        let n = rng.gen_range(14..18);
        server.insert_local(random_connected(n, 3, &[3.0, 2.0, 1.0], &mut rng));
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let mut client = connect(&server);
            std::thread::spawn(move || {
                // The full pairwise matrix: heavy enough to still be
                // running while the control connection polls and shuts
                // down.
                let resp = client.call(&Request::Matrix {
                    id: format!("m{t}"),
                    deadline_ms: None,
                });
                let eof = client.recv_line().is_none();
                (resp, eof)
            })
        })
        .collect();

    // Wait until every query is verifiably admitted (stats is
    // admission-exempt, so it answers while the pool is busy), then
    // shut down mid-flight.
    loop {
        let resp = control.call(&Request::Stats {
            id: "s".to_string(),
        });
        match resp.body {
            ResponseBody::Stats(ref s) if s.inflight == CLIENTS => break,
            ResponseBody::Stats(_) => {}
            other => panic!("stats failed: {other:?}"),
        }
    }
    let resp = control.call(&Request::Shutdown {
        id: "bye".to_string(),
    });
    assert_eq!(resp.body, ResponseBody::ShutdownComplete);
    assert!(
        control.recv_line().is_none(),
        "the shutdown connection closes after answering"
    );

    // Every in-flight query was answered in full before shutdown
    // returned — never hung, never dropped.
    for h in handles {
        let (resp, eof) = h.join().expect("client thread");
        assert!(
            matches!(resp.body, ResponseBody::Matrix { .. }),
            "drained query must be answered with its real result, got {:?}",
            resp.body
        );
        assert!(eof, "served connections see EOF after the drain");
    }

    // The server object stays in the draining state: new sessions are
    // answered with a typed error, and a second shutdown is too.
    let mut late = connect(&server);
    let resp = late.call(&Request::Ping {
        id: "late".to_string(),
    });
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    let resp = late.call(&Request::Shutdown {
        id: "again".to_string(),
    });
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    assert!(late.recv_line().is_none(), "second shutdown also closes");
}

/// A zero deadline deterministically fails before executing, with the
/// same typed response every time.
#[test]
fn zero_deadline_is_a_deterministic_typed_rejection() {
    let (server, mut client) = serve_in_process(&ServerConfig::default());
    let name = server.insert_local(small_graph(&mut SmallRng::seed_from_u64(1)));
    let line = format!(
        "{{\"v\":1,\"id\":\"d\",\"op\":\"predict\",\"g1\":\"{name}\",\"g2\":\"{name}\",\"deadline_ms\":0}}"
    );
    let first = client.request_line(&line);
    let resp = ot_ged::server::parse_response(&first).unwrap();
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    for _ in 0..3 {
        assert_eq!(client.request_line(&line), first, "bit-identical rejection");
    }
}

/// With a zero admission cap every store/engine request is rejected as
/// `overloaded` — while introspection still answers.
#[test]
fn zero_admission_cap_rejects_with_overloaded() {
    let config = ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    };
    let (server, mut client) = serve_in_process(&config);
    let name = server.insert_local(small_graph(&mut SmallRng::seed_from_u64(2)));
    let resp = client.call(&Request::Predict {
        id: "p".to_string(),
        g1: ot_ged::server::protocol::GraphRef::Name(name.clone()),
        g2: ot_ged::server::protocol::GraphRef::Name(name),
        deadline_ms: None,
    });
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(
        client
            .call(&Request::Ping {
                id: "p2".to_string()
            })
            .body,
        ResponseBody::Pong,
        "introspection is admission-exempt"
    );
    let resp = client.call(&Request::Stats {
        id: "p3".to_string(),
    });
    assert!(matches!(resp.body, ResponseBody::Stats(_)));
}

/// Pipelined requests on one connection are answered in order, one
/// response line per request line.
#[test]
fn pipelined_requests_answer_in_order() {
    let (_server, mut client) = serve_in_process(&ServerConfig::default());
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request::Ping {
            id: format!("p{i}"),
        })
        .collect();
    let resps = client.pipeline(&reqs);
    assert_eq!(resps.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.id, req.id());
        assert_eq!(resp.body, ResponseBody::Pong);
    }
}

/// The join ops over the wire: `self_join` answers stored-name pairs
/// with exact distances, `join` addresses the inline query batch by
/// position (`"q{i}"`), the candidate accounting closes to the exact
/// pair counts, and an empty store is a typed `empty_store` error.
#[test]
fn joins_answer_over_the_wire() {
    use ot_ged::graph::Label;
    let (server, mut client) = serve_in_process(&ServerConfig::default());

    // An empty store rejects both join ops with a typed error.
    let resp = client.call(&Request::SelfJoin {
        id: "e".to_string(),
        tau: 1.0,
        deadline_ms: None,
    });
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::EmptyStore),
        other => panic!("expected empty_store, got {other:?}"),
    }

    // Two copies of a path, a triangle, and a star: the only pair
    // within τ = 0 is the duplicated path.
    let path = Graph::from_edges(vec![Label(1), Label(1)], &[(0, 1)]);
    let tri = Graph::from_edges(
        vec![Label(2), Label(2), Label(2)],
        &[(0, 1), (1, 2), (0, 2)],
    );
    let star = Graph::from_edges(
        vec![Label(1), Label(1), Label(1), Label(1)],
        &[(0, 1), (0, 2), (0, 3)],
    );
    let p1 = server.insert_local(path.clone());
    let p2 = server.insert_local(path.clone());
    let t = server.insert_local(tri.clone());
    server.insert_local(star);

    let resp = client.call(&Request::SelfJoin {
        id: "sj".to_string(),
        tau: 0.0,
        deadline_ms: None,
    });
    match resp.body {
        ResponseBody::SelfJoin {
            ref pairs,
            ref undecided,
            candidates,
            verified,
        } => {
            assert_eq!(pairs.len(), 1, "only the duplicated path matches at τ = 0");
            assert_eq!((&pairs[0].a, &pairs[0].b), (&p1, &p2));
            assert_eq!(pairs[0].ged, 0);
            assert!(undecided.is_empty());
            assert_eq!(candidates, 6, "4 stored graphs make 6 unordered pairs");
            assert!(verified <= candidates);
        }
        other => panic!("expected self_join, got {other:?}"),
    }

    // A two-graph inline batch against the store: positions "q0"/"q1".
    let resp = client.call(&Request::Join {
        id: "j".to_string(),
        graphs: vec![path, tri],
        tau: 0.0,
        deadline_ms: None,
    });
    match resp.body {
        ResponseBody::Join {
            ref pairs,
            candidates,
            ..
        } => {
            let got: Vec<(String, String, u64)> = pairs
                .iter()
                .map(|p| (p.a.clone(), p.b.clone(), p.ged))
                .collect();
            assert_eq!(
                got,
                vec![
                    ("q0".to_string(), p1.clone(), 0),
                    ("q0".to_string(), p2.clone(), 0),
                    ("q1".to_string(), t.clone(), 0),
                ],
                "each query matches exactly its stored copies, in order"
            );
            assert_eq!(candidates, 8, "2 queries × 4 stored graphs");
        }
        other => panic!("expected join, got {other:?}"),
    }
}

/// A tight (but nonzero) deadline aborts a heavy store-level query
/// **mid-execution** via the engine's cooperative deadline — the typed
/// rejection arrives in a small fraction of the query's full runtime,
/// which the completion-time-only check of the old serving path could
/// never do.
#[test]
fn deadline_aborts_store_queries_mid_execution() {
    let config = ServerConfig {
        threads: Some(1),
        ..ServerConfig::default()
    };
    let (server, mut client) = serve_in_process(&config);
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 500);
    for _ in 0..128 {
        let n = rng.gen_range(8..10);
        server.insert_local(random_connected(n, 3, &[3.0, 2.0, 1.0], &mut rng));
    }

    // Baseline: the full self-join, no deadline. τ = 4 keeps each
    // τ-bounded search tractable while the 8,128-pair matrix still
    // takes orders of magnitude longer than an aborted plan.
    let start = std::time::Instant::now();
    let resp = client.call(&Request::SelfJoin {
        id: "full".to_string(),
        tau: 4.0,
        deadline_ms: None,
    });
    let full = start.elapsed();
    // The premise of the comparison below: a 1 ms deadline plus the
    // verification block in flight when it expires is a small fraction
    // of the whole join. If a faster plan breaks it, grow the join.
    assert!(
        full >= std::time::Duration::from_millis(50),
        "the full join must be heavy enough to abort mid-plan (took {full:?})"
    );
    assert!(
        matches!(resp.body, ResponseBody::SelfJoin { .. }),
        "baseline join must succeed, got {:?}",
        resp.body
    );

    // Deadline run: 1 ms passes admission (only 0 is rejected up
    // front) but expires inside the plan, which must abandon the
    // remaining verification blocks instead of finishing them.
    let start = std::time::Instant::now();
    let resp = client.call(&Request::SelfJoin {
        id: "cut".to_string(),
        tau: 4.0,
        deadline_ms: Some(1),
    });
    let aborted = start.elapsed();
    match resp.body {
        ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    assert!(
        aborted * 4 < full,
        "cooperative abort must return in a fraction of the full runtime \
         (aborted after {aborted:?}, full query takes {full:?})"
    );
}

/// `snapshot` → fresh server → `load` over the wire restores every
/// graph by name, answers queries identically, and keeps minting fresh
/// revisions past the restored one. Without a configured store path,
/// pathless snapshot requests get a typed `config` error.
#[test]
fn snapshot_and_load_restore_the_store_over_the_wire() {
    let dir = std::env::temp_dir().join("ot_ged_served_snapshot_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wire.snapshot.json");
    let path_json = format!("\"{}\"", path.display());

    let (_server, mut client) = serve_in_process(&ServerConfig::default());
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 77);
    for i in 0..8 {
        let line = format!(
            "{{\"v\":1,\"id\":\"s{i}\",\"op\":\"insert_graph\",\"graph\":{}}}",
            graph_to_json(&small_graph(&mut rng))
        );
        assert!(
            client.request_line(&line).contains("\"ok\":true"),
            "insert {i}"
        );
    }
    let probe = format!(
        "{{\"v\":1,\"id\":\"q\",\"op\":\"top_k\",\"query\":{},\"k\":4}}",
        graph_to_json(&small_graph(&mut rng))
    );
    let want = client.request_line(&probe);

    // No --store and no "path" field: a typed config error.
    let resp = client.request_line("{\"v\":1,\"id\":\"nope\",\"op\":\"snapshot\"}");
    match ot_ged::server::parse_response(&resp)
        .expect("well-formed")
        .body
    {
        ResponseBody::Error { code, message } => {
            assert_eq!(code, ErrorCode::Config);
            assert!(message.contains("no snapshot path"), "{message}");
        }
        other => panic!("expected config error, got {other:?}"),
    }

    let resp = client.request_line(&format!(
        "{{\"v\":1,\"id\":\"snap\",\"op\":\"snapshot\",\"path\":{path_json}}}"
    ));
    match ot_ged::server::parse_response(&resp)
        .expect("well-formed")
        .body
    {
        ResponseBody::Snapshotted { graphs, .. } => assert_eq!(graphs, 8),
        other => panic!("expected snapshotted, got {other:?}"),
    }

    // A brand-new server restores the snapshot over the wire.
    let (_server2, mut restored) = serve_in_process(&ServerConfig::default());
    let resp = restored.request_line(&format!(
        "{{\"v\":1,\"id\":\"load\",\"op\":\"load\",\"path\":{path_json}}}"
    ));
    let loaded = ot_ged::server::parse_response(&resp).expect("well-formed");
    match loaded.body {
        ResponseBody::Loaded { graphs, .. } => assert_eq!(graphs, 8),
        other => panic!("expected loaded, got {other:?}"),
    }

    // Identical store, identical answer (modulo each response's own rev).
    let got = restored.request_line(&probe);
    let strip_rev = |s: &str| {
        let at = s.find("\"rev\":").expect("rev field");
        let end = s[at..].find(',').map_or(s.len(), |c| at + c);
        format!("{}{}", &s[..at], &s[end..])
    };
    assert_eq!(strip_rev(&got), strip_rev(&want), "top-k across load");

    // Restored names resolve; mutations resume past the restored rev.
    let resp =
        restored.request_line("{\"v\":1,\"id\":\"rm\",\"op\":\"remove_graph\",\"name\":\"g3\"}");
    let removed = ot_ged::server::parse_response(&resp).expect("well-formed");
    assert!(removed.is_ok(), "restored name resolves: {resp}");
    assert!(removed.rev > loaded.rev, "revisions keep climbing");

    std::fs::remove_file(&path).ok();
}

fn error_of(line: &str) -> (String, ErrorCode, String) {
    let resp = ot_ged::server::parse_response(line).expect("well-formed");
    match resp.body {
        ResponseBody::Error { code, message } => (resp.id, code, message),
        other => panic!("expected an error, got {other:?}"),
    }
}

/// A request is answered whatever the order of its members, and a
/// rejected line echoes its id once the parser has read it.
#[test]
fn members_in_any_order_and_parse_errors_echo_the_id() {
    let (_server, mut client) = serve_in_process(&ServerConfig::default());
    let pong = client.request_line("{\"id\":\"b\",\"op\":\"ping\",\"v\":1}");
    assert_eq!(
        pong,
        "{\"v\":1,\"id\":\"b\",\"ok\":true,\"rev\":0,\"type\":\"pong\"}"
    );
    let inserted = client.request_line(
        "{\"graph\":{\"edges\":[[0,1]],\"labels\":[1,2]},\"op\":\"insert_graph\",\"id\":\"i\",\"v\":1}",
    );
    assert!(
        inserted.contains("\"type\":\"inserted\",\"name\":\"g0\""),
        "{inserted}"
    );

    // `k` is missing: the error comes after the id was read.
    let line = client.request_line("{\"v\":1,\"id\":\"b\",\"op\":\"top_k\",\"query\":\"g0\"}");
    let (id, code, message) = error_of(&line);
    assert_eq!((id.as_str(), code), ("b", ErrorCode::Parse), "{message}");
    // Unknown, duplicate and foreign members also echo the id.
    for (line, what) in [
        (
            "{\"v\":1,\"id\":\"u\",\"op\":\"ping\",\"extra\":1}",
            "unknown key",
        ),
        (
            "{\"v\":1,\"id\":\"d\",\"op\":\"ping\",\"op\":\"ping\"}",
            "duplicate key",
        ),
        (
            "{\"op\":\"ping\",\"k\":3,\"id\":\"f\",\"v\":1}",
            "unknown key",
        ),
    ] {
        let (id, code, message) = error_of(&client.request_line(line));
        assert_eq!(code, ErrorCode::Parse);
        assert!(message.contains(what), "{message}");
        assert_eq!(id, &line[line.find("\"id\":\"").unwrap() + 6..][..1]);
    }
    // An error before the id is read cannot echo it.
    let (id, ..) = error_of(&client.request_line("{\"v\":1,\"bad\":0,\"id\":\"late\"}"));
    assert_eq!(id, "");
    // So does a version mismatch found after the id, answered with the
    // `protocol` code.
    let (id, code, message) =
        error_of(&client.request_line("{\"id\":\"p\",\"v\":2,\"op\":\"ping\"}"));
    assert_eq!(id, "p");
    assert_eq!(code, ErrorCode::Protocol);
    assert!(message.contains("invalid protocol version"), "{message}");
}

/// `snapshot` writes through a temporary file: when that file cannot be
/// created the op fails with `io`, and the previous snapshot keeps every
/// byte.
#[test]
fn a_failed_snapshot_leaves_the_previous_file_intact() {
    let dir = std::env::temp_dir().join(format!("ot_ged_served_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("store.json");
    let config = ServerConfig {
        store_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (_server, mut client) = serve_in_process(&config);
    let insert = "{\"v\":1,\"id\":\"i\",\"op\":\"insert_graph\",\"graph\":{\"labels\":[1,2],\"edges\":[[0,1]]}}";
    assert!(client.request_line(insert).contains("\"ok\":true"));
    let snapshot = "{\"v\":1,\"id\":\"s\",\"op\":\"snapshot\"}";
    assert!(client
        .request_line(snapshot)
        .contains("\"type\":\"snapshotted\""));
    let before = std::fs::read(&path).expect("first snapshot");

    assert!(client.request_line(insert).contains("\"ok\":true"));
    std::fs::create_dir(dir.join("store.json.tmp")).expect("occupy the temporary name");
    let (id, code, message) = error_of(&client.request_line(snapshot));
    assert_eq!((id.as_str(), code), ("s", ErrorCode::Io), "{message}");
    assert_eq!(std::fs::read(&path).expect("old snapshot"), before);

    // Once the name is free again, the snapshot goes through.
    std::fs::remove_dir(dir.join("store.json.tmp")).expect("free the name");
    assert!(client.request_line(snapshot).contains("\"graphs\":2"));
    assert_ne!(std::fs::read(&path).expect("new snapshot"), before);
    std::fs::remove_dir_all(&dir).ok();
}
