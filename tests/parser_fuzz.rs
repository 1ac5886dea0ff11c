//! Seeded mutation fuzzing of the wire and snapshot parsers.
//!
//! Inputs are the protocol round-trip corpus (`ged_testkit::wire`) and a
//! 50-graph server snapshot. Each is mutated by truncation, byte flips,
//! splicing with another input, 100,000-deep `[`/`{` nesting and injected
//! 400-digit or `1e999` numbers. Every parser must return (no panic, no
//! unbounded recursion), and `Server::handle_line` must answer every
//! mutated request line with exactly one line that parses as a response.
//! Release builds run this too: the daemon runs without overflow checks.

use ged_testkit::wire::{random_graph, random_request, random_response};
use ged_testkit::PROPERTY_SEED;
use ot_ged::graph::ShardedStore;
use ot_ged::server::codec::{encode_server_snapshot, parse_server_snapshot};
use ot_ged::server::protocol::Request;
use ot_ged::server::{encode_request, encode_response, parse_request, parse_response};
use ot_ged::server::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 8000;

fn corpus(rng: &mut SmallRng) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..150)
        .map(|i| encode_request(&random_request(i, rng)).into_bytes())
        .collect();
    out.extend((0..150).map(|i| encode_response(&random_response(i, rng)).into_bytes()));
    let mut store = ShardedStore::new(4);
    for _ in 0..50 {
        store.insert(random_graph(rng));
    }
    let names: Vec<String> = (0..50).map(|i| format!("g{i}")).collect();
    out.push(encode_server_snapshot(3, 50, &names, &store).into_bytes());
    out
}

fn mutate(corpus: &[Vec<u8>], rng: &mut SmallRng) -> Vec<u8> {
    let mut s = corpus[rng.gen_range(0..corpus.len())].clone();
    let at = rng.gen_range(0..=s.len());
    match rng.gen_range(0..6) {
        0 => s.truncate(at),
        1 => {
            for _ in 0..rng.gen_range(1..4) {
                if !s.is_empty() {
                    let i = rng.gen_range(0..s.len());
                    s[i] = rng.gen_range(0..=255u8);
                }
            }
        }
        2 => {
            let other = &corpus[rng.gen_range(0..corpus.len())];
            s.truncate(at);
            s.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
        }
        3 => {
            let open = if rng.gen_bool(0.5) { b'[' } else { b'{' };
            s.splice(at..at, std::iter::repeat_n(open, 100_000));
        }
        4 => {
            let digits: Vec<u8> = (0..400).map(|_| rng.gen_range(b'0'..=b'9')).collect();
            s.splice(at..at, digits);
        }
        _ => {
            // Replace the number starting at a random digit, if any.
            let end = s[at..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(s.len(), |n| at + n);
            let big: &[u8] = if rng.gen_bool(0.5) {
                b"1e999"
            } else {
                b"-1e999"
            };
            s.splice(at..end, big.iter().copied());
        }
    }
    s
}

#[test]
fn mutated_inputs_never_panic_and_every_line_gets_one_response() {
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 0xF022);
    let corpus = corpus(&mut rng);
    let mut answered = 0;
    for round in 0..ROUNDS {
        let bytes = mutate(&corpus, &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        let request = parse_request(&text);
        let _ = parse_response(&text);
        let _ = parse_server_snapshot(&text);
        // Paths would touch the file system, and a shutdown stops the
        // server: those lines are only parsed.
        if let Ok(
            Request::Snapshot { path: Some(_), .. }
            | Request::Load { path: Some(_), .. }
            | Request::Shutdown { .. },
        ) = request
        {
            continue;
        }
        // Wire lines carry no raw newline.
        let line = text.replace(['\n', '\r'], " ");
        let server = Server::new(&ServerConfig::default()).expect("default config");
        let (response, _) = server.handle_line(&line);
        assert!(!response.contains('\n'), "round {round}: one line");
        let parsed = parse_response(&response);
        assert!(parsed.is_ok(), "round {round}: {response}");
        answered += 1;
    }
    assert!(answered > ROUNDS / 2, "{answered} lines served");
}
