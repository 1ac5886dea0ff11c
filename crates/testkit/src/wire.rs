//! Seeded generators of every `ged-served` wire message: the corpus of
//! the protocol round-trip, key-order and parser-fuzz suites.
//!
//! Strings stress the escaper (quotes, backslashes, control bytes,
//! multi-byte UTF-8), floats the shortest-round-trip encoder, and
//! integers the full `u64` range.

use ged_graph::generate::random_connected;
use ged_graph::{CanonicalOp, Graph};
use ged_server::protocol::{
    ErrorCode, GraphRef, Request, Response, ResponseBody, StatsBody, WireExactNeighbor,
    WireJoinPair, WireJoinUndecided, WireNeighbor, WireUndecided,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Ids and names stress the string escaper: quotes, backslashes,
/// newlines, control bytes, multi-byte UTF-8.
fn random_string(rng: &mut SmallRng) -> String {
    const POOL: &[char] = &[
        'a', 'B', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', 'é', '日', '{',
        '}', ':', ',', '[', ']',
    ];
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

/// A connected graph of 1–7 nodes over three labels.
pub fn random_graph(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(1..8);
    random_connected(n, rng.gen_range(0..3), &[3.0, 2.0, 1.0], rng)
}

fn random_graph_ref(rng: &mut SmallRng) -> GraphRef {
    if rng.gen_bool(0.5) {
        GraphRef::Name(random_string(rng))
    } else {
        GraphRef::Inline(random_graph(rng))
    }
}

/// Finite floats exercising the shortest-round-trip encoder: special
/// values plus random magnitudes across the exponent range.
fn random_f64(rng: &mut SmallRng) -> f64 {
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1e-9,
        -2.5e17,
        f64::MAX,
        f64::MIN_POSITIVE,
        123_456.789,
    ];
    if rng.gen_bool(0.4) {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-1e6..1e6)
    }
}

fn random_deadline(rng: &mut SmallRng) -> Option<u64> {
    match rng.gen_range(0..3) {
        0 => None,
        1 => Some(0),
        _ => Some(rng.gen_range(1..u64::MAX)),
    }
}

fn random_ub(rng: &mut SmallRng) -> Option<u64> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0..u64::MAX))
    } else {
        None
    }
}

/// The number of [`Request`] variants [`random_request`] cycles through.
const REQUEST_VARIANTS: usize = 15;

/// One random request per call, cycling through every variant.
pub fn random_request(variant: usize, rng: &mut SmallRng) -> Request {
    let id = random_string(rng);
    match variant % REQUEST_VARIANTS {
        0 => Request::Ping { id },
        1 => Request::Stats { id },
        2 => Request::Shutdown { id },
        3 => Request::InsertGraph {
            id,
            graph: random_graph(rng),
        },
        4 => Request::RemoveGraph {
            id,
            name: random_string(rng),
        },
        5 => Request::Predict {
            id,
            g1: random_graph_ref(rng),
            g2: random_graph_ref(rng),
            deadline_ms: random_deadline(rng),
        },
        6 => Request::EditPath {
            id,
            g1: random_graph_ref(rng),
            g2: random_graph_ref(rng),
            k: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..1000))
            } else {
                None
            },
            deadline_ms: random_deadline(rng),
        },
        7 => Request::TopK {
            id,
            query: random_graph_ref(rng),
            k: rng.gen_range(0..u64::MAX),
            deadline_ms: random_deadline(rng),
        },
        8 => Request::Range {
            id,
            query: random_graph_ref(rng),
            tau: random_f64(rng),
            deadline_ms: random_deadline(rng),
        },
        9 => Request::RangeExact {
            id,
            query: random_graph_ref(rng),
            tau: random_f64(rng),
            deadline_ms: random_deadline(rng),
        },
        10 => Request::Matrix {
            id,
            deadline_ms: random_deadline(rng),
        },
        11 => Request::Snapshot {
            id,
            path: if rng.gen_bool(0.5) {
                Some(random_string(rng))
            } else {
                None
            },
        },
        12 => Request::Load {
            id,
            path: if rng.gen_bool(0.5) {
                Some(random_string(rng))
            } else {
                None
            },
        },
        13 => Request::SelfJoin {
            id,
            tau: random_f64(rng),
            deadline_ms: random_deadline(rng),
        },
        _ => Request::Join {
            id,
            graphs: (0..rng.gen_range(0..4))
                .map(|_| random_graph(rng))
                .collect(),
            tau: random_f64(rng),
            deadline_ms: random_deadline(rng),
        },
    }
}

fn random_ops(rng: &mut SmallRng) -> Vec<CanonicalOp> {
    (0..rng.gen_range(0..6))
        .map(|_| match rng.gen_range(0..4) {
            0 => CanonicalOp::Relabel(rng.gen_range(0..100)),
            1 => CanonicalOp::InsertNode(rng.gen_range(0..100)),
            2 => CanonicalOp::DeleteEdge(rng.gen_range(0..50), rng.gen_range(0..50)),
            _ => CanonicalOp::InsertEdge(rng.gen_range(0..50), rng.gen_range(0..50)),
        })
        .collect()
}

/// Every [`ErrorCode`].
const ALL_CODES: &[ErrorCode] = &[
    ErrorCode::Parse,
    ErrorCode::Protocol,
    ErrorCode::Oversized,
    ErrorCode::UnknownGraph,
    ErrorCode::EmptyGraph,
    ErrorCode::InvalidK,
    ErrorCode::EmptyStore,
    ErrorCode::Unsupported,
    ErrorCode::Config,
    ErrorCode::DeadlineExceeded,
    ErrorCode::Overloaded,
    ErrorCode::ShuttingDown,
    ErrorCode::Io,
];

/// The number of [`ResponseBody`] arms [`random_response`] cycles
/// through.
const RESPONSE_VARIANTS: usize = 16;

/// One random response per call, cycling through every body variant
/// (the error arm itself cycles through every code).
pub fn random_response(variant: usize, rng: &mut SmallRng) -> Response {
    let body = match variant % RESPONSE_VARIANTS {
        0 => ResponseBody::Pong,
        1 => ResponseBody::ShutdownComplete,
        2 => ResponseBody::Stats(StatsBody {
            graphs: rng.gen_range(0..u64::MAX),
            method: random_string(rng),
            pivots: rng.gen_range(0..1000),
            cached_predictions: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..1000))
            } else {
                None
            },
            inflight: rng.gen_range(0..64),
            max_inflight: rng.gen_range(0..1000),
        }),
        3 => ResponseBody::Inserted {
            name: random_string(rng),
        },
        4 => ResponseBody::Removed {
            name: random_string(rng),
        },
        5 => ResponseBody::Ged {
            ged: random_f64(rng),
        },
        6 => ResponseBody::Path {
            ged: rng.gen_range(0..u64::MAX),
            mapping: (0..rng.gen_range(0..8))
                .map(|_| rng.gen_range(0..100))
                .collect(),
            ops: random_ops(rng),
        },
        7 => ResponseBody::Neighbors {
            neighbors: (0..rng.gen_range(0..5))
                .map(|_| WireNeighbor {
                    name: random_string(rng),
                    ged: random_f64(rng),
                })
                .collect(),
        },
        8 => ResponseBody::ExactMatches {
            matches: (0..rng.gen_range(0..5))
                .map(|_| WireExactNeighbor {
                    name: random_string(rng),
                    ged: rng.gen_range(0..u64::MAX),
                })
                .collect(),
            // The budget_exhausted payload, both proven (`Some`) and
            // unknown (`None`) membership.
            undecided: (0..rng.gen_range(0..5))
                .map(|_| WireUndecided {
                    name: random_string(rng),
                    known_match_ub: random_ub(rng),
                })
                .collect(),
        },
        9 => {
            let n = rng.gen_range(0..4);
            ResponseBody::Matrix {
                names: (0..n).map(|_| random_string(rng)).collect(),
                rows: (0..n)
                    .map(|_| (0..n).map(|_| random_f64(rng)).collect())
                    .collect(),
            }
        }
        10 => ResponseBody::Error {
            code: ALL_CODES[variant / RESPONSE_VARIANTS % ALL_CODES.len()],
            message: random_string(rng),
        },
        11 => ResponseBody::Snapshotted {
            path: random_string(rng),
            graphs: rng.gen_range(0..u64::MAX),
        },
        12 => ResponseBody::Loaded {
            path: random_string(rng),
            graphs: rng.gen_range(0..u64::MAX),
        },
        13 | 14 => {
            let pairs = (0..rng.gen_range(0..4))
                .map(|_| WireJoinPair {
                    a: random_string(rng),
                    b: random_string(rng),
                    ged: rng.gen_range(0..u64::MAX),
                })
                .collect();
            let undecided = (0..rng.gen_range(0..4))
                .map(|_| WireJoinUndecided {
                    a: random_string(rng),
                    b: random_string(rng),
                    known_match_ub: random_ub(rng),
                })
                .collect();
            let (candidates, verified) = (rng.gen_range(0..u64::MAX), rng.gen_range(0..u64::MAX));
            if variant % RESPONSE_VARIANTS == 13 {
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
        _ => ResponseBody::Neighbors {
            neighbors: Vec::new(),
        },
    };
    Response {
        id: random_string(rng),
        rev: rng.gen_range(0..u64::MAX),
        body,
    }
}
