//! Every parser takes object members in any order: for each message of
//! the wire corpus (`ged_testkit::wire`), for graphs, datasets and both
//! snapshot files, seeded permutations of the members of every object
//! parse to the value the encoder's order parses to. A repeated member
//! is rejected as `DuplicateKey` and an undefined one as `UnknownKey`,
//! each at the offending key.

use ged_testkit::wire::{random_graph, random_request, random_response};
use ged_testkit::PROPERTY_SEED;
use ot_ged::graph::io::{dataset_from_json, dataset_to_json, graph_from_json, graph_to_json};
use ot_ged::graph::{GraphDataset, ParseError, ParseErrorKind, PivotDistance, ShardedStore};
use ot_ged::server::codec::{encode_server_snapshot, parse_server_snapshot};
use ot_ged::server::{encode_request, encode_response, parse_request, parse_response};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A JSON text as a tree whose leaves keep their source text, so writing
/// it back reproduces the input byte for byte. Test-only: the parsers
/// under test build no such tree.
enum Json {
    Leaf(String),
    Array(Vec<Json>),
    Object(Members),
}

/// An object's members, each with its key's source text.
type Members = Vec<(String, Json)>;

fn read(s: &[u8], pos: &mut usize) -> Json {
    let start = *pos;
    match s[start] {
        b'[' | b'{' => {
            let object = s[start] == b'{';
            *pos += 1;
            let (mut items, mut members) = (Vec::new(), Vec::new());
            while s[*pos] != b']' && s[*pos] != b'}' {
                if object {
                    let Json::Leaf(key) = read(s, pos) else {
                        panic!("keys are strings")
                    };
                    *pos += 1; // ':'
                    members.push((key, read(s, pos)));
                } else {
                    items.push(read(s, pos));
                }
                if s[*pos] == b',' {
                    *pos += 1;
                }
            }
            *pos += 1;
            if object {
                Json::Object(members)
            } else {
                Json::Array(items)
            }
        }
        b'"' => {
            *pos += 1;
            while s[*pos] != b'"' {
                *pos += if s[*pos] == b'\\' { 2 } else { 1 };
            }
            *pos += 1;
            Json::Leaf(String::from_utf8(s[start..*pos].to_vec()).unwrap())
        }
        _ => {
            while *pos < s.len() && !b",]}".contains(&s[*pos]) {
                *pos += 1;
            }
            Json::Leaf(String::from_utf8(s[start..*pos].to_vec()).unwrap())
        }
    }
}

fn tree(text: &str) -> Json {
    let mut pos = 0;
    let t = read(text.as_bytes(), &mut pos);
    assert_eq!(pos, text.len(), "one value: {text}");
    t
}

fn write(t: &Json, out: &mut String) {
    match t {
        Json::Leaf(s) => out.push_str(s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Object(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn text(t: &Json) -> String {
    let mut out = String::new();
    write(t, &mut out);
    out
}

/// Shuffles the members of every object in the tree.
fn shuffle(t: &mut Json, rng: &mut SmallRng) {
    match t {
        Json::Leaf(_) => {}
        Json::Array(items) => items.iter_mut().for_each(|i| shuffle(i, rng)),
        Json::Object(members) => {
            members.shuffle(rng);
            members.iter_mut().for_each(|(_, v)| shuffle(v, rng));
        }
    }
}

fn count_objects(t: &Json) -> usize {
    match t {
        Json::Leaf(_) => 0,
        Json::Array(items) => items.iter().map(count_objects).sum(),
        Json::Object(members) => {
            usize::from(!members.is_empty())
                + members.iter().map(|(_, v)| count_objects(v)).sum::<usize>()
        }
    }
}

/// Applies `f` to the `n`-th non-empty object, depth first.
fn with_object(t: &mut Json, n: &mut usize, f: &mut dyn FnMut(&mut Members)) -> bool {
    match t {
        Json::Leaf(_) => false,
        Json::Array(items) => items.iter_mut().any(|i| with_object(i, n, f)),
        Json::Object(members) => {
            if !members.is_empty() {
                if *n == 0 {
                    f(members);
                    return true;
                }
                *n -= 1;
            }
            members.iter_mut().any(|(_, v)| with_object(v, n, f))
        }
    }
}

const PERMUTATIONS: usize = 4;

/// The member rules on one encoded value. `parse` returns the parsed
/// value re-encoded, which the encoders make bit-exact.
fn check(encoded: &str, rng: &mut SmallRng, parse: &dyn Fn(&str) -> Result<String, ParseError>) {
    assert_eq!(
        parse(encoded).as_deref(),
        Ok(encoded),
        "the encoder's order"
    );
    let mut t = tree(encoded);
    for _ in 0..PERMUTATIONS {
        shuffle(&mut t, rng);
        let line = text(&t);
        let got = parse(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        assert_eq!(got, encoded, "permuted: {line}");
    }
    let shuffled = text(&t);
    let objects = count_objects(&t);
    // A copy of one member, anywhere in its object.
    let mut key = String::new();
    let mut pick = rng.gen_range(0..objects);
    with_object(&mut t, &mut pick, &mut |members| {
        let i = rng.gen_range(0..members.len());
        let copy = (members[i].0.clone(), tree(&text(&members[i].1)));
        key = copy.0.clone();
        members.insert(rng.gen_range(0..=members.len()), copy);
    });
    let line = text(&t);
    let e = parse(&line).expect_err(&line);
    assert_eq!(e.kind, ParseErrorKind::DuplicateKey, "{line}");
    assert!(line[e.at..].starts_with(&key), "at the repeat: {line}");
    // A member no grammar defines.
    let mut t = tree(&shuffled);
    let mut pick = rng.gen_range(0..objects);
    with_object(&mut t, &mut pick, &mut |members| {
        let at = rng.gen_range(0..=members.len());
        members.insert(at, ("\"zz\"".to_string(), Json::Leaf("0".into())));
    });
    let line = text(&t);
    let e = parse(&line).expect_err(&line);
    assert_eq!(e.kind, ParseErrorKind::UnknownKey, "{line}");
    assert!(line[e.at..].starts_with("\"zz\""), "at the key: {line}");
}

/// Adds `member` to the top-level object of `encoded` at a random place.
fn with_member(encoded: &str, member: (&str, &str), rng: &mut SmallRng) -> String {
    let mut t = tree(encoded);
    let Json::Object(members) = &mut t else {
        panic!("an object")
    };
    let at = rng.gen_range(0..=members.len());
    members.insert(at, (member.0.to_string(), Json::Leaf(member.1.to_string())));
    text(&t)
}

#[test]
fn requests_take_members_in_any_order() {
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 0x0DE);
    let parse = |s: &str| {
        parse_request(s)
            .map(|r| encode_request(&r))
            .map_err(|e| e.error)
    };
    for case in 0..450 {
        let encoded = encode_request(&random_request(case, &mut rng));
        check(&encoded, &mut rng, &parse);
        // A field of another op is unknown to this one.
        if !encoded.contains("\"op\":\"snapshot\"") && !encoded.contains("\"op\":\"load\"") {
            let line = with_member(&encoded, ("\"path\"", "\"p\""), &mut rng);
            let e = parse(&line).expect_err(&line);
            assert_eq!(e.kind, ParseErrorKind::UnknownKey, "{line}");
            assert!(line[e.at..].starts_with("\"path\""), "{line}");
        }
    }
}

#[test]
fn responses_take_members_in_any_order() {
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 0x0DF);
    let parse = |s: &str| parse_response(s).map(|r| encode_response(&r));
    for case in 0..480 {
        let encoded = encode_response(&random_response(case, &mut rng));
        check(&encoded, &mut rng, &parse);
        if !encoded.contains("\"verified\"") {
            let line = with_member(&encoded, ("\"verified\"", "1"), &mut rng);
            let e = parse(&line).expect_err(&line);
            assert_eq!(e.kind, ParseErrorKind::UnknownKey, "{line}");
        }
    }
}

#[test]
fn graphs_datasets_and_snapshots_take_members_in_any_order() {
    let mut rng = SmallRng::seed_from_u64(PROPERTY_SEED + 0x0E0);
    for _ in 0..60 {
        let encoded = graph_to_json(&random_graph(&mut rng));
        check(&encoded, &mut rng, &|s| {
            graph_from_json(s).map(|g| graph_to_json(&g))
        });
    }
    for _ in 0..4 {
        let graphs: Vec<_> = (0..rng.gen_range(0..5))
            .map(|_| random_graph(&mut rng))
            .collect();
        let ds = GraphDataset::from_graphs(ot_ged::graph::DatasetKind::Aids, graphs);
        let encoded = dataset_to_json(&ds);
        check(&encoded, &mut rng, &|s| {
            dataset_from_json(s).map(|d| dataset_to_json(&d))
        });
    }
    let mut oracle = |a: &ot_ged::graph::Graph, b: &ot_ged::graph::Graph| {
        PivotDistance::exact(a.num_nodes().abs_diff(b.num_nodes()))
    };
    for pivots in [0, 2] {
        let mut store = ShardedStore::new(3);
        for _ in 0..12 {
            store.insert(random_graph(&mut rng));
        }
        if pivots > 0 {
            store.sync_pivots(pivots, &mut oracle);
        }
        let encoded = store.to_json();
        check(&encoded, &mut rng, &|s| {
            ShardedStore::from_json(s).map(|s| s.to_json())
        });
        let names: Vec<String> = (0..store.len()).map(|i| format!("g{i}")).collect();
        let encoded = encode_server_snapshot(7, 12, &names, &store);
        check(&encoded, &mut rng, &|s| {
            let snap = parse_server_snapshot(s)?;
            Ok(encode_server_snapshot(
                snap.rev,
                snap.next_name,
                &snap.names,
                &snap.store,
            ))
        });
    }
}
