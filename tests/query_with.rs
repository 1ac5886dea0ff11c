//! `GedEngine::query_with` over every store-level `GedQuery` shape and
//! both `StoreRef` kinds. Without a deadline it answers exactly what the
//! typed shortcut does, a sharded store (on either side of a join)
//! answers what the flat store holding the same graphs does under the id
//! twin, and an already-expired deadline stops every shape with
//! `GedError::DeadlineExceeded`.

use ged_testkit::{aids_store, external_query, gedgw_engine, sharded_copy};
use ot_ged::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// The names of the shapes [`shapes`] returns, in order.
const SHAPES: [&str; 6] = ["TopK", "Range", "RangeExact", "Matrix", "SelfJoin", "Join"];

/// Every store-level shape: searches of `store` around `query`, its
/// matrix and self-join, and the join of `left` against it.
fn shapes<'a>(
    query: &'a Graph,
    left: StoreRef<'a>,
    store: StoreRef<'a>,
    tau: f64,
) -> [GedQuery<'a>; 6] {
    [
        GedQuery::TopK { query, store, k: 5 },
        GedQuery::Range { query, store, tau },
        GedQuery::RangeExact { query, store, tau },
        GedQuery::Matrix { store },
        GedQuery::SelfJoin { store, tau },
        GedQuery::Join {
            store: left,
            other: store,
            tau,
        },
    ]
}

/// The typed shortcut answering the same request.
fn shortcut(e: &GedEngine, query: GedQuery<'_>) -> GedResponse {
    match query {
        GedQuery::TopK { query, store, k } => GedResponse::TopK(e.top_k(query, store, k).unwrap()),
        GedQuery::Range { query, store, tau } => {
            GedResponse::Range(e.range(query, store, tau).unwrap())
        }
        GedQuery::RangeExact { query, store, tau } => {
            GedResponse::RangeExact(e.range_exact(query, store, tau).unwrap())
        }
        GedQuery::Matrix { store } => GedResponse::Matrix(e.distance_matrix(store).unwrap()),
        GedQuery::SelfJoin { store, tau } => {
            GedResponse::SelfJoin(e.self_join(store, tau).unwrap())
        }
        GedQuery::Join { store, other, tau } => {
            GedResponse::Join(e.join(store, other, tau).unwrap())
        }
        other => unreachable!("{other:?} is not a store-level query"),
    }
}

/// A response printed so that every `f64` compares bit for bit.
fn bits(response: &GedResponse) -> String {
    format!("{response:?}")
}

/// The answer part of a store-level response (tier stats left out), ids
/// renamed through `twin` where it has them, printed so that every
/// `f64` compares bit for bit.
fn answer(response: &GedResponse, twin: &BTreeMap<GraphId, GraphId>) -> String {
    let id = |id: &GraphId| *twin.get(id).unwrap_or(id);
    match response {
        GedResponse::TopK(r) | GedResponse::Range(r) => {
            let hits: Vec<_> = r.neighbors.iter().map(|n| (id(&n.id), n.ged)).collect();
            format!("{hits:?}")
        }
        GedResponse::RangeExact(r) => {
            let hits: Vec<_> = r.matches.iter().map(|m| (id(&m.id), m.ged)).collect();
            let open: Vec<_> = (r.budget_exhausted.iter())
                .map(|u| (id(&u.id), u.known_match_ub))
                .collect();
            format!("{hits:?} {open:?}")
        }
        GedResponse::Matrix(m) => {
            let ids: Vec<_> = m.ids().iter().map(id).collect();
            let rows: Vec<_> = (0..m.size()).map(|i| m.row(i)).collect();
            format!("{ids:?} {rows:?}")
        }
        GedResponse::SelfJoin(r) | GedResponse::Join(r) => {
            let hits: Vec<_> = r
                .pairs
                .iter()
                .map(|p| (id(&p.a), id(&p.b), p.ged))
                .collect();
            let open: Vec<_> = (r.budget_exhausted.iter())
                .map(|u| (id(&u.a), id(&u.b), u.known_match_ub))
                .collect();
            format!("{hits:?} {open:?}")
        }
        other => unreachable!("{other:?} is not a store-level answer"),
    }
}

#[test]
fn query_with_equals_the_shortcuts_on_both_store_kinds() {
    let flat = aids_store(24, 7101).into_store();
    let (sharded, twin) = sharded_copy(&flat, 4);
    // Members as probes and query, so every shape has matches at τ = 3.
    let probes = GraphStore::from_graphs(flat.graphs().step_by(4).cloned());
    let (sharded_probes, probe_twin) = sharded_copy(&probes, 4);
    let query = flat.graphs().nth(15).expect("24 graphs").clone();
    let e = gedgw_engine(2);
    let none = BTreeMap::new();

    let flat_shapes = shapes(&query, (&probes).into(), (&flat).into(), 3.0);
    let sharded_shapes = shapes(&query, (&probes).into(), (&sharded).into(), 3.0);
    for ((f, s), shape) in flat_shapes.into_iter().zip(sharded_shapes).zip(SHAPES) {
        let got_flat = e.query_with(f, QueryOpts::default()).unwrap();
        let got_sharded = e.query_with(s, QueryOpts::default()).unwrap();
        // The request form and the shortcut are one plan: stats included.
        assert_eq!(bits(&got_flat), bits(&shortcut(&e, f)), "{shape}, flat");
        assert_eq!(
            bits(&got_sharded),
            bits(&shortcut(&e, s)),
            "{shape}, sharded"
        );
        assert_eq!(
            answer(&got_flat, &twin),
            answer(&got_sharded, &none),
            "{shape}: the sharded answer is the flat one under the id twin"
        );
    }

    // A sharded left side joins like the flat one.
    let join = |left: StoreRef<'_>| {
        let query = GedQuery::Join {
            store: left,
            other: (&flat).into(),
            tau: 3.0,
        };
        e.query_with(query, QueryOpts::default()).unwrap()
    };
    assert_eq!(
        answer(&join((&probes).into()), &probe_twin),
        answer(&join((&sharded_probes).into()), &none)
    );
}

#[test]
fn an_expired_deadline_stops_every_store_shape() {
    let flat = aids_store(24, 7201).into_store();
    let (sharded, _) = sharded_copy(&flat, 4);
    let query = external_query(7202);
    let e = gedgw_engine(2);
    let expired = QueryOpts {
        deadline: Deadline::within(Duration::ZERO),
        ..QueryOpts::default()
    };
    for store in [StoreRef::from(&flat), StoreRef::from(&sharded)] {
        for (q, shape) in shapes(&query, store, store, f64::INFINITY)
            .into_iter()
            .zip(SHAPES)
        {
            assert!(
                matches!(e.query_with(q, expired), Err(GedError::DeadlineExceeded)),
                "{shape} must stop at its first checkpoint"
            );
        }
    }
}
