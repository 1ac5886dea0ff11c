//! Termination on non-finite costs.
//!
//! A cost row with no finite entry (all NaN or `+∞`) gives the assignment
//! solvers' searches nothing to reach. Both LSAP solvers define a rule for
//! it (see `ged_linalg::lsap`), so every layer built on them returns: the
//! solvers themselves, the constrained solve, k-best edit paths and
//! GEDIOT's path generation when its Sinkhorn kernel overflows to NaN.
//! Each call runs on a watchdog thread, so a regression fails the test
//! instead of hanging the run.

use ot_ged::graph::{generate, isomorphism::are_isomorphic};
use ot_ged::linalg::{lsap_min, lsap_min_constrained, lsap_min_munkres, Assignment, Matrix};
use ot_ged::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;

/// Runs `f` on a watchdog thread and returns its result; fails if `f`
/// panics (its sender is dropped) or does not return within ten seconds.
/// The thread is not joined: a hung call could never be joined, and it
/// ends with the test process.
fn returns_in_time<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("call panicked or did not return within 10 s")
}

/// Every row assigned to a distinct, in-range column.
fn assert_valid(a: &Assignment, n: usize, m: usize) {
    assert_eq!(a.row_to_col.len(), n);
    let mut seen = vec![false; m];
    for &c in &a.row_to_col {
        assert!(
            !std::mem::replace(&mut seen[c], true),
            "column {c} used twice"
        );
    }
}

#[test]
fn lsap_solvers_terminate_on_rows_without_a_finite_cost() {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let cases = vec![
        Matrix::from_vec(2, 2, vec![inf, inf, 1.0, 2.0]),
        Matrix::from_vec(2, 2, vec![1.0, 2.0, inf, inf]),
        Matrix::from_vec(2, 3, vec![nan, nan, nan, 1.0, 0.0, 2.0]),
        Matrix::from_fn(5, 6, |_, _| nan),
        Matrix::from_fn(4, 4, |_, _| inf),
        Matrix::from_vec(3, 3, vec![1.0, inf, inf, 2.0, inf, inf, 0.0, 1.0, 2.0]),
        Matrix::from_vec(2, 2, vec![-inf, 0.0, 1.0, -inf]),
    ];
    for c in cases {
        let (n, m) = c.shape();
        let (jv, mk) = returns_in_time(move || (lsap_min(&c), lsap_min_munkres(&c)));
        assert_valid(&jv, n, m);
        assert_valid(&mk, n, m);
    }

    // The documented rule: the all-∞ row 0 takes the lowest free column,
    // 0; row 1 then reaches column 1 at a finite distance.
    let c = Matrix::from_vec(2, 2, vec![inf, inf, 1.0, 2.0]);
    let a = returns_in_time(move || lsap_min(&c));
    assert_eq!(a.row_to_col, vec![0, 1]);
    assert_eq!(a.cost, inf);
}

#[test]
fn constrained_solve_treats_nan_as_not_forbidden() {
    let c = Matrix::from_fn(5, 6, |_, _| f64::NAN);
    let (free, forced) = returns_in_time(move || {
        (
            lsap_min_constrained(&c, &[], &[]),
            lsap_min_constrained(&c, &[(0, 1)], &[(2, 3)]),
        )
    });
    let free = free.expect("NaN entries are not forbidden");
    assert_valid(&free, 5, 6);
    assert!(free.cost.is_nan());
    let forced = forced.expect("NaN entries are not forbidden");
    assert_valid(&forced, 5, 6);
    assert_eq!(forced.row_to_col[0], 1);
    assert_ne!(forced.row_to_col[2], 3);

    // A NaN entry is preferred to a forbidden one: every feasible
    // assignment below uses NaN entries, while the search alone ranks NaN
    // above the finite forbidden price.
    let (nan, fin) = (f64::NAN, 1.0);
    let cases = vec![
        (
            Matrix::from_vec(2, 2, vec![nan, fin, nan, nan]),
            vec![(0, 1)],
            vec![0, 1],
        ),
        (Matrix::from_fn(2, 2, |_, _| nan), vec![(0, 0)], vec![1, 0]),
        (
            Matrix::from_fn(3, 3, |_, _| nan),
            vec![(0, 0), (1, 1), (2, 2)],
            vec![1, 2, 0],
        ),
    ];
    for (c, forbidden, want) in cases {
        let got = returns_in_time(move || lsap_min_constrained(&c, &[], &forbidden));
        let got = got.expect("a NaN-only assignment avoids every forbidden pair");
        assert_eq!(got.row_to_col, want);
    }
}

#[test]
fn kbest_edit_path_terminates_on_a_nan_coupling() {
    let mut rng = SmallRng::seed_from_u64(19);
    let g1 = generate::random_connected(5, 2, &[0.5, 0.5], &mut rng);
    let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
    let pi = Matrix::from_fn(5, 6, |_, _| f64::NAN);
    let (a, b) = (g1.clone(), g2.clone());
    let res = returns_in_time(move || kbest_edit_path(&a, &b, &pi, 8));
    let out = res.path.apply(&g1).unwrap();
    assert!(are_isomorphic(&out, &g2));
    // NaN weights compare false both ways; the search still splits
    // subspaces instead of stopping after the best and second best.
    assert!(res.candidates > 2, "{} candidates at k = 8", res.candidates);
}

#[test]
fn gediot_path_terminates_when_sinkhorn_overflows() {
    let mut rng = SmallRng::seed_from_u64(20);
    let mut cfg = GediotConfig::small(2);
    cfg.epsilon0 = 1e-5;
    cfg.learnable_epsilon = false;
    let model = Gediot::new(cfg, &mut rng);
    let g1 = generate::random_connected(4, 1, &[0.5, 0.5], &mut rng);
    let g2 = generate::random_connected(6, 2, &[0.5, 0.5], &mut rng);
    let (a, b) = (g1.clone(), g2.clone());
    let (pred, res) = returns_in_time(move || model.predict_with_path(&a, &b, 10));
    assert!(
        pred.coupling.as_slice().iter().any(|x| x.is_nan()),
        "the case needs a NaN coupling"
    );
    let out = res.path.apply(&g1).unwrap();
    assert!(are_isomorphic(&out, &g2));
}
