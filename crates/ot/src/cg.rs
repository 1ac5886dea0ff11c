//! Conditional gradient (Frank–Wolfe) for OT+GW quadratic programs.
//!
//! Solves problems of the form used by GEDGW (Eq. 17 of the paper):
//!
//! ```text
//! min_{π ∈ Π(1_n, 1_n)}  ⟨π, M⟩ + (q/2) ⟨π, L(C1,C2) ⊗ π⟩
//! ```
//!
//! At each iteration the gradient `G = M + q · (L ⊗ π)` is linearized, the
//! subproblem `min ⟨G, d⟩` over the Birkhoff polytope is solved exactly with
//! LSAP (see [`crate::exact`]), and the step size comes from exact line
//! search on the quadratic objective (Appendix B.4 / Eq. 21).
//!
//! Each iteration applies the tensor twice: `L ⊗ Δ` for the step size, and
//! `L ⊗ π` once at the new coupling. That one `L ⊗ π` is shared by the new
//! objective, the next gradient and the next line search's linear
//! coefficient. The nonzeros of `C1` and `C2` are collected once per solve.

use crate::gw::{gw_tensor_apply, gw_tensor_apply_into};
use crate::workspace::OtWorkspace;
#[cfg(test)]
use ged_linalg::lsap_min;
use ged_linalg::{lsap_min_into, Matrix};

/// Options for the conditional-gradient solver.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Maximum number of Frank–Wolfe iterations.
    pub max_iter: usize,
    /// Stop when the objective improves by less than this amount.
    pub tol: f64,
    /// Weight `q` of the quadratic (GW) term; the objective includes
    /// `(q/2)⟨π, L⊗π⟩`. GEDGW uses `q = 1`.
    pub quad_weight: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iter: 50,
            tol: 1e-9,
            quad_weight: 1.0,
        }
    }
}

/// Result of a conditional-gradient run.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// The final (generally fractional) coupling.
    pub coupling: Matrix,
    /// Objective value at the final coupling.
    pub objective: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Objective value after each iteration (for convergence tests/plots).
    pub history: Vec<f64>,
}

/// Result of an in-place conditional-gradient run
/// ([`conditional_gradient_in`]); the coupling lives in the caller's
/// matrix and the objective history in the workspace
/// ([`OtWorkspace::cg_history`]).
#[derive(Clone, Copy, Debug)]
pub struct CgRun {
    /// Objective value at the final coupling.
    pub objective: f64,
    /// Iterations actually performed.
    pub iterations: usize,
}

/// Objective `⟨π, M⟩ + (q/2)⟨π, L⊗π⟩`.
#[must_use]
pub fn qp_objective(linear: &Matrix, c1: &Matrix, c2: &Matrix, q: f64, pi: &Matrix) -> f64 {
    pi.dot(linear) + 0.5 * q * pi.dot(&gw_tensor_apply(c1, c2, pi))
}

/// Runs conditional gradient from `init` (must lie in the polytope).
///
/// # Panics
/// Panics on shape mismatches between `linear`, `c1`, `c2` and `init`.
#[must_use]
pub fn conditional_gradient(
    linear: &Matrix,
    c1: &Matrix,
    c2: &Matrix,
    init: Matrix,
    opts: &CgOptions,
) -> CgResult {
    let mut pi = init;
    let mut ws = OtWorkspace::new();
    let run = conditional_gradient_in(linear, c1, c2, &mut pi, opts, &mut ws);
    CgResult {
        coupling: pi,
        objective: run.objective,
        iterations: run.iterations,
        history: ws.history,
    }
}

/// [`conditional_gradient`] operating on the coupling in place, with all
/// per-iteration buffers drawn from `ws`; the objective history is left
/// in the workspace ([`OtWorkspace::cg_history`]), so a warm run
/// allocates nothing. Bit-identical to the allocating version for any
/// (possibly dirty) workspace.
///
/// # Panics
/// Panics on shape mismatches between `linear`, `c1`, `c2` and `pi`.
#[must_use]
pub fn conditional_gradient_in(
    linear: &Matrix,
    c1: &Matrix,
    c2: &Matrix,
    pi: &mut Matrix,
    opts: &CgOptions,
    ws: &mut OtWorkspace,
) -> CgRun {
    let (n, m) = pi.shape();
    assert_eq!(linear.shape(), (n, m), "linear term shape");
    assert_eq!(c1.shape(), (n, n), "c1 shape");
    assert_eq!(c2.shape(), (m, m), "c2 shape");
    let q = opts.quad_weight;

    let OtWorkspace {
        lsap,
        gw,
        lpi,
        grad,
        dir,
        delta,
        ldelta,
        history,
        ..
    } = ws;

    // Objective ⟨π, M⟩ + (q/2)⟨π, L⊗π⟩. `lpi` holds L⊗π for the current
    // π from here on.
    gw.load(c1, c2);
    gw_tensor_apply_into(pi, lpi, gw);
    let mut obj = pi.dot(linear) + 0.5 * q * pi.dot(lpi);
    history.clear();
    history.push(obj);
    let mut iters = 0;

    for _ in 0..opts.max_iter {
        iters += 1;
        // Gradient of the objective. For symmetric squared-loss L the
        // gradient of (q/2)⟨π, L⊗π⟩ is q·(L⊗π).
        grad.resize_zeroed(n, m);
        for i in 0..n {
            let grow = grad.row_mut(i);
            let lrow = linear.row(i);
            let prow = lpi.row(i);
            for j in 0..m {
                grow[j] = lrow[j] + q * prow[j];
            }
        }

        // Linear minimization oracle: vertex of the Birkhoff polytope.
        lsap_min_into(grad, lsap);
        dir.resize_zeroed(n, m);
        for (r, &c) in lsap.row_to_col().iter().enumerate() {
            dir[(r, c)] = 1.0;
        }

        // Exact line search along Δ = dir − π for the quadratic
        // f(γ) = f(π) + b γ + a γ², with
        //   b = ⟨Δ, M⟩ + q ⟨Δ, L⊗π⟩,  a = (q/2) ⟨Δ, L⊗Δ⟩.
        delta.resize_zeroed(n, m);
        for (o, (&d, &p)) in delta
            .as_mut_slice()
            .iter_mut()
            .zip(dir.as_slice().iter().zip(pi.as_slice()))
        {
            *o = d - p;
        }
        let b = delta.dot(linear) + q * delta.dot(lpi);
        gw_tensor_apply_into(delta, ldelta, gw);
        let a_coef = 0.5 * q * delta.dot(ldelta);
        let gamma = optimal_step(a_coef, b);
        if gamma <= 0.0 {
            break;
        }
        pi.add_scaled_assign(delta, gamma);

        gw_tensor_apply_into(pi, lpi, gw);
        let new_obj = pi.dot(linear) + 0.5 * q * pi.dot(lpi);
        history.push(new_obj);
        let improved = obj - new_obj;
        obj = new_obj;
        if improved.abs() < opts.tol {
            break;
        }
    }

    CgRun {
        objective: obj,
        iterations: iters,
    }
}

/// Minimizes `a γ² + b γ` over `γ ∈ [0, 1]`.
fn optimal_step(a: f64, b: f64) -> f64 {
    if a > 0.0 {
        (-b / (2.0 * a)).clamp(0.0, 1.0)
    } else if a + b < 0.0 {
        // Concave or linear: an endpoint is optimal; f(1)-f(0) = a + b.
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_adj(n: usize, rng: &mut SmallRng) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.4) {
                    a[(i, j)] = 1.0;
                    a[(j, i)] = 1.0;
                }
            }
        }
        a
    }

    fn uniform(n: usize) -> Matrix {
        Matrix::filled(n, n, 1.0 / n as f64)
    }

    #[test]
    fn step_minimizer() {
        assert_eq!(optimal_step(1.0, -1.0), 0.5);
        assert_eq!(optimal_step(1.0, 1.0), 0.0);
        assert_eq!(optimal_step(1.0, -4.0), 1.0);
        assert_eq!(optimal_step(-1.0, 0.5), 1.0);
        assert_eq!(optimal_step(0.0, 2.0), 0.0);
        assert_eq!(optimal_step(0.0, -2.0), 1.0);
    }

    #[test]
    fn objective_decreases_monotonically() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..10 {
            let n = rng.gen_range(3..=7);
            let a1 = rand_adj(n, &mut rng);
            let a2 = rand_adj(n, &mut rng);
            let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..1.0));
            let init = uniform(n);
            let res = conditional_gradient(&m, &a1, &a2, init, &CgOptions::default());
            for w in res.history.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "objective increased: {:?}",
                    res.history
                );
            }
        }
    }

    #[test]
    fn stays_in_polytope() {
        let mut rng = SmallRng::seed_from_u64(22);
        let n = 6;
        let a1 = rand_adj(n, &mut rng);
        let a2 = rand_adj(n, &mut rng);
        let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..1.0));
        let res = conditional_gradient(&m, &a1, &a2, uniform(n), &CgOptions::default());
        for s in res.coupling.row_sums() {
            assert!((s - 1.0).abs() < 1e-9);
        }
        for s in res.coupling.col_sums() {
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(res.coupling.min() >= -1e-12);
    }

    #[test]
    fn identical_graphs_reach_zero() {
        // Pure GW between identical graphs: optimum 0 at a permutation.
        let mut rng = SmallRng::seed_from_u64(23);
        let n = 5;
        let a = rand_adj(n, &mut rng);
        let zero = Matrix::zeros(n, n);
        let res = conditional_gradient(&zero, &a, &a, Matrix::identity(n), &CgOptions::default());
        assert!(res.objective.abs() < 1e-12);
    }

    #[test]
    fn pure_linear_term_reaches_lsap() {
        // With no quadratic part CG must land on the LSAP optimum in one step.
        let mut rng = SmallRng::seed_from_u64(24);
        let n = 6;
        let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..5.0));
        let zero = Matrix::zeros(n, n);
        let res = conditional_gradient(
            &m,
            &zero,
            &zero,
            uniform(n),
            &CgOptions {
                quad_weight: 1.0,
                ..Default::default()
            },
        );
        let want = lsap_min(&m).cost;
        assert!(
            (res.objective - want).abs() < 1e-9,
            "{} vs {want}",
            res.objective
        );
    }
}
