//! Loss functions (Section 4.4 of the paper).

use crate::tape::{Tape, Var};
use ged_linalg::Matrix;

/// Clamp bound keeping `ln` finite inside the BCE.
const BCE_EPS: f64 = 1e-7;

/// Mean squared error between a `1x1` prediction and a scalar target —
/// the paper's value loss `L_v = (score - nGED*)²`.
pub fn mse_scalar(tape: &Tape, pred: Var, target: f64) -> Var {
    let t = tape.scalar(target);
    let diff = tape.sub(pred, t);
    tape.mul(diff, diff)
}

/// Binary cross-entropy between a predicted coupling `pred ∈ (0,1)^{n1 x n2}`
/// and the 0/1 ground-truth matching, averaged over all `n1*n2` entries —
/// the paper's matching loss `L_m = BCE(π*|π̂) / (n1 n2)`.
///
/// # Panics
/// Panics if shapes mismatch.
pub fn bce_matrix(tape: &Tape, pred: Var, target: &Matrix) -> Var {
    let (n1, n2) = tape.shape(pred);
    assert_eq!(target.shape(), (n1, n2), "BCE target shape");
    let t = tape.constant_with(n1, n2, |m| m.copy_from(target));
    let one = tape.filled(n1, n2, 1.0);

    let p = tape.clamp(pred, BCE_EPS, 1.0 - BCE_EPS);
    let log_p = tape.ln(p);
    let one_minus_p = tape.sub(one, p);
    let log_1p = tape.ln(one_minus_p);
    let one_minus_t = tape.sub(one, t);

    let pos = tape.mul(t, log_p);
    let neg = tape.mul(one_minus_t, log_1p);
    let total = tape.add(pos, neg);
    let sum = tape.sum(total);
    tape.scale(sum, -1.0 / (n1 * n2) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        let tape = Tape::new();
        let p = tape.scalar(0.8);
        let l = mse_scalar(&tape, p, 0.5);
        assert!((tape.scalar_value(l) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn bce_is_minimal_at_target() {
        let target = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let eval = |p: Vec<f64>| {
            let tape = Tape::new();
            let pred = tape.constant(Matrix::from_vec(1, 2, p));
            tape.scalar_value(bce_matrix(&tape, pred, &target))
        };
        let at_target = eval(vec![0.999_999, 0.000_001]);
        let off = eval(vec![0.5, 0.5]);
        let wrong = eval(vec![0.01, 0.99]);
        assert!(at_target < off && off < wrong);
        assert!(at_target < 1e-4);
    }

    #[test]
    fn bce_gradient_direction() {
        // Gradient must push predictions toward the target.
        let target = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let tape = Tape::new();
        let pred = tape.leaf(Matrix::from_vec(1, 2, vec![0.5, 0.5]), true);
        let l = bce_matrix(&tape, pred, &target);
        tape.backward(l);
        let g = tape.grad(pred);
        assert!(g[(0, 0)] < 0.0, "increase p where target=1");
        assert!(g[(0, 1)] > 0.0, "decrease p where target=0");
    }

    #[test]
    fn bce_stays_finite_at_extremes() {
        let target = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let tape = Tape::new();
        let pred = tape.constant(Matrix::from_vec(1, 2, vec![0.0, 1.0]));
        let l = bce_matrix(&tape, pred, &target);
        assert!(tape.scalar_value(l).is_finite());
    }
}
