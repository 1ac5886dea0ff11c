//! Persistent parameter storage shared across tapes.
//!
//! A model owns a [`ParamStore`]; every forward pass binds each parameter
//! onto the fresh tape (as a gradient-requiring leaf borrowing the stored
//! value) via [`ParamStore::bind`], and after `backward` the optimizer
//! reads the gradients back through the recorded bindings.

use crate::tape::{Tape, Var};
use ged_linalg::Matrix;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(pub(crate) usize);

/// Owns the trainable matrices of a model.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

/// The tape bindings of every parameter for one forward pass: the
/// parameters are bound as consecutive tape nodes, so parameter `i` is
/// node `first + i`.
pub struct Bindings {
    first: usize,
    len: usize,
}

impl ParamStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value.
    pub fn register(&mut self, name: &str, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Number of parameters (tensors).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Name of a parameter.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Binds every parameter onto `tape` as gradient-requiring leaves that
    /// borrow the stored values (nothing is copied).
    #[must_use]
    pub fn bind<'p>(&'p self, tape: &Tape<'p>) -> Bindings {
        let first = tape.len();
        for v in &self.values {
            tape.leaf_ref(v, true);
        }
        Bindings {
            first,
            len: self.values.len(),
        }
    }

    /// Reads the gradient of every parameter from a backward-completed tape.
    #[must_use]
    pub fn gradients(&self, tape: &Tape, bindings: &Bindings) -> Vec<Matrix> {
        bindings.vars().map(|v| tape.grad(v)).collect()
    }

    /// [`Self::gradients`] into `out`, reusing its matrices.
    pub fn gradients_into(&self, tape: &Tape, bindings: &Bindings, out: &mut Vec<Matrix>) {
        out.resize_with(bindings.len, Matrix::default);
        for (v, g) in bindings.vars().zip(out.iter_mut()) {
            tape.grad_into(v, g);
        }
    }

    /// Adds the gradient of every parameter onto `acc`, which
    /// [`Self::gradients_into`] shaped: `acc[i] += grad_i`.
    ///
    /// # Panics
    /// Panics if `acc` does not hold one matrix per parameter.
    pub fn add_gradients(&self, tape: &Tape, bindings: &Bindings, acc: &mut [Matrix]) {
        assert_eq!(acc.len(), bindings.len, "gradient count mismatch");
        for (v, a) in bindings.vars().zip(acc.iter_mut()) {
            tape.add_grad_to(v, a);
        }
    }

    /// Raw access for optimizers: `(values, count)`.
    pub(crate) fn values_mut(&mut self) -> &mut [Matrix] {
        &mut self.values
    }
}

impl Bindings {
    /// The tape variable bound to `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a parameter of the bound store.
    #[must_use]
    pub fn var(&self, id: ParamId) -> Var {
        assert!(id.0 < self.len, "parameter {} is not bound", id.0);
        Var(self.first + id.0)
    }

    fn vars(&self) -> impl Iterator<Item = Var> {
        (self.first..self.first + self.len).map(Var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bind_and_read_back() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 2);
        assert_eq!(store.name(w), "w");

        let tape = Tape::new();
        let b = store.bind(&tape);
        let x = tape.constant(Matrix::from_vec(2, 1, vec![5.0, 7.0]));
        let y = tape.matmul(b.var(w), x); // 2*5 + 3*7 = 31
        assert!((tape.scalar_value(y) - 31.0).abs() < 1e-12);
        tape.backward(y);
        let grads = store.gradients(&tape, &b);
        assert_eq!(grads[0].as_slice(), &[5.0, 7.0]);
    }
}

// ----- checkpointing ---------------------------------------------------

/// A serializable snapshot of every parameter (name, shape, data).
///
/// Trained models can be checkpointed to disk and restored later;
/// restoration is by-name so it also guards against architecture drift.
#[derive(Debug)]
pub struct Checkpoint {
    entries: Vec<(String, usize, usize, Vec<f64>)>,
}

impl ParamStore {
    /// Captures a checkpoint of all current parameter values.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let entries = self
            .values
            .iter()
            .zip(&self.names)
            .map(|(m, n)| (n.clone(), m.rows(), m.cols(), m.as_slice().to_vec()))
            .collect();
        Checkpoint { entries }
    }

    /// Restores parameter values from a checkpoint.
    ///
    /// # Errors
    /// Fails if the checkpoint's names or shapes do not match this store.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), String> {
        if ckpt.entries.len() != self.values.len() {
            return Err(format!(
                "checkpoint has {} tensors, store has {}",
                ckpt.entries.len(),
                self.values.len()
            ));
        }
        for (i, (name, rows, cols, data)) in ckpt.entries.iter().enumerate() {
            if &self.names[i] != name {
                return Err(format!(
                    "tensor #{i}: name '{}' vs '{}'",
                    self.names[i], name
                ));
            }
            if self.values[i].shape() != (*rows, *cols) {
                return Err(format!(
                    "tensor '{name}': shape {:?} vs ({rows},{cols})",
                    self.values[i].shape()
                ));
            }
            self.values[i] = Matrix::from_vec(*rows, *cols, data.clone());
        }
        Ok(())
    }
}

impl Checkpoint {
    /// Serializes to a simple line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, rows, cols, data) in &self.entries {
            out.push_str(&format!("{name} {rows} {cols}"));
            for v in data {
                out.push_str(&format!(" {v:e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Checkpoint::to_text`].
    ///
    /// # Errors
    /// Reports the first malformed line.
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {lineno}: missing name"))?;
            let rows: usize = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("line {lineno}: bad rows"))?;
            let cols: usize = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("line {lineno}: bad cols"))?;
            let data: Vec<f64> = it
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {lineno}: bad value: {e}"))?;
            if data.len() != rows * cols {
                return Err(format!(
                    "line {lineno}: expected {} values, got {}",
                    rows * cols,
                    data.len()
                ));
            }
            entries.push((name.to_string(), rows, cols, data));
        }
        Ok(Checkpoint { entries })
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("a", Matrix::from_vec(1, 2, vec![1.5, -2.25]));
        s.register("b", Matrix::from_vec(2, 2, vec![0.0, 1e-9, 3.0, -4.0]));
        s
    }

    #[test]
    fn roundtrip_exact() {
        let store = sample_store();
        let text = store.checkpoint().to_text();
        let ckpt = Checkpoint::from_text(&text).unwrap();
        let mut other = sample_store();
        *other.value_mut(ParamId(0)) = Matrix::zeros(1, 2);
        other.restore(&ckpt).unwrap();
        assert_eq!(other.value(ParamId(0)).as_slice(), &[1.5, -2.25]);
        assert_eq!(other.value(ParamId(1)).as_slice(), &[0.0, 1e-9, 3.0, -4.0]);
    }

    #[test]
    fn restore_rejects_mismatches() {
        let store = sample_store();
        let ckpt = store.checkpoint();
        let mut wrong_names = ParamStore::new();
        wrong_names.register("x", Matrix::zeros(1, 2));
        wrong_names.register("b", Matrix::zeros(2, 2));
        assert!(wrong_names.restore(&ckpt).unwrap_err().contains("name"));

        let mut wrong_shape = ParamStore::new();
        wrong_shape.register("a", Matrix::zeros(2, 1));
        wrong_shape.register("b", Matrix::zeros(2, 2));
        assert!(wrong_shape.restore(&ckpt).unwrap_err().contains("shape"));

        let mut wrong_count = ParamStore::new();
        wrong_count.register("a", Matrix::zeros(1, 2));
        assert!(wrong_count.restore(&ckpt).unwrap_err().contains("tensors"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Checkpoint::from_text("a 2 2 1.0")
            .unwrap_err()
            .contains("expected"));
        assert!(Checkpoint::from_text("a x 2 1.0")
            .unwrap_err()
            .contains("bad rows"));
    }
}
