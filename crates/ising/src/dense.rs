use crate::error::ModelError;
use serde::{Deserialize, Serialize, Value};

/// A dense symmetric coupling matrix with an implicitly zero diagonal.
///
/// The matrix stores the full `n × n` array row-major so that row access in
/// the Gibbs-sweep hot loop is a contiguous slice. Writes through
/// [`SymmetricMatrix::set`] / [`SymmetricMatrix::add`] keep the two mirrored
/// entries in sync.
///
/// Diagonal terms are rejected: for both Ising spins (`s_i² = 1`) and binary
/// variables (`x_i² = x_i`) a diagonal quadratic coefficient reduces to a
/// constant or a linear term, and the model types keep those separately.
///
/// ```
/// use saim_ising::SymmetricMatrix;
///
/// # fn main() -> Result<(), saim_ising::ModelError> {
/// let mut m = SymmetricMatrix::zeros(3);
/// m.set(0, 2, 1.5)?;
/// assert_eq!(m.get(2, 0), 1.5);
/// assert_eq!(m.row(0), &[0.0, 0.0, 1.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SymmetricMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymmetricMatrix {
    /// Creates an `n × n` all-zero matrix.
    pub fn zeros(n: usize) -> Self {
        SymmetricMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Number of rows (equivalently columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0 × 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn check(&self, i: usize, j: usize) -> Result<(), ModelError> {
        if i >= self.n {
            return Err(ModelError::IndexOutOfBounds {
                index: i,
                len: self.n,
            });
        }
        if j >= self.n {
            return Err(ModelError::IndexOutOfBounds {
                index: j,
                len: self.n,
            });
        }
        if i == j {
            return Err(ModelError::SelfCoupling { index: i });
        }
        Ok(())
    }

    /// The coefficient between variables `i` and `j` (symmetric; 0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// Sets the symmetric coefficient between `i` and `j`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfBounds`] for bad indices,
    /// [`ModelError::SelfCoupling`] if `i == j`, and
    /// [`ModelError::NonFiniteCoefficient`] for NaN/∞ values.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<(), ModelError> {
        self.check(i, j)?;
        if !value.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "symmetric matrix entry",
            });
        }
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
        Ok(())
    }

    /// Adds `value` to the symmetric coefficient between `i` and `j`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SymmetricMatrix::set`], which here also cover
    /// a sum that overflows; the matrix is then left unchanged.
    pub fn add(&mut self, i: usize, j: usize, value: f64) -> Result<(), ModelError> {
        self.check(i, j)?;
        let sum = self.data[i * self.n + j] + value;
        if !sum.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "symmetric matrix entry",
            });
        }
        self.data[i * self.n + j] = sum;
        self.data[j * self.n + i] += value;
        Ok(())
    }

    /// The rows of the full `n × n` array as mutable slices, in order, for
    /// crate kernels that write whole rows and keep the mirror themselves.
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, f64> {
        self.data.chunks_exact_mut(self.n.max(1))
    }

    /// Row `i` as a contiguous slice of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "row index out of bounds");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// `Σ_j M_ij v_j` for a ±1-spin vector stored as `i8`.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_spins(&self, i: usize, spins: &[i8]) -> f64 {
        let row = self.row(i);
        assert_eq!(spins.len(), self.n, "spin vector length mismatch");
        row.iter().zip(spins).map(|(&m, &s)| m * f64::from(s)).sum()
    }

    /// `Σ_j M_ij v_j` for spins pre-converted to `±1.0` floats.
    ///
    /// The sweep engines keep their spins as `±1.0` floats
    /// ([`PbitMachine`](../../saim_machine/struct.PbitMachine.html) stores
    /// no `i8` copy), so the per-element `i8 → f64` conversion of
    /// [`SymmetricMatrix::row_dot_spins`] disappears. The product runs over
    /// blocks of 8 lanes into 8 independent accumulators, breaking the
    /// serial f64-add dependency chain so the compiler can keep the loop in
    /// vector registers; the accumulators fold pairwise at the end.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_f64(&self, i: usize, spins: &[f64]) -> f64 {
        let row = self.row(i);
        assert_eq!(spins.len(), self.n, "spin vector length mismatch");
        let mut acc = [0.0f64; 8];
        let mut row_blocks = row.chunks_exact(8);
        let mut spin_blocks = spins.chunks_exact(8);
        for (r, s) in (&mut row_blocks).zip(&mut spin_blocks) {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a += r[lane] * s[lane];
            }
        }
        let mut tail = 0.0;
        for (&m, &s) in row_blocks.remainder().iter().zip(spin_blocks.remainder()) {
            tail += m * s;
        }
        ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
    }

    /// `Σ_j |M_ij|` — the largest magnitude a ±1-spin dot product of row `i`
    /// can reach.
    ///
    /// This is the coupling half of a spin's *drive bound*
    /// `D_i = |h_i| + Σ_j |J_ij|`
    /// (see [`IsingModel::drive_bounds`](crate::IsingModel::drive_bounds)):
    /// a p-bit whose `β · D_i` stays below the tanh saturation point can
    /// never take the deterministic short-circuit, so the sweep engines
    /// classify it once per β instead of testing it every update. Uses the
    /// same 8-lane blocked accumulation as [`SymmetricMatrix::row_dot_f64`],
    /// so the result is deterministic across platforms.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_abs_sum(&self, i: usize) -> f64 {
        let row = self.row(i);
        let mut acc = [0.0f64; 8];
        let mut blocks = row.chunks_exact(8);
        for r in &mut blocks {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a += r[lane].abs();
            }
        }
        let mut tail = 0.0;
        for &m in blocks.remainder() {
            tail += m.abs();
        }
        ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
    }

    /// Number of structurally nonzero off-diagonal entries, counting each
    /// unordered pair once.
    pub fn pair_count(&self) -> usize {
        let mut count = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.data[i * self.n + j] != 0.0 {
                    count += 1;
                }
            }
        }
        count
    }

    /// Density of the matrix: nonzero pairs over all `n(n-1)/2` pairs.
    ///
    /// Returns 0 for matrices with fewer than two rows.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let total = self.n * (self.n - 1) / 2;
        self.pair_count() as f64 / total as f64
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }

    /// Scales every entry by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Iterates over the strictly-upper-triangle nonzero entries as `(i, j, value)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            ((i + 1)..self.n).filter_map(move |j| {
                let v = self.data[i * self.n + j];
                (v != 0.0).then_some((i, j, v))
            })
        })
    }

    /// Returns a matrix grown to `new_n ≥ n` variables, padding with zeros.
    ///
    /// Existing couplings keep their indices; the new trailing variables are
    /// uncoupled. Used when appending slack variables to a problem.
    ///
    /// # Panics
    ///
    /// Panics if `new_n < self.len()`.
    pub fn grown(&self, new_n: usize) -> SymmetricMatrix {
        assert!(new_n >= self.n, "cannot shrink a symmetric matrix");
        let mut out = SymmetricMatrix::zeros(new_n);
        for i in 0..self.n {
            let src = &self.data[i * self.n..(i + 1) * self.n];
            out.data[i * new_n..i * new_n + self.n].copy_from_slice(src);
        }
        out
    }
}

/// Validating deserializer: a matrix read off the wire must hold the
/// invariants [`SymmetricMatrix::set`] keeps — `n × n` finite entries,
/// symmetric, zero diagonal — or it is rejected before anything indexes it.
impl Deserialize for SymmetricMatrix {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let n = usize::from_value(value.field("n")?)?;
        let data = Vec::<f64>::from_value(value.field("data")?)?;
        let at = |i: usize, j: usize| data[i * n + j];
        // a finite upper triangle mirrored exactly is finite everywhere
        let valid = n.checked_mul(n) == Some(data.len())
            && (0..n).all(|i| {
                at(i, i) == 0.0 && (i + 1..n).all(|j| at(i, j).is_finite() && at(i, j) == at(j, i))
            });
        if !valid {
            let message = format!("not a finite symmetric zero-diagonal {n} × {n} matrix");
            return Err(serde::Error::custom(message));
        }
        Ok(SymmetricMatrix { n, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deserializer_keeps_the_matrix_invariants() {
        let parse = |text: &str| {
            SymmetricMatrix::from_value(&serde_json::parse_value_str(text).expect("json"))
        };
        let mut m = SymmetricMatrix::zeros(3);
        m.set(0, 2, -1.5).unwrap();
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(parse(&text), Ok(m));
        for bad in [
            r#"{"n":3,"data":[0.0,1.0]}"#,
            // n·n wraps to 0 without checked_mul
            r#"{"n":4294967296,"data":[]}"#,
            r#"{"n":2,"data":[0.0,1.0,2.0,0.0]}"#,
            r#"{"n":2,"data":[1.0,0.0,0.0,0.0]}"#,
            r#"{"n":2,"data":[0.0,null,null,0.0]}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn set_is_symmetric() {
        let mut m = SymmetricMatrix::zeros(4);
        m.set(1, 3, 2.5).unwrap();
        assert_eq!(m.get(1, 3), 2.5);
        assert_eq!(m.get(3, 1), 2.5);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn add_accumulates_symmetrically() {
        let mut m = SymmetricMatrix::zeros(3);
        m.add(0, 1, 1.0).unwrap();
        m.add(1, 0, 2.0).unwrap();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn rejects_diagonal_and_oob() {
        let mut m = SymmetricMatrix::zeros(2);
        assert_eq!(m.set(0, 0, 1.0), Err(ModelError::SelfCoupling { index: 0 }));
        assert_eq!(
            m.set(0, 2, 1.0),
            Err(ModelError::IndexOutOfBounds { index: 2, len: 2 })
        );
        assert!(matches!(
            m.set(0, 1, f64::NAN),
            Err(ModelError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn row_dot_spins_matches_manual() {
        let mut m = SymmetricMatrix::zeros(3);
        m.set(0, 1, 2.0).unwrap();
        m.set(0, 2, -1.0).unwrap();
        let spins = [1i8, -1, 1];
        // row 0 = [0, 2, -1]; dot = 0*1 + 2*(-1) + (-1)*1 = -3
        assert_eq!(m.row_dot_spins(0, &spins), -3.0);
    }

    #[test]
    fn density_counts_unordered_pairs() {
        let mut m = SymmetricMatrix::zeros(4);
        m.set(0, 1, 1.0).unwrap();
        m.set(2, 3, 1.0).unwrap();
        assert_eq!(m.pair_count(), 2);
        assert!((m.density() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(SymmetricMatrix::zeros(1).density(), 0.0);
    }

    #[test]
    fn grown_preserves_entries() {
        let mut m = SymmetricMatrix::zeros(2);
        m.set(0, 1, 5.0).unwrap();
        let g = m.grown(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(0, 1), 5.0);
        assert_eq!(g.get(0, 3), 0.0);
        assert_eq!(g.get(2, 3), 0.0);
    }

    #[test]
    fn iter_pairs_upper_triangle_only() {
        let mut m = SymmetricMatrix::zeros(3);
        m.set(0, 2, 1.0).unwrap();
        m.set(1, 2, -2.0).unwrap();
        let pairs: Vec<_> = m.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 2, 1.0), (1, 2, -2.0)]);
    }

    #[test]
    fn row_abs_sum_matches_manual() {
        let mut m = SymmetricMatrix::zeros(11); // exercises blocks + tail
        m.set(0, 1, 2.0).unwrap();
        m.set(0, 9, -1.5).unwrap();
        m.set(0, 10, -0.25).unwrap();
        assert_eq!(m.row_abs_sum(0), 3.75);
        assert_eq!(m.row_abs_sum(5), 0.0);
        // symmetric mirror contributes to the other row too
        assert_eq!(m.row_abs_sum(9), 1.5);
    }

    #[test]
    fn scale_and_max_abs() {
        let mut m = SymmetricMatrix::zeros(2);
        m.set(0, 1, -4.0).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        m.scale(0.5);
        assert_eq!(m.get(0, 1), -2.0);
    }
}
