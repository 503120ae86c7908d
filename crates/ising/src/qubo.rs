use crate::couplings::Couplings;
use crate::dense::SymmetricMatrix;
use crate::error::ModelError;
use crate::model::IsingModel;
use crate::state::BinaryState;
use serde::{Deserialize, Serialize, Value};

/// A quadratic unconstrained binary optimization (QUBO) model
///
/// ```text
/// E(x) = Σ_{i<j} Q_ij x_i x_j + Σ_i c_i x_i + offset,     x_i ∈ {0, 1}
/// ```
///
/// with each unordered pair counted once (`Q_ij` is the total coefficient of
/// the product `x_i x_j`). Diagonal quadratic terms are folded into the linear
/// part by [`QuboBuilder`] because `x_i² = x_i`.
///
/// The `offset` tracks constants produced by penalty expansion and Ising
/// conversion so that energies — not just energy differences — are preserved
/// everywhere, which the SAIM dual bound relies on.
///
/// ```
/// use saim_ising::{QuboBuilder, BinaryState};
///
/// # fn main() -> Result<(), saim_ising::ModelError> {
/// let mut b = QuboBuilder::new(3);
/// b.add_pair(0, 1, -2.0)?;
/// b.add_linear(2, 1.0)?;
/// b.add_offset(0.5);
/// let q = b.build();
/// assert_eq!(q.energy(&BinaryState::from_bits(&[1, 1, 0])), -1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Qubo {
    pairs: SymmetricMatrix,
    linear: Vec<f64>,
    offset: f64,
}

impl Qubo {
    /// Creates a QUBO from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `linear.len()` differs
    /// from the matrix size, and [`ModelError::NonFiniteCoefficient`] if any
    /// coefficient is NaN or infinite.
    pub fn new(pairs: SymmetricMatrix, linear: Vec<f64>, offset: f64) -> Result<Self, ModelError> {
        if pairs.len() != linear.len() {
            return Err(ModelError::DimensionMismatch {
                expected: pairs.len(),
                found: linear.len(),
            });
        }
        if linear.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteCoefficient {
                context: "qubo linear term",
            });
        }
        if !offset.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "qubo offset",
            });
        }
        Ok(Qubo {
            pairs,
            linear,
            offset,
        })
    }

    /// Number of binary variables.
    pub fn len(&self) -> usize {
        self.linear.len()
    }

    /// Whether the model has zero variables.
    pub fn is_empty(&self) -> bool {
        self.linear.is_empty()
    }

    /// The pairwise coefficient matrix.
    pub fn pairs(&self) -> &SymmetricMatrix {
        &self.pairs
    }

    /// The linear coefficients `c`.
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// The constant offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Evaluates `E(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn energy(&self, x: &BinaryState) -> f64 {
        assert_eq!(x.len(), self.len(), "state length mismatch");
        let mut e = self.offset;
        for i in 0..self.len() {
            if !x.is_set(i) {
                continue;
            }
            e += self.linear[i];
            let row = self.pairs.row(i);
            // count each pair once: only partners j > i
            for (j, &q) in row.iter().enumerate().skip(i + 1) {
                if x.is_set(j) {
                    e += q;
                }
            }
        }
        e
    }

    /// Energy change if bit `i` of `x` were flipped.
    ///
    /// Matches `energy(x') - energy(x)` exactly (up to floating-point
    /// rounding) without the O(n²) full evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()` or `i` is out of bounds.
    pub fn delta_energy(&self, x: &BinaryState, i: usize) -> f64 {
        assert_eq!(x.len(), self.len(), "state length mismatch");
        let row = self.pairs.row(i);
        let mut partners = 0.0;
        for (j, &q) in row.iter().enumerate() {
            if j != i && x.is_set(j) {
                partners += q;
            }
        }
        let direction = if x.is_set(i) { -1.0 } else { 1.0 };
        direction * (self.linear[i] + partners)
    }

    /// Converts to the equivalent Ising model via `x_i = (1 + s_i)/2`.
    ///
    /// The resulting model satisfies
    /// `ising.energy(&x.to_spins()) == qubo.energy(&x)` for every `x`
    /// (up to floating-point rounding). Couplings are stored in the
    /// representation that sweeps fastest
    /// ([`Couplings::from_dense_auto`]): CSR for large low-density models,
    /// dense otherwise.
    pub fn to_ising(&self) -> IsingModel {
        let n = self.len();
        let mut j = SymmetricMatrix::zeros(n);
        let mut h = vec![0.0; n];
        let mut offset = self.offset;

        // Σ c_i x_i = Σ c_i/2 + Σ (c_i/2) s_i  →  h_i -= c_i/2 (H carries -Σ h s)
        for (i, &c) in self.linear.iter().enumerate() {
            h[i] -= c / 2.0;
            offset += c / 2.0;
        }
        // Σ_{i<j} Q_ij x_i x_j = Σ Q_ij/4 (1 + s_i + s_j + s_i s_j)
        for (a, b, q) in self.pairs.iter_pairs() {
            j.add(a, b, -q / 4.0)
                .expect("indices from iter_pairs are valid");
            h[a] -= q / 4.0;
            h[b] -= q / 4.0;
            offset += q / 4.0;
        }
        IsingModel::new(Couplings::from_dense_auto(j), h, offset)
            .expect("conversion preserves dimensions and finiteness")
    }

    /// Largest absolute coefficient across pairs and linear terms.
    pub fn max_abs_coefficient(&self) -> f64 {
        let lin = self.linear.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
        lin.max(self.pairs.max_abs())
    }
}

/// Validating deserializer: the parts go through [`Qubo::new`] (and the
/// matrix through its own validating deserializer), so a model read off the
/// wire meets every condition a model built in code does.
impl Deserialize for Qubo {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let pairs = SymmetricMatrix::from_value(value.field("pairs")?)?;
        let linear = Vec::from_value(value.field("linear")?)?;
        let offset = f64::from_value(value.field("offset")?)?;
        Qubo::new(pairs, linear, offset).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Incremental builder for [`Qubo`] models.
///
/// `add_*` methods accumulate, so penalty terms, objectives and Lagrangian
/// contributions can be layered onto the same builder. Diagonal quadratic
/// contributions can be added with [`QuboBuilder::add_product`], which folds
/// `x_i·x_i` into the linear part.
///
/// ```
/// use saim_ising::QuboBuilder;
///
/// # fn main() -> Result<(), saim_ising::ModelError> {
/// let mut b = QuboBuilder::new(2);
/// // (x0 + x1 - 1)^2 = x0 + x1 + 2 x0 x1 - 2 x0 - 2 x1 + 1
/// b.add_squared_linear(&[1.0, 1.0], -1.0, 1.0)?;
/// let q = b.build();
/// assert_eq!(q.energy(&saim_ising::BinaryState::from_bits(&[1, 0])), 0.0);
/// assert_eq!(q.energy(&saim_ising::BinaryState::from_bits(&[1, 1])), 1.0);
/// assert_eq!(q.energy(&saim_ising::BinaryState::from_bits(&[0, 0])), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuboBuilder {
    pairs: SymmetricMatrix,
    linear: Vec<f64>,
    offset: f64,
}

impl QuboBuilder {
    /// Starts an empty model over `n` binary variables.
    pub fn new(n: usize) -> Self {
        QuboBuilder {
            pairs: SymmetricMatrix::zeros(n),
            linear: vec![0.0; n],
            offset: 0.0,
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.linear.len()
    }

    /// Whether the builder covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.linear.is_empty()
    }

    /// Adds `value · x_i x_j` for `i ≠ j`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SelfCoupling`] when `i == j` (use
    /// [`QuboBuilder::add_product`] to fold diagonals), plus the usual
    /// bounds/finiteness errors.
    pub fn add_pair(&mut self, i: usize, j: usize, value: f64) -> Result<(), ModelError> {
        self.pairs.add(i, j, value)
    }

    /// Adds `value · x_i x_j`, folding the diagonal case `i == j` into the
    /// linear term (since `x_i² = x_i`).
    ///
    /// # Errors
    ///
    /// Returns bounds/finiteness errors.
    pub fn add_product(&mut self, i: usize, j: usize, value: f64) -> Result<(), ModelError> {
        if i == j {
            self.add_linear(i, value)
        } else {
            self.pairs.add(i, j, value)
        }
    }

    /// Adds `value · x_i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfBounds`] or
    /// [`ModelError::NonFiniteCoefficient`].
    pub fn add_linear(&mut self, i: usize, value: f64) -> Result<(), ModelError> {
        if i >= self.linear.len() {
            return Err(ModelError::IndexOutOfBounds {
                index: i,
                len: self.linear.len(),
            });
        }
        if !value.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "builder linear term",
            });
        }
        self.linear[i] += value;
        Ok(())
    }

    /// Adds a constant to the energy.
    pub fn add_offset(&mut self, value: f64) {
        self.offset += value;
    }

    /// Adds `weight · (aᵀx + b)²`, the quadratic penalty of a linear
    /// expression — the workhorse of the penalty method (paper eq. 3).
    ///
    /// Expansion: `(aᵀx + b)² = Σ_i a_i(a_i + 2b) x_i + 2 Σ_{i<j} a_i a_j x_i x_j + b²`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `a.len() != self.len()`
    /// and [`ModelError::NonFiniteCoefficient`] for non-finite inputs.
    pub fn add_squared_linear(&mut self, a: &[f64], b: f64, weight: f64) -> Result<(), ModelError> {
        if a.len() != self.linear.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.linear.len(),
                found: a.len(),
            });
        }
        if a.iter().any(|v| !v.is_finite()) || !b.is_finite() || !weight.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "squared linear penalty",
            });
        }
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            self.linear[i] += weight * ai * (ai + 2.0 * b);
            for (j, &aj) in a.iter().enumerate().skip(i + 1) {
                if aj != 0.0 {
                    self.pairs.add(i, j, 2.0 * weight * ai * aj)?;
                }
            }
        }
        self.offset += weight * b * b;
        Ok(())
    }

    /// Adds `weight · (aᵀx + b)`, the linear (Lagrangian) contribution of a
    /// constraint (paper eq. 5).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuboBuilder::add_squared_linear`].
    pub fn add_weighted_linear(
        &mut self,
        a: &[f64],
        b: f64,
        weight: f64,
    ) -> Result<(), ModelError> {
        if a.len() != self.linear.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.linear.len(),
                found: a.len(),
            });
        }
        if a.iter().any(|v| !v.is_finite()) || !b.is_finite() || !weight.is_finite() {
            return Err(ModelError::NonFiniteCoefficient {
                context: "weighted linear term",
            });
        }
        for (i, &ai) in a.iter().enumerate() {
            self.linear[i] += weight * ai;
        }
        self.offset += weight * b;
        Ok(())
    }

    /// Finishes the build.
    pub fn build(self) -> Qubo {
        Qubo {
            pairs: self.pairs,
            linear: self.linear,
            offset: self.offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deserializer_goes_through_the_constructor() {
        let parse =
            |text: &str| Qubo::from_value(&serde_json::parse_value_str(text).expect("json"));
        let mut b = QuboBuilder::new(2);
        b.add_pair(0, 1, 2.0).unwrap();
        b.add_linear(1, -1.0).unwrap();
        let q = b.build();
        assert_eq!(parse(&serde_json::to_string(&q).unwrap()), Ok(q));
        let pairs = r#""pairs":{"n":2,"data":[0.0,2.0,2.0,0.0]}"#;
        for tail in [
            r#""linear":[0.0],"offset":0.0"#,
            r#""linear":[0.0,null],"offset":0.0"#,
            r#""linear":[0.0,-1.0],"offset":null"#,
        ] {
            let bad = format!("{{{pairs},{tail}}}");
            assert!(parse(&bad).is_err(), "{bad}");
        }
    }

    fn brute_force_min(q: &Qubo) -> f64 {
        (0u64..(1 << q.len()))
            .map(|m| q.energy(&BinaryState::from_mask(m, q.len())))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn energy_small_model() {
        let mut b = QuboBuilder::new(2);
        b.add_pair(0, 1, 3.0).unwrap();
        b.add_linear(0, -2.0).unwrap();
        b.add_linear(1, -1.0).unwrap();
        let q = b.build();
        assert_eq!(q.energy(&BinaryState::from_bits(&[0, 0])), 0.0);
        assert_eq!(q.energy(&BinaryState::from_bits(&[1, 0])), -2.0);
        assert_eq!(q.energy(&BinaryState::from_bits(&[0, 1])), -1.0);
        assert_eq!(q.energy(&BinaryState::from_bits(&[1, 1])), 0.0);
    }

    #[test]
    fn delta_energy_matches_full_recompute() {
        let mut b = QuboBuilder::new(4);
        b.add_pair(0, 1, 1.5).unwrap();
        b.add_pair(1, 3, -2.0).unwrap();
        b.add_pair(2, 3, 0.5).unwrap();
        b.add_linear(0, 1.0).unwrap();
        b.add_linear(2, -3.0).unwrap();
        b.add_offset(7.0);
        let q = b.build();
        for mask in 0u64..16 {
            let x = BinaryState::from_mask(mask, 4);
            for i in 0..4 {
                let mut y = x.clone();
                y.flip(i);
                let expected = q.energy(&y) - q.energy(&x);
                assert!(
                    (q.delta_energy(&x, i) - expected).abs() < 1e-12,
                    "mask {mask} flip {i}"
                );
            }
        }
    }

    #[test]
    fn ising_conversion_preserves_energy() {
        let mut b = QuboBuilder::new(3);
        b.add_pair(0, 1, 2.0).unwrap();
        b.add_pair(0, 2, -1.0).unwrap();
        b.add_linear(1, 4.0).unwrap();
        b.add_offset(-0.25);
        let q = b.build();
        let ising = q.to_ising();
        for mask in 0u64..8 {
            let x = BinaryState::from_mask(mask, 3);
            let e_q = q.energy(&x);
            let e_i = ising.energy(&x.to_spins());
            assert!((e_q - e_i).abs() < 1e-12, "mask {mask}: {e_q} vs {e_i}");
        }
    }

    #[test]
    fn squared_linear_expansion_is_exact() {
        let a = [2.0, -1.0, 3.0];
        let b_const = -2.0;
        let weight = 1.7;
        let mut builder = QuboBuilder::new(3);
        builder.add_squared_linear(&a, b_const, weight).unwrap();
        let q = builder.build();
        for mask in 0u64..8 {
            let x = BinaryState::from_mask(mask, 3);
            let lhs = q.energy(&x);
            let inner = x.dot(&a) + b_const;
            let rhs = weight * inner * inner;
            assert!((lhs - rhs).abs() < 1e-12, "mask {mask}");
        }
    }

    #[test]
    fn weighted_linear_is_exact() {
        let a = [1.0, 2.0, -3.0];
        let mut builder = QuboBuilder::new(3);
        builder.add_weighted_linear(&a, 5.0, -0.5).unwrap();
        let q = builder.build();
        for mask in 0u64..8 {
            let x = BinaryState::from_mask(mask, 3);
            let rhs = -0.5 * (x.dot(&a) + 5.0);
            assert!((q.energy(&x) - rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn add_product_folds_diagonal() {
        let mut b = QuboBuilder::new(2);
        b.add_product(1, 1, 4.0).unwrap();
        b.add_product(0, 1, 2.0).unwrap();
        let q = b.build();
        assert_eq!(q.linear()[1], 4.0);
        assert_eq!(q.pairs().get(0, 1), 2.0);
    }

    #[test]
    fn penalty_minimum_is_on_constraint() {
        // minimize (x0 + x1 + x2 - 2)^2: minima are the states with exactly two ones
        let mut b = QuboBuilder::new(3);
        b.add_squared_linear(&[1.0, 1.0, 1.0], -2.0, 1.0).unwrap();
        let q = b.build();
        assert_eq!(brute_force_min(&q), 0.0);
        assert_eq!(q.energy(&BinaryState::from_bits(&[1, 1, 0])), 0.0);
        assert_eq!(q.energy(&BinaryState::from_bits(&[1, 1, 1])), 1.0);
    }

    #[test]
    fn new_validates() {
        let m = SymmetricMatrix::zeros(2);
        assert!(matches!(
            Qubo::new(m.clone(), vec![0.0; 3], 0.0),
            Err(ModelError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Qubo::new(m.clone(), vec![f64::INFINITY, 0.0], 0.0),
            Err(ModelError::NonFiniteCoefficient { .. })
        ));
        assert!(Qubo::new(m, vec![0.0; 2], 1.0).is_ok());
    }

    #[test]
    fn max_abs_coefficient() {
        let mut b = QuboBuilder::new(2);
        b.add_pair(0, 1, -9.0).unwrap();
        b.add_linear(0, 3.0).unwrap();
        assert_eq!(b.build().max_abs_coefficient(), 9.0);
    }
}
