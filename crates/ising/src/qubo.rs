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
    /// dense otherwise. The sums run in a fixed order, so the model is the
    /// same to the bit on every platform (see [`Qubo::into_ising`]).
    ///
    /// # Panics
    ///
    /// Panics if a field or the offset overflows; [`Qubo::into_ising`]
    /// returns that as an error.
    pub fn to_ising(&self) -> IsingModel {
        self.clone()
            .into_ising()
            .expect("conversion of a finite QUBO stays finite")
    }

    /// [`Qubo::to_ising`] by value: the QUBO's pair matrix becomes `J` in
    /// place.
    ///
    /// `J_ij = −Q_ij/4`, `h_i = −c_i/2 − Σ_j Q_ij/4` and
    /// `offset = offset_Q + Σ_i c_i/2 + Σ_{i<j} Q_ij/4`. Each `h_i` sums
    /// its row in ascending `j`, and the offset sums the linear terms in
    /// ascending `i` and then the nonzero upper-triangle pairs row-major.
    /// These are the orders in which a loop over the pairs `i < j` adds
    /// them, so the result matches a per-pair conversion to the bit. The
    /// loop walks the rows once: row `j` holds `Q_kj` for every `k`, so it
    /// advances every `h_k` by one term in a single vector pass.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonFiniteCoefficient`] if a field or the
    /// offset overflows.
    pub fn into_ising(self) -> Result<IsingModel, ModelError> {
        let Qubo {
            mut pairs,
            linear,
            mut offset,
        } = self;
        // Σ c_i x_i = Σ c_i/2 + Σ (c_i/2) s_i  →  h_i = −c_i/2 (H carries −Σ h s)
        let mut h: Vec<f64> = linear.iter().map(|&c| 0.0 - c / 2.0).collect();
        for &c in &linear {
            offset += c / 2.0;
        }
        // Σ_{i<j} Q_ij x_i x_j = Σ Q_ij/4 (1 + s_i + s_j + s_i s_j)
        for (j, row) in pairs.rows_mut().enumerate() {
            let (lower, rest) = row.split_at_mut(j);
            let (diagonal, upper) = rest.split_first_mut().expect("row j has a diagonal entry");
            *diagonal = 0.0;
            for (q, h_k) in lower.iter_mut().zip(&mut h[..j]) {
                let quarter = *q / 4.0;
                *h_k -= quarter;
                *q = 0.0 - quarter;
            }
            for (q, h_k) in upper.iter_mut().zip(&mut h[j + 1..]) {
                let quarter = *q / 4.0;
                *h_k -= quarter;
                offset = if *q != 0.0 { offset + quarter } else { offset };
                *q = 0.0 - quarter;
            }
        }
        IsingModel::new(Couplings::from_dense_auto(pairs), h, offset)
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

    /// Starts from a copy of `qubo`, as if its terms had been added to an
    /// empty builder: `−0.0` entries read as `0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonFiniteCoefficient`] if a pair or linear
    /// coefficient is not finite.
    pub fn from_qubo(qubo: &Qubo) -> Result<Self, ModelError> {
        let mut pairs = qubo.pairs.clone();
        for (i, row) in pairs.rows_mut().enumerate() {
            row[i] = 0.0;
            let finite = row.iter_mut().fold(true, |finite, q| {
                *q += 0.0;
                finite & q.is_finite()
            });
            if !finite {
                return Err(ModelError::NonFiniteCoefficient {
                    context: "symmetric matrix entry",
                });
            }
        }
        let linear = qubo
            .linear
            .iter()
            .map(|&c| checked(0.0 + c, "builder linear term"))
            .collect::<Result<_, _>>()?;
        Ok(QuboBuilder {
            pairs,
            linear,
            offset: 0.0 + qubo.offset,
        })
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
    /// Returns [`ModelError::IndexOutOfBounds`], or
    /// [`ModelError::NonFiniteCoefficient`] if `value` or the sum is not
    /// finite.
    pub fn add_linear(&mut self, i: usize, value: f64) -> Result<(), ModelError> {
        if i >= self.linear.len() {
            return Err(ModelError::IndexOutOfBounds {
                index: i,
                len: self.linear.len(),
            });
        }
        self.linear[i] = checked(self.linear[i] + value, "builder linear term")?;
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
    /// The pair matrix is written row by row; both mirrored entries of a
    /// pair get `((2·weight)·a_i)·a_j` with `i < j`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `a.len() != self.len()`
    /// and [`ModelError::NonFiniteCoefficient`] for non-finite inputs or
    /// if a term or a sum would overflow. Every term is checked before
    /// anything is written, so an error leaves the builder unchanged.
    pub fn add_squared_linear(&mut self, a: &[f64], b: f64, weight: f64) -> Result<(), ModelError> {
        const CONTEXT: &str = "squared linear penalty";
        let linear = self.updated_linear(a, b, weight, CONTEXT, |c, ai| {
            if ai == 0.0 {
                c
            } else {
                c + weight * ai * (ai + 2.0 * b)
            }
        })?;
        let offset = checked(self.offset + weight * b * b, CONTEXT)?;
        // (2·weight)·a_i, the factor of a pair's lower index
        let lower: Vec<f64> = a.iter().map(|&ai| 2.0 * weight * ai).collect();
        let has_pairs = a.iter().filter(|&&ai| ai != 0.0).count() >= 2;
        if has_pairs {
            for (i, row) in self.pairs.rows_mut().enumerate() {
                let li = lower[i];
                let overflow = a[i] != 0.0
                    && row[i + 1..]
                        .iter()
                        .zip(&a[i + 1..])
                        .fold(false, |bad, (&q, &aj)| {
                            bad | ((aj != 0.0) & !(q + li * aj).is_finite())
                        });
                if overflow {
                    return Err(ModelError::NonFiniteCoefficient { context: CONTEXT });
                }
            }
        }
        self.linear = linear;
        self.offset = offset;
        if has_pairs {
            // every product is finite, so 2·weight is, and a zero a_j adds
            // ±0 — which leaves an entry (never −0) unchanged
            for (i, row) in self.pairs.rows_mut().enumerate() {
                let ai = a[i];
                if ai == 0.0 {
                    continue;
                }
                for (q, &lj) in row[..i].iter_mut().zip(&lower) {
                    *q += lj * ai;
                }
                let li = lower[i];
                for (q, &aj) in row[i + 1..].iter_mut().zip(&a[i + 1..]) {
                    *q += li * aj;
                }
            }
        }
        Ok(())
    }

    /// Adds `weight · (aᵀx + b)`, the linear (Lagrangian) contribution of a
    /// constraint (paper eq. 5).
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuboBuilder::add_squared_linear`]; an error
    /// leaves the builder unchanged.
    pub fn add_weighted_linear(
        &mut self,
        a: &[f64],
        b: f64,
        weight: f64,
    ) -> Result<(), ModelError> {
        const CONTEXT: &str = "weighted linear term";
        let linear = self.updated_linear(a, b, weight, CONTEXT, |c, ai| c + weight * ai)?;
        self.offset = checked(self.offset + weight * b, CONTEXT)?;
        self.linear = linear;
        Ok(())
    }

    /// The linear part with each `c_i` replaced by `update(c_i, a_i)`, for
    /// a term in the linear expression `aᵀx + b` scaled by `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if `a.len() != self.len()`
    /// and [`ModelError::NonFiniteCoefficient`] for non-finite inputs or
    /// results.
    fn updated_linear(
        &self,
        a: &[f64],
        b: f64,
        weight: f64,
        context: &'static str,
        update: impl Fn(f64, f64) -> f64,
    ) -> Result<Vec<f64>, ModelError> {
        if a.len() != self.linear.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.linear.len(),
                found: a.len(),
            });
        }
        if a.iter().any(|v| !v.is_finite()) || !b.is_finite() || !weight.is_finite() {
            return Err(ModelError::NonFiniteCoefficient { context });
        }
        let linear: Vec<f64> = self
            .linear
            .iter()
            .zip(a)
            .map(|(&c, &ai)| update(c, ai))
            .collect();
        if linear.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteCoefficient { context });
        }
        Ok(linear)
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

/// `value`, or a [`ModelError::NonFiniteCoefficient`] if it is not finite.
fn checked(value: f64, context: &'static str) -> Result<f64, ModelError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(ModelError::NonFiniteCoefficient { context })
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
    fn overflowing_terms_are_refused_and_leave_the_builder_unchanged() {
        let mut b = QuboBuilder::new(3);
        b.add_pair(0, 1, 1.0).unwrap();
        b.add_linear(2, 1e308).unwrap();
        let before = b.clone();
        // the linear term a_0² = 1e400 overflows
        assert!(b
            .add_squared_linear(&[1e200, 1e200, 0.0], 0.0, 1.0)
            .is_err());
        // pair products 2·a_i·a_j = 2e300 and b² = 1e300 are finite, but
        // the offset's weight · b² is not
        assert!(b
            .add_squared_linear(&[1e150, 1e150, 0.0], 1e150, 1e10)
            .is_err());
        // the pair product ((2w)·a_0)·a_1 = 3e308 alone overflows: a_i + 2b
        // is 0 and w·b² = 3.75e307
        assert!(b
            .add_squared_linear(&[1e200, 1e200, 0.0], -5e199, 1.5e-92)
            .is_err());
        // finite term, overflowing sum
        assert!(b.add_weighted_linear(&[0.0, 0.0, 1e308], 0.0, 1.0).is_err());
        assert!(b.add_linear(2, 1e308).is_err());
        assert_eq!(b, before);
        let mut pair = QuboBuilder::new(2);
        pair.add_pair(0, 1, f64::MAX).unwrap();
        assert!(pair.add_pair(1, 0, f64::MAX).is_err());
        assert_eq!(pair.build().pairs().max_abs(), f64::MAX);
    }

    #[test]
    fn one_nonzero_coefficient_writes_no_pairs_even_at_huge_weight() {
        // 2·weight overflows, but with a single nonzero a_i there is no pair
        let mut b = QuboBuilder::new(3);
        b.add_squared_linear(&[0.0, 1.0, 0.0], -0.5, f64::MAX)
            .unwrap();
        let q = b.build();
        assert_eq!(q.pairs(), &SymmetricMatrix::zeros(3));
        assert_eq!(q.linear(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_qubo_reads_negative_zero_as_zero() {
        // −0.0 pairs, the diagonal too, as a wire-delivered matrix holds them
        let pairs: SymmetricMatrix =
            serde_json::from_str(r#"{"n":2,"data":[-0.0,-0.0,-0.0,-0.0]}"#).unwrap();
        assert!(pairs.get(0, 1).is_sign_negative());
        let q = Qubo::new(pairs, vec![-0.0, 1.0], -0.0).unwrap();
        let b = QuboBuilder::from_qubo(&q).unwrap().build();
        let positive = |v: f64| v.to_bits() == 0.0f64.to_bits();
        assert!((0..2).all(|i| b.pairs().row(i).iter().all(|&v| positive(v))));
        assert!(positive(b.linear()[0]) && positive(b.offset()));
    }

    #[test]
    fn into_ising_reports_overflow_instead_of_panicking() {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, f64::MAX).unwrap();
        b.add_linear(1, f64::MAX).unwrap();
        // offset_Q + Σ c_i/2 = MAX/2 + MAX/2 + MAX/2 overflows
        b.add_offset(f64::MAX / 2.0);
        assert!(matches!(
            b.build().into_ising(),
            Err(ModelError::NonFiniteCoefficient { .. })
        ));
    }

    #[test]
    fn max_abs_coefficient() {
        let mut b = QuboBuilder::new(2);
        b.add_pair(0, 1, -9.0).unwrap();
        b.add_linear(0, 3.0).unwrap();
        assert_eq!(b.build().max_abs_coefficient(), 9.0);
    }
}
