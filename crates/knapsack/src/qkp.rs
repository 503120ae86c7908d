use crate::encode::QkpEncoded;
use crate::error::KnapsackError;
use serde::{Deserialize, Serialize};

/// A quadratic knapsack problem instance (paper eq. 12):
///
/// ```text
/// min  −½ xᵀW x − hᵀx        (maximize item + pairwise profits)
/// s.t. aᵀx ≤ b,   x ∈ {0,1}^N
/// ```
///
/// All data are integers, so costing and feasibility are exact. The pair
/// profits `W` are stored once per unordered pair; the paper's `½ xᵀWx` with
/// symmetric `W` equals `Σ_{i<j} W_ij x_i x_j` in this storage.
///
/// ```
/// use saim_knapsack::QkpInstance;
///
/// # fn main() -> Result<(), saim_knapsack::KnapsackError> {
/// // 3 items; item pair (0,1) adds 5 profit when both are packed
/// let qkp = QkpInstance::new(
///     vec![10, 20, 15],           // item values
///     vec![(0, 1, 5)],            // pairwise values
///     vec![4, 3, 2],              // weights
///     6,                          // capacity
/// )?;
/// assert_eq!(qkp.profit(&[1, 1, 0]), 35);       // 10 + 20 + 5
/// assert!(qkp.is_feasible(&[1, 0, 1]));         // weight 6 ≤ 6
/// assert!(!qkp.is_feasible(&[1, 1, 1]));        // weight 9 > 6
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QkpInstance {
    values: Vec<u32>,
    /// Upper-triangle pair profits, row-major over (i, j) with i < j.
    pair_values: Vec<u32>,
    weights: Vec<u32>,
    capacity: u64,
    /// Optional instance label, e.g. "100-25-1" (N-density-index).
    label: String,
}

impl QkpInstance {
    /// Creates an instance from item values, sparse pair profits, weights,
    /// and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`KnapsackError::Empty`] for zero items,
    /// [`KnapsackError::DimensionMismatch`] if `values` and `weights`
    /// disagree, and [`KnapsackError::InvalidParameter`] for out-of-range
    /// pair indices, diagonal pairs, or zero capacity.
    pub fn new(
        values: Vec<u32>,
        pairs: Vec<(usize, usize, u32)>,
        weights: Vec<u32>,
        capacity: u64,
    ) -> Result<Self, KnapsackError> {
        let n = values.len();
        if n == 0 {
            return Err(KnapsackError::Empty { what: "items" });
        }
        if weights.len() != n {
            return Err(KnapsackError::DimensionMismatch {
                expected: n,
                found: weights.len(),
            });
        }
        if capacity == 0 {
            return Err(KnapsackError::InvalidParameter {
                name: "capacity",
                reason: "must be at least 1",
            });
        }
        let mut instance = QkpInstance {
            values,
            pair_values: vec![0; n * (n - 1) / 2],
            weights,
            capacity,
            label: String::new(),
        };
        for (i, j, v) in pairs {
            if i >= n || j >= n {
                return Err(KnapsackError::InvalidParameter {
                    name: "pair index",
                    reason: "out of bounds",
                });
            }
            if i == j {
                return Err(KnapsackError::InvalidParameter {
                    name: "pair index",
                    reason: "pairs must couple two distinct items",
                });
            }
            let idx = instance.pair_index(i.min(j), i.max(j));
            instance.pair_values[idx] += v;
        }
        Ok(instance)
    }

    /// Attaches a label (e.g. `"300-50-8"` for N=300, d=50%, instance 8).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The instance label ("" when unset).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A stable 64-bit content digest (FNV-1a over the canonical text
    /// serialization, label included) — the `instance_digest` tag of the
    /// job wire schema. Equal instances always digest equally on
    /// every platform; inequality of digests proves inequality of
    /// instances (the converse is a hash, not a guarantee).
    pub fn digest(&self) -> u64 {
        crate::io::fnv1a64(crate::io::write_qkp(self).as_bytes())
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.len());
        let n = self.len();
        // offset of row i within the packed strict upper triangle
        i * n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Number of items `N`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the instance has zero items (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Item values `h`.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Item weights `a`.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The knapsack capacity `b`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The pairwise profit of items `i` and `j` (0 when uncoupled).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of bounds.
    pub fn pair_value(&self, i: usize, j: usize) -> u32 {
        assert!(i != j, "no diagonal pair values");
        assert!(i < self.len() && j < self.len(), "index out of bounds");
        self.pair_values[self.pair_index(i.min(j), i.max(j))]
    }

    /// Iterates over nonzero `(i, j, value)` pair profits with `i < j`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        let n = self.len();
        (0..n).flat_map(move |i| {
            ((i + 1)..n).filter_map(move |j| {
                let v = self.pair_values[self.pair_index(i, j)];
                (v > 0).then_some((i, j, v))
            })
        })
    }

    /// Density of the pair-profit matrix (the paper's instance parameter `d`).
    pub fn density(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        let nonzero = self.pair_values.iter().filter(|&&v| v > 0).count();
        nonzero as f64 / self.pair_values.len() as f64
    }

    /// Total weight of a selection.
    ///
    /// # Panics
    ///
    /// Panics if `selection.len() != self.len()`.
    pub fn weight(&self, selection: &[u8]) -> u64 {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        selection
            .iter()
            .zip(&self.weights)
            .filter(|(&s, _)| s == 1)
            .map(|(_, &w)| w as u64)
            .sum()
    }

    /// Total profit (item values plus pair profits) of a selection.
    ///
    /// # Panics
    ///
    /// Panics if `selection.len() != self.len()`.
    pub fn profit(&self, selection: &[u8]) -> u64 {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        let mut p: u64 = selection
            .iter()
            .zip(&self.values)
            .filter(|(&s, _)| s == 1)
            .map(|(_, &v)| v as u64)
            .sum();
        let chosen: Vec<usize> = (0..self.len()).filter(|&i| selection[i] == 1).collect();
        for (a, &i) in chosen.iter().enumerate() {
            for &j in &chosen[a + 1..] {
                p += self.pair_values[self.pair_index(i, j)] as u64;
            }
        }
        p
    }

    /// Whether a selection respects the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `selection.len() != self.len()`.
    pub fn is_feasible(&self, selection: &[u8]) -> bool {
        self.weight(selection) <= self.capacity
    }

    /// The native minimization cost: `−profit` (paper eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if `selection.len() != self.len()`.
    pub fn cost(&self, selection: &[u8]) -> f64 {
        -(self.profit(selection) as f64)
    }

    /// Builds the normalized, slack-extended Ising encoding of the instance.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures (none occur for valid instances).
    pub fn encode(&self) -> Result<QkpEncoded, KnapsackError> {
        QkpEncoded::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QkpInstance {
        QkpInstance::new(
            vec![10, 20, 15, 5],
            vec![(0, 1, 5), (2, 3, 7), (0, 3, 2)],
            vec![4, 3, 2, 1],
            6,
        )
        .unwrap()
    }

    #[test]
    fn profit_counts_pairs_once() {
        let q = sample();
        assert_eq!(q.profit(&[1, 1, 0, 0]), 35);
        assert_eq!(q.profit(&[0, 0, 1, 1]), 27); // 15 + 5 + 7
        assert_eq!(q.profit(&[1, 0, 0, 1]), 17); // 10 + 5 + 2
        assert_eq!(q.profit(&[1, 1, 1, 1]), 64); // 50 + 5 + 7 + 2
        assert_eq!(q.profit(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn pair_value_is_symmetric() {
        let q = sample();
        assert_eq!(q.pair_value(0, 1), 5);
        assert_eq!(q.pair_value(1, 0), 5);
        assert_eq!(q.pair_value(1, 2), 0);
    }

    #[test]
    fn weight_and_feasibility() {
        let q = sample();
        assert_eq!(q.weight(&[1, 0, 1, 0]), 6);
        assert!(q.is_feasible(&[1, 0, 1, 0]));
        assert!(!q.is_feasible(&[1, 1, 0, 0])); // 7 > 6
        assert!(q.is_feasible(&[0, 0, 0, 0]));
    }

    #[test]
    fn cost_is_negated_profit() {
        let q = sample();
        assert_eq!(q.cost(&[1, 1, 0, 0]), -35.0);
    }

    #[test]
    fn density_counts_nonzero_pairs() {
        let q = sample();
        // 3 nonzero of C(4,2) = 6 pairs
        assert!((q.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_pairs_accumulate() {
        let q = QkpInstance::new(vec![1, 1], vec![(0, 1, 2), (1, 0, 3)], vec![1, 1], 2).unwrap();
        assert_eq!(q.pair_value(0, 1), 5);
    }

    #[test]
    fn iter_pairs_yields_upper_triangle() {
        let q = sample();
        let pairs: Vec<_> = q.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 5), (0, 3, 2), (2, 3, 7)]);
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            QkpInstance::new(vec![], vec![], vec![], 5),
            Err(KnapsackError::Empty { .. })
        ));
        assert!(matches!(
            QkpInstance::new(vec![1], vec![], vec![1, 2], 5),
            Err(KnapsackError::DimensionMismatch { .. })
        ));
        assert!(QkpInstance::new(vec![1], vec![], vec![1], 0).is_err());
        assert!(QkpInstance::new(vec![1, 2], vec![(0, 0, 1)], vec![1, 1], 5).is_err());
        assert!(QkpInstance::new(vec![1, 2], vec![(0, 5, 1)], vec![1, 1], 5).is_err());
    }

    #[test]
    fn label_roundtrip() {
        let q = sample().with_label("4-50-1");
        assert_eq!(q.label(), "4-50-1");
    }
}
