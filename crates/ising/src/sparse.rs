use crate::dense::SymmetricMatrix;
use serde::{Deserialize, Serialize};

/// A compressed-sparse-row symmetric matrix.
///
/// Both `(i, j)` and `(j, i)` entries are stored so that a row scan yields
/// every neighbour of a variable — exactly what the p-bit local-field
/// computation needs on sparse topologies (e.g. max-cut graphs).
///
/// ```
/// use saim_ising::CsrMatrix;
///
/// let m = CsrMatrix::from_pairs(3, &[(0, 1, 2.0), (1, 2, -1.0)]);
/// assert_eq!(m.len(), 3);
/// assert_eq!(m.row_iter(1).collect::<Vec<_>>(), vec![(0, 2.0), (2, -1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from unordered `(i, j, value)` pairs, `i ≠ j`.
    ///
    /// Duplicate pairs are summed. Zero-valued accumulated entries are kept
    /// (they are structural nonzeros).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n` or a pair has `i == j`.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize, f64)]) -> Self {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(i, j, v) in pairs {
            assert!(i < n && j < n, "pair index out of bounds");
            assert_ne!(i, j, "self-coupling pairs are not allowed");
            *map.entry((i, j)).or_insert(0.0) += v;
            *map.entry((j, i)).or_insert(0.0) += v;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _) in map.keys() {
            row_ptr[i + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(map.len());
        let mut values = Vec::with_capacity(map.len());
        for ((_, j), v) in map {
            col_idx.push(j);
            values.push(v);
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts a dense symmetric matrix to CSR, keeping only nonzeros.
    ///
    /// Builds the rows by a direct scan of the dense storage (columns come
    /// out ascending for free), so the conversion is a single O(n²) pass
    /// with no intermediate map;
    /// [`Couplings::from_dense_auto`](crate::Couplings::from_dense_auto)
    /// runs it once when a large low-density model is stored.
    pub fn from_dense(dense: &SymmetricMatrix) -> Self {
        let n = dense.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
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

    /// Number of stored entries (each unordered pair appears twice).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(column, value)` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row_iter(&self, i: usize) -> CsrRowIter<'_> {
        assert!(i < self.n, "row index out of bounds");
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        CsrRowIter {
            cols: &self.col_idx[start..end],
            vals: &self.values[start..end],
            pos: 0,
        }
    }

    /// The coefficient between `i` and `j` (0 if absent).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.row_iter(i)
            .find(|&(c, _)| c == j)
            .map_or(0.0, |(_, v)| v)
    }

    /// `Σ_j M_ij s_j` over the stored row entries with ±1 spins.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_spins(&self, i: usize, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.n, "spin vector length mismatch");
        self.row_iter(i).map(|(j, v)| v * f64::from(spins[j])).sum()
    }

    /// `Σ_j M_ij s_j` over the stored row entries with spins pre-converted
    /// to `±1.0` floats (the sweep hot path's representation).
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_f64(&self, i: usize, spins: &[f64]) -> f64 {
        assert_eq!(spins.len(), self.n, "spin vector length mismatch");
        self.row_iter(i).map(|(j, v)| v * spins[j]).sum()
    }

    /// `Σ_j |M_ij|` over the stored entries of row `i` — the sparse
    /// counterpart of [`SymmetricMatrix::row_abs_sum`], walking only actual
    /// neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_abs_sum(&self, i: usize) -> f64 {
        self.row_iter(i).map(|(_, v)| v.abs()).sum()
    }

    /// Largest absolute stored value (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }

    /// Converts back to a dense symmetric matrix.
    pub fn to_dense(&self) -> SymmetricMatrix {
        let mut out = SymmetricMatrix::zeros(self.n);
        for i in 0..self.n {
            for (j, v) in self.row_iter(i) {
                if i < j && v != 0.0 {
                    out.set(i, j, v).expect("csr indices are validated");
                }
            }
        }
        out
    }
}

/// Iterator over one row of a [`CsrMatrix`], yielding `(column, value)`.
#[derive(Debug, Clone)]
pub struct CsrRowIter<'a> {
    cols: &'a [usize],
    vals: &'a [f64],
    pos: usize,
}

impl Iterator for CsrRowIter<'_> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.cols.len() {
            let item = (self.cols[self.pos], self.vals[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CsrRowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_stores_both_directions() {
        let m = CsrMatrix::from_pairs(3, &[(0, 2, 1.5)]);
        assert_eq!(m.get(0, 2), 1.5);
        assert_eq!(m.get(2, 0), 1.5);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn duplicate_pairs_accumulate() {
        let m = CsrMatrix::from_pairs(2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        assert_eq!(m.get(0, 1), 3.0);
    }

    #[test]
    fn dense_roundtrip() {
        let mut d = SymmetricMatrix::zeros(4);
        d.set(0, 3, 2.0).unwrap();
        d.set(1, 2, -1.0).unwrap();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn row_dot_matches_dense() {
        let mut d = SymmetricMatrix::zeros(3);
        d.set(0, 1, 2.0).unwrap();
        d.set(0, 2, -3.0).unwrap();
        let csr = CsrMatrix::from_dense(&d);
        let spins = [1i8, -1, 1];
        for i in 0..3 {
            assert_eq!(csr.row_dot_spins(i, &spins), d.row_dot_spins(i, &spins));
        }
    }

    #[test]
    fn row_iter_is_exact_size() {
        let m = CsrMatrix::from_pairs(3, &[(0, 1, 1.0), (0, 2, 1.0)]);
        let it = m.row_iter(0);
        assert_eq!(it.len(), 2);
        assert_eq!(m.row_iter(1).len(), 1);
    }

    #[test]
    fn row_abs_sum_walks_neighbours_only() {
        let mut d = SymmetricMatrix::zeros(6);
        d.set(0, 2, -2.0).unwrap();
        d.set(0, 5, 0.5).unwrap();
        d.set(1, 3, -1.0).unwrap();
        let csr = CsrMatrix::from_dense(&d);
        for i in 0..6 {
            assert_eq!(csr.row_abs_sum(i), d.row_abs_sum(i), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "self-coupling")]
    fn rejects_diagonal() {
        let _ = CsrMatrix::from_pairs(2, &[(1, 1, 1.0)]);
    }
}
