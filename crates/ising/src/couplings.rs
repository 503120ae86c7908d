use crate::dense::SymmetricMatrix;
use crate::sparse::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Pairwise coupling storage, either dense or sparse.
///
/// The p-bit machine only needs two operations from the couplings — a row/spin
/// dot product for the local field (paper eq. 9) and the size — so this enum
/// lets models pick the representation matching their topology: dense for
/// knapsack QUBOs (penalty terms densify rows), CSR for sparse graphs.
///
/// ```
/// use saim_ising::{Couplings, SymmetricMatrix};
///
/// # fn main() -> Result<(), saim_ising::ModelError> {
/// let mut m = SymmetricMatrix::zeros(2);
/// m.set(0, 1, 4.0)?;
/// let c = Couplings::Dense(m);
/// assert_eq!(c.row_dot_spins(0, &[1, -1]), -4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Couplings {
    /// Dense symmetric storage; best when most pairs are coupled.
    Dense(SymmetricMatrix),
    /// Compressed sparse rows; best for bounded-degree topologies.
    Sparse(CsrMatrix),
}

impl Couplings {
    /// Dense models below this pair density store as CSR: the sweep's flip
    /// propagation then walks the ~`density · n` actual neighbours instead
    /// of scanning the full zero-padded row.
    pub const SPARSE_MAX_DENSITY: f64 = 0.25;

    /// Models smaller than this always stay dense — the full row scan fits
    /// in cache and the CSR indirection would cost more than it saves.
    pub const SPARSE_MIN_LEN: usize = 64;

    /// Wraps a dense matrix in the representation that sweeps fastest:
    /// CSR when the model is large and sparse enough
    /// ([`Couplings::SPARSE_MIN_LEN`] / [`Couplings::SPARSE_MAX_DENSITY`]),
    /// dense otherwise.
    ///
    /// [`Qubo::to_ising`](../../saim_ising/struct.Qubo.html) routes through
    /// this, so every consumer of a converted model — p-bit machines in
    /// particular — shares one structure-appropriate coupling store instead
    /// of mirroring it per machine.
    pub fn from_dense_auto(matrix: SymmetricMatrix) -> Self {
        if matrix.len() >= Self::SPARSE_MIN_LEN && matrix.density() <= Self::SPARSE_MAX_DENSITY {
            Couplings::Sparse(CsrMatrix::from_dense(&matrix))
        } else {
            Couplings::Dense(matrix)
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        match self {
            Couplings::Dense(m) => m.len(),
            Couplings::Sparse(m) => m.len(),
        }
    }

    /// Whether the couplings cover zero variables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coefficient between `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Couplings::Dense(m) => m.get(i, j),
            Couplings::Sparse(m) => m.get(i, j),
        }
    }

    /// `Σ_j M_ij s_j` with ±1 spins stored as `i8`.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_spins(&self, i: usize, spins: &[i8]) -> f64 {
        match self {
            Couplings::Dense(m) => m.row_dot_spins(i, spins),
            Couplings::Sparse(m) => m.row_dot_spins(i, spins),
        }
    }

    /// `Σ_j M_ij s_j` with spins pre-converted to `±1.0` floats — the
    /// convert-free dot product the sweep hot path uses.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.len()`.
    pub fn row_dot_f64(&self, i: usize, spins: &[f64]) -> f64 {
        match self {
            Couplings::Dense(m) => m.row_dot_f64(i, spins),
            Couplings::Sparse(m) => m.row_dot_f64(i, spins),
        }
    }

    /// Full-row axpy: `fields[j] += M_ij * delta` for every column `j`
    /// (dense) or stored neighbour `j` (sparse), in ascending `j` — one
    /// spin flip's whole local-field propagation in a single pass. The
    /// dense loop is a plain zip the compiler auto-vectorizes (an A/B
    /// against a manually 8-blocked version measured no slower: the pass
    /// is memory-bound); the sparse loop walks only the actual neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds, or (sparse) a stored neighbour
    /// index is past the end of `fields`.
    #[inline]
    pub fn row_axpy(&self, i: usize, delta: f64, fields: &mut [f64]) {
        match self {
            Couplings::Dense(m) => {
                for (f, &jij) in fields.iter_mut().zip(m.row(i)) {
                    *f += jij * delta;
                }
            }
            Couplings::Sparse(m) => {
                for (j, jij) in m.row_iter(i) {
                    fields[j] += jij * delta;
                }
            }
        }
    }

    /// `Σ_j |M_ij|` of row `i` — the tightest bound on `|Σ_j M_ij s_j|` over
    /// all ±1 spin vectors, used to build per-spin drive bounds
    /// ([`IsingModel::drive_bounds`](crate::IsingModel::drive_bounds)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_abs_sum(&self, i: usize) -> f64 {
        match self {
            Couplings::Dense(m) => m.row_abs_sum(i),
            Couplings::Sparse(m) => m.row_abs_sum(i),
        }
    }

    /// Fraction of coupled unordered pairs.
    pub fn density(&self) -> f64 {
        match self {
            Couplings::Dense(m) => m.density(),
            Couplings::Sparse(m) => {
                let n = m.len();
                if n < 2 {
                    return 0.0;
                }
                // each unordered pair is stored twice in CSR
                (m.nnz() / 2) as f64 / (n * (n - 1) / 2) as f64
            }
        }
    }

    /// A dense copy of the couplings.
    pub fn to_dense(&self) -> SymmetricMatrix {
        match self {
            Couplings::Dense(m) => m.clone(),
            Couplings::Sparse(m) => m.to_dense(),
        }
    }

    /// Largest absolute coupling value.
    pub fn max_abs(&self) -> f64 {
        match self {
            Couplings::Dense(m) => m.max_abs(),
            Couplings::Sparse(m) => m.max_abs(),
        }
    }
}

impl From<SymmetricMatrix> for Couplings {
    fn from(m: SymmetricMatrix) -> Self {
        Couplings::Dense(m)
    }
}

impl From<CsrMatrix> for Couplings {
    fn from(m: CsrMatrix) -> Self {
        Couplings::Sparse(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> SymmetricMatrix {
        let mut m = SymmetricMatrix::zeros(3);
        m.set(0, 1, 1.0).unwrap();
        m.set(1, 2, -2.0).unwrap();
        m
    }

    #[test]
    fn dense_and_sparse_agree() {
        let d = sample_dense();
        let s = CsrMatrix::from_dense(&d);
        let cd = Couplings::Dense(d.clone());
        let cs = Couplings::Sparse(s);
        let spins = [1i8, 1, -1];
        for i in 0..3 {
            assert_eq!(cd.row_dot_spins(i, &spins), cs.row_dot_spins(i, &spins));
        }
        assert_eq!(cd.density(), cs.density());
        assert_eq!(cd.get(1, 2), cs.get(1, 2));
        assert_eq!(cs.to_dense(), d);
    }

    #[test]
    fn from_dense_auto_picks_representation_by_size_and_density() {
        // small matrices stay dense regardless of density
        assert!(matches!(
            Couplings::from_dense_auto(sample_dense()),
            Couplings::Dense(_)
        ));
        // a large sparse ring converts to CSR and keeps its entries
        let n = Couplings::SPARSE_MIN_LEN;
        let mut ring = SymmetricMatrix::zeros(n);
        for i in 0..n {
            ring.set(i, (i + 1) % n, 1.0 + i as f64).unwrap();
        }
        let auto = Couplings::from_dense_auto(ring.clone());
        assert!(matches!(auto, Couplings::Sparse(_)));
        assert_eq!(auto.to_dense(), ring);
        // a large dense matrix stays dense
        let mut full = SymmetricMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                full.set(i, j, -1.0).unwrap();
            }
        }
        assert!(matches!(
            Couplings::from_dense_auto(full),
            Couplings::Dense(_)
        ));
    }

    #[test]
    fn full_row_axpy_adds_the_row_on_both_representations() {
        let d = sample_dense();
        for c in [
            Couplings::Dense(d.clone()),
            Couplings::Sparse(CsrMatrix::from_dense(&d)),
        ] {
            for i in 0..3 {
                let start = [0.5, -1.25, 3.0];
                let mut full = start.to_vec();
                c.row_axpy(i, -2.0, &mut full);
                for (j, (&f, &s)) in full.iter().zip(&start).enumerate() {
                    assert_eq!(f, s - 2.0 * d.get(i, j), "row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn from_impls() {
        let d = sample_dense();
        let c: Couplings = d.clone().into();
        assert_eq!(c.len(), 3);
        let c2: Couplings = CsrMatrix::from_dense(&d).into();
        assert_eq!(c2.len(), 3);
    }
}
