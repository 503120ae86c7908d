//! The row-major assembly of `E = f + P‖g‖²` in Ising form
//! (`penalty_qubo`, `QuboBuilder::add_squared_linear`, `Qubo::into_ising`)
//! against the per-entry versions it replaced, compared bit for bit.
//!
//! The reference bodies below add one pair at a time through the checked
//! public API, in the order the replaced code did. Every SAIM run, penalty
//! baseline and PT baseline starts from this model, so any bit it moved
//! would move every trajectory downstream.

use proptest::prelude::*;
use saim_core::{penalty_qubo, BinaryProblem, ConstrainedProblem, LinearConstraint};
use saim_ising::{Couplings, IsingModel, Qubo, QuboBuilder, SymmetricMatrix};

/// The per-entry `add_squared_linear`: both nonzero ends of each pair `i < j`,
/// one checked mirrored add per pair.
fn reference_add_squared_linear(builder: &mut QuboBuilder, a: &[f64], b: f64, weight: f64) {
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        builder
            .add_linear(i, weight * ai * (ai + 2.0 * b))
            .expect("finite linear term");
        for (j, &aj) in a.iter().enumerate().skip(i + 1) {
            if aj != 0.0 {
                builder
                    .add_pair(i, j, 2.0 * weight * ai * aj)
                    .expect("finite pair term");
            }
        }
    }
    builder.add_offset(weight * b * b);
}

/// The per-entry `penalty_qubo`: an empty builder, the objective's nonzero
/// upper-triangle pairs, its linear terms and offset, then each constraint.
fn reference_penalty_qubo(problem: &BinaryProblem, p: f64) -> Qubo {
    let objective = ConstrainedProblem::objective(problem);
    let mut builder = QuboBuilder::new(objective.len());
    for (i, j, q) in objective.pairs().iter_pairs() {
        builder.add_pair(i, j, q).expect("finite pair");
    }
    for (i, &c) in objective.linear().iter().enumerate() {
        builder.add_linear(i, c).expect("finite linear");
    }
    builder.add_offset(objective.offset());
    for c in problem.constraints() {
        reference_add_squared_linear(&mut builder, c.coeffs(), c.offset(), p);
    }
    builder.build()
}

/// The per-pair `to_ising`: linear terms first, then each nonzero pair of
/// the upper triangle adds to `J`, both fields and the offset.
fn reference_to_ising(qubo: &Qubo) -> IsingModel {
    let n = qubo.len();
    let mut j = SymmetricMatrix::zeros(n);
    let mut h = vec![0.0; n];
    let mut offset = qubo.offset();
    for (i, &c) in qubo.linear().iter().enumerate() {
        h[i] -= c / 2.0;
        offset += c / 2.0;
    }
    for (a, b, q) in qubo.pairs().iter_pairs() {
        j.add(a, b, -q / 4.0).expect("finite coupling");
        h[a] -= q / 4.0;
        h[b] -= q / 4.0;
        offset += q / 4.0;
    }
    IsingModel::new(Couplings::from_dense_auto(j), h, offset).expect("finite model")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_qubo(got: &Qubo, want: &Qubo) {
    let n = want.len();
    for i in 0..n {
        assert_eq!(
            bits(got.pairs().row(i)),
            bits(want.pairs().row(i)),
            "pair row {i}"
        );
    }
    assert_eq!(bits(got.linear()), bits(want.linear()), "linear");
    assert_eq!(
        got.offset().to_bits(),
        want.offset().to_bits(),
        "qubo offset"
    );
}

fn assert_same_ising(got: &IsingModel, want: &IsingModel) {
    assert_eq!(got.couplings(), want.couplings(), "coupling store");
    let n = want.len();
    for i in 0..n {
        let row = |m: &IsingModel| (0..n).map(|j| m.couplings().get(i, j)).collect::<Vec<_>>();
        assert_eq!(bits(&row(got)), bits(&row(want)), "J row {i}");
    }
    assert_eq!(bits(got.fields()), bits(want.fields()), "h");
    assert_eq!(
        got.offset().to_bits(),
        want.offset().to_bits(),
        "ising offset"
    );
}

/// SplitMix64: the problem generator's own stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A coefficient that is nonzero with probability `density`: an integer,
    /// a fraction or a subnormal, of either sign.
    fn coefficient(&mut self, density: f64) -> f64 {
        if self.unit() >= density {
            return 0.0;
        }
        let magnitude = match self.next() % 8 {
            0 => 5e-324,
            1 => 3.0e-310,
            2..=4 => (1 + self.next() % 100) as f64,
            _ => self.unit() * 7.0 + 1e-3,
        };
        if self.next().is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// An `n × n` matrix of `−0.0` entries, the diagonal too, read off the
/// wire: JSON is the one path that delivers such a matrix.
fn negative_zeros(n: usize) -> SymmetricMatrix {
    let data = vec!["-0.0"; n * n].join(",");
    let m: SymmetricMatrix =
        serde_json::from_str(&format!(r#"{{"n":{n},"data":[{data}]}}"#)).expect("valid matrix");
    assert!((0..n).all(|i| m.row(i).iter().all(|v| v.is_sign_negative())));
    m
}

/// A problem over `n` variables with `m` constraints, each entry nonzero with
/// probability `density`. Some objective zeros are `−0.0`, stored both as
/// mirrored pairs and on the diagonal.
fn problem(seed: u64, n: usize, m: usize, density: f64) -> BinaryProblem {
    let mut s = Stream(seed);
    let mut pairs = if s.next().is_multiple_of(4) {
        negative_zeros(n) // every zero, the diagonal too, is −0.0
    } else {
        SymmetricMatrix::zeros(n)
    };
    for i in 0..n {
        for j in i + 1..n {
            let q = s.coefficient(density);
            if q != 0.0 || s.next().is_multiple_of(3) {
                let q = if q == 0.0 { -0.0 } else { q };
                pairs.set(i, j, q).expect("finite pair");
            }
        }
    }
    let linear = (0..n)
        .map(|_| {
            let c = s.coefficient(density);
            if c == 0.0 && s.next().is_multiple_of(2) {
                -0.0
            } else {
                c
            }
        })
        .collect();
    let offset = if s.next().is_multiple_of(2) {
        -0.0
    } else {
        s.unit() * 10.0 - 5.0
    };
    let objective = Qubo::new(pairs, linear, offset).expect("finite objective");
    let constraints = (0..m)
        .map(|_| {
            let coeffs = (0..n).map(|_| s.coefficient(density)).collect();
            let rhs = -((s.next() % 40) as f64);
            LinearConstraint::new(coeffs, rhs).expect("finite constraint")
        })
        .collect();
    BinaryProblem::new(objective, constraints).expect("dimensions agree")
}

fn check(seed: u64, n: usize, m: usize, density: f64, p: f64) {
    let problem = problem(seed, n, m, density);
    let want = reference_penalty_qubo(&problem, p);
    let got = penalty_qubo(&problem, p).expect("finite penalty model");
    assert_same_qubo(&got, &want);
    let want_model = reference_to_ising(&want);
    assert_same_ising(&got.to_ising(), &want_model);
    assert_same_ising(&got.into_ising().expect("finite"), &want_model);
    // the objective alone, −0.0 entries and all, converts the same way
    let objective = ConstrainedProblem::objective(&problem);
    assert_same_ising(&objective.to_ising(), &reference_to_ising(objective));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense side of `Couplings::from_dense_auto`: n < 64, any density.
    #[test]
    fn small_models_match_the_per_entry_assembly(
        seed in 0u64..u64::MAX,
        n in 1usize..64,
        m in 1usize..8,
        density in 0.0..1.0f64,
        p in 0.0..20.0f64,
        p_zero in proptest::bool::ANY,
    ) {
        check(seed, n, m, density, if p_zero { 0.0 } else { p });
    }

    /// CSR side: n ≥ 64 at low density, where `from_dense_auto` stores the
    /// couplings sparse.
    #[test]
    fn large_sparse_models_match_the_per_entry_assembly(
        seed in 0u64..u64::MAX,
        n in 64usize..100,
        m in 1usize..8,
        density in 0.0..0.08f64,
        p in 0.0..20.0f64,
    ) {
        check(seed, n, m, density, p);
    }
}

#[test]
fn both_coupling_stores_are_exercised() {
    let sparse = problem(3, 80, 2, 0.04);
    let dense = problem(3, 80, 2, 0.6);
    let store = |p: &BinaryProblem| penalty_qubo(p, 1.5).expect("finite").to_ising();
    assert!(matches!(store(&sparse).couplings(), Couplings::Sparse(_)));
    assert!(matches!(store(&dense).couplings(), Couplings::Dense(_)));
}

#[test]
fn a_negative_zero_offset_survives_zero_pairs() {
    // zero pairs add nothing to the offset, not even +0.0
    for flip in [false, true] {
        let pairs = if flip {
            negative_zeros(3)
        } else {
            SymmetricMatrix::zeros(3)
        };
        let q = Qubo::new(pairs, vec![-0.0; 3], -0.0).expect("finite");
        let model = q.to_ising();
        assert_eq!(model.offset().to_bits(), (-0.0f64).to_bits());
        assert_same_ising(&model, &reference_to_ising(&q));
    }
}
