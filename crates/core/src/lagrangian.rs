use crate::error::CoreError;
use crate::penalty::penalty_qubo;
use crate::problem::ConstrainedProblem;
use saim_ising::{BinaryState, IsingModel};

/// The Lagrangian energy system `L(x) = E(x) + λᵀ g(x)` (paper eq. 5), kept
/// in Ising form with **in-place field updates**.
///
/// `E = f + P‖g‖²` fixes the couplings `J` once; because every `g_m` is
/// linear, a λ change only moves the spin fields `h` and the constant offset:
///
/// ```text
/// λ_m · (aᵀx + b)  =  λ_m (Σ_i a_i (1+s_i)/2 + b)
///                  =  Σ_i (λ_m a_i / 2) s_i + λ_m (b + Σ_i a_i / 2)
/// ```
///
/// so `h_i ← h_i^base − Σ_m λ_m a_{m,i}/2`. This mirrors how a hardware IM
/// would be reprogrammed between SAIM iterations — only `h` (and the
/// reporting offset) are rewritten, an O(M·N) operation.
///
/// ```
/// use saim_core::{BinaryProblem, LagrangianSystem, LinearConstraint};
/// use saim_ising::{BinaryState, QuboBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = QuboBuilder::new(2);
/// f.add_linear(0, -1.0)?;
/// let problem = BinaryProblem::new(
///     f.build(),
///     vec![LinearConstraint::new(vec![1.0, 1.0], -1.0)?],
/// )?;
/// let mut sys = LagrangianSystem::new(&problem, 0.5)?;
/// let x = BinaryState::from_bits(&[1, 1]); // g = 1
/// let before = sys.model().energy(&x.to_spins());
/// sys.set_lambda(&[2.0])?;                  // L gains λ·g = 2
/// let after = sys.model().energy(&x.to_spins());
/// assert!((after - before - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LagrangianSystem {
    model: IsingModel,
    base_fields: Vec<f64>,
    base_offset: f64,
    /// Per-constraint field shift coefficients: `a_{m,i} / 2`.
    field_shifts: Vec<Vec<f64>>,
    /// Per-constraint offset shifts: `b_m + Σ_i a_{m,i} / 2`.
    offset_shifts: Vec<f64>,
    lambda: Vec<f64>,
    penalty: f64,
}

impl LagrangianSystem {
    /// Builds the system at λ = 0 with penalty `P` (paper: `P = α·d·N < P_C`).
    ///
    /// # Errors
    ///
    /// Propagates penalty/model construction failures (negative `P`,
    /// mismatched constraint dimensions, coefficients that overflow).
    pub fn new<P: ConstrainedProblem + ?Sized>(
        problem: &P,
        penalty: f64,
    ) -> Result<Self, CoreError> {
        let model = penalty_qubo(problem, penalty)?.into_ising()?;
        let base_fields = model.fields().to_vec();
        let base_offset = model.offset();
        let mut field_shifts = Vec::with_capacity(problem.constraints().len());
        let mut offset_shifts = Vec::with_capacity(problem.constraints().len());
        for c in problem.constraints() {
            let half: Vec<f64> = c.coeffs().iter().map(|a| a / 2.0).collect();
            let shift = c.offset() + half.iter().sum::<f64>();
            field_shifts.push(half);
            offset_shifts.push(shift);
        }
        let lambda = vec![0.0; field_shifts.len()];
        Ok(LagrangianSystem {
            model,
            base_fields,
            base_offset,
            field_shifts,
            offset_shifts,
            lambda,
            penalty,
        })
    }

    /// The current Ising model of `L` (what the machine anneals).
    pub fn model(&self) -> &IsingModel {
        &self.model
    }

    /// The current Lagrange multipliers.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The fixed penalty `P`.
    pub fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Number of constraints (length of λ).
    pub fn num_constraints(&self) -> usize {
        self.lambda.len()
    }

    /// Replaces λ and rewrites the fields/offset in place.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `lambda` has the wrong
    /// length or contains non-finite values.
    pub fn set_lambda(&mut self, lambda: &[f64]) -> Result<(), CoreError> {
        if lambda.len() != self.lambda.len() {
            return Err(CoreError::InvalidParameter {
                name: "lambda",
                reason: "length must equal the number of constraints",
            });
        }
        if lambda.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "lambda",
                reason: "multipliers must be finite",
            });
        }
        self.lambda.copy_from_slice(lambda);
        let fields = self.model.fields_mut();
        fields.copy_from_slice(&self.base_fields);
        let mut offset = self.base_offset;
        for ((shift, &off_shift), &lm) in self
            .field_shifts
            .iter()
            .zip(&self.offset_shifts)
            .zip(&self.lambda)
        {
            if lm == 0.0 {
                continue;
            }
            for (f, &a_half) in fields.iter_mut().zip(shift) {
                // adding +(λ a_i / 2) s_i to H means h_i -= λ a_i / 2
                *f -= lm * a_half;
            }
            offset += lm * off_shift;
        }
        self.model.set_offset(offset);
        Ok(())
    }

    /// The subgradient step of Algorithm 1: `λ_m ← λ_m + η · g_m(x_k)`.
    ///
    /// `violations` are the signed constraint values `g(x_k)` of the measured
    /// sample. Returns the updated multipliers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a wrong-length or
    /// non-finite violation vector, or non-positive `eta`.
    pub fn ascend(&mut self, violations: &[f64], eta: f64) -> Result<&[f64], CoreError> {
        if violations.len() != self.lambda.len() {
            return Err(CoreError::InvalidParameter {
                name: "violations",
                reason: "length must equal the number of constraints",
            });
        }
        if !eta.is_finite() || eta <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "eta",
                reason: "must be finite and positive",
            });
        }
        if violations.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "violations",
                reason: "must be finite",
            });
        }
        let next: Vec<f64> = self
            .lambda
            .iter()
            .zip(violations)
            .map(|(&l, &g)| l + eta * g)
            .collect();
        self.set_lambda(&next)?;
        Ok(&self.lambda)
    }

    /// Evaluates `L(x)` directly from a binary state (for tests/telemetry).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the model size.
    pub fn lagrangian_energy(&self, x: &BinaryState) -> f64 {
        self.model.energy(&x.to_spins())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProblem, LinearConstraint};
    use saim_ising::QuboBuilder;

    #[test]
    fn an_overflowing_penalty_model_is_an_error_not_a_panic() {
        // P·b² = 1e308·4 and P·a_0(a_0 + 2b) = −3e308 overflow
        let p = BinaryProblem::new(
            QuboBuilder::new(2).build(),
            vec![LinearConstraint::new(vec![1.0, 0.0], -2.0).unwrap()],
        )
        .unwrap();
        assert!(matches!(
            LagrangianSystem::new(&p, 1e308),
            Err(CoreError::Model(_))
        ));
    }

    fn problem() -> BinaryProblem {
        let mut f = QuboBuilder::new(3);
        f.add_pair(0, 1, -1.0).unwrap();
        f.add_linear(2, -2.0).unwrap();
        BinaryProblem::new(
            f.build(),
            vec![
                LinearConstraint::new(vec![1.0, 1.0, 0.0], -1.0).unwrap(),
                LinearConstraint::new(vec![0.0, 1.0, 1.0], -1.0).unwrap(),
            ],
        )
        .unwrap()
    }

    /// Reference: L(x) = f + PΣg² + Σ λ_m g_m computed from scratch.
    fn reference_l(p: &BinaryProblem, x: &BinaryState, pen: f64, lambda: &[f64]) -> f64 {
        let f = crate::problem::ConstrainedProblem::objective(p).energy(x);
        let mut l = f;
        for (c, &lm) in p.constraints().iter().zip(lambda) {
            let g = c.violation(x);
            l += pen * g * g + lm * g;
        }
        l
    }

    #[test]
    fn matches_reference_for_all_states_and_lambdas() {
        let p = problem();
        let mut sys = LagrangianSystem::new(&p, 1.5).unwrap();
        for lambda in [[0.0, 0.0], [1.0, -2.0], [-0.5, 3.0], [10.0, 10.0]] {
            sys.set_lambda(&lambda).unwrap();
            for mask in 0u64..8 {
                let x = BinaryState::from_mask(mask, 3);
                let expected = reference_l(&p, &x, 1.5, &lambda);
                let got = sys.lagrangian_energy(&x);
                assert!(
                    (got - expected).abs() < 1e-9,
                    "λ={lambda:?} mask={mask}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn set_lambda_is_idempotent_from_base() {
        let p = problem();
        let mut sys = LagrangianSystem::new(&p, 2.0).unwrap();
        sys.set_lambda(&[5.0, -1.0]).unwrap();
        sys.set_lambda(&[0.0, 0.0]).unwrap();
        // back at λ=0 the model equals the plain penalty model
        let base = penalty_qubo(&p, 2.0).unwrap().to_ising();
        for mask in 0u64..8 {
            let s = BinaryState::from_mask(mask, 3).to_spins();
            assert!((sys.model().energy(&s) - base.energy(&s)).abs() < 1e-9);
        }
    }

    #[test]
    fn ascend_follows_subgradient() {
        let p = problem();
        let mut sys = LagrangianSystem::new(&p, 1.0).unwrap();
        // sample violating c0 by +1 and satisfying c1
        sys.ascend(&[1.0, 0.0], 0.25).unwrap();
        assert_eq!(sys.lambda(), &[0.25, 0.0]);
        sys.ascend(&[-2.0, 1.0], 0.25).unwrap();
        assert_eq!(sys.lambda(), &[-0.25, 0.25]);
    }

    #[test]
    fn couplings_never_change() {
        let p = problem();
        let mut sys = LagrangianSystem::new(&p, 1.0).unwrap();
        let j_before = sys.model().couplings().clone();
        sys.set_lambda(&[4.0, -4.0]).unwrap();
        sys.ascend(&[1.0, 1.0], 2.0).unwrap();
        assert_eq!(sys.model().couplings(), &j_before);
    }

    #[test]
    fn validates_inputs() {
        let p = problem();
        let mut sys = LagrangianSystem::new(&p, 1.0).unwrap();
        assert!(sys.set_lambda(&[1.0]).is_err());
        assert!(sys.set_lambda(&[f64::NAN, 0.0]).is_err());
        assert!(sys.ascend(&[1.0], 0.1).is_err());
        assert!(sys.ascend(&[1.0, 1.0], 0.0).is_err());
        assert!(sys.ascend(&[1.0, f64::INFINITY], 0.1).is_err());
    }
}
