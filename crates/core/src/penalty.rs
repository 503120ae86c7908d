use crate::error::CoreError;
use crate::problem::ConstrainedProblem;
use crate::saim::{SaimOutcome, SampleFold};
use saim_ising::{Qubo, QuboBuilder};
use saim_machine::{EnsembleAnnealer, IsingSolver, SolveOutcome};
use serde::{Deserialize, Serialize};

/// Builds the penalty-method energy (paper eq. 3):
///
/// ```text
/// E(x) = f(x) + P · Σ_m g_m(x)²
/// ```
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `p` is negative or non-finite,
/// [`CoreError::ConstraintDimension`] if a constraint's length differs
/// from the objective's, and [`CoreError::Model`] if a coefficient of `E`
/// would not be finite.
///
/// ```
/// use saim_core::{penalty_qubo, BinaryProblem, LinearConstraint};
/// use saim_ising::{BinaryState, QuboBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = QuboBuilder::new(2);
/// f.add_linear(0, -1.0)?;
/// let p = BinaryProblem::new(
///     f.build(),
///     vec![LinearConstraint::new(vec![1.0, 1.0], -1.0)?],
/// )?;
/// let e = penalty_qubo(&p, 10.0)?;
/// // infeasible state pays P · g²  = 10 · 1
/// assert_eq!(e.energy(&BinaryState::from_bits(&[1, 1])), -1.0 + 10.0);
/// // feasible state pays nothing
/// assert_eq!(e.energy(&BinaryState::from_bits(&[1, 0])), -1.0);
/// # Ok(())
/// # }
/// ```
pub fn penalty_qubo<P: ConstrainedProblem + ?Sized>(
    problem: &P,
    p: f64,
) -> Result<Qubo, CoreError> {
    if !p.is_finite() || p < 0.0 {
        return Err(CoreError::InvalidParameter {
            name: "penalty",
            reason: "must be finite and non-negative",
        });
    }
    let objective = problem.objective();
    let n = objective.len();
    let mut builder = QuboBuilder::from_qubo(objective)?;
    for constraint in problem.constraints() {
        if constraint.len() != n {
            return Err(CoreError::ConstraintDimension {
                expected: n,
                found: constraint.len(),
            });
        }
        builder.add_squared_linear(constraint.coeffs(), constraint.offset(), p)?;
    }
    Ok(builder.build())
}

/// A penalty value tried during tuning, with the feasibility it achieved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunedPenalty {
    /// The multiple of `d·N` that was tried (the paper reports "tuned P" as `α·dN`).
    pub alpha: f64,
    /// The absolute penalty `P = α·d·N`.
    pub penalty: f64,
    /// Fraction of measured samples that were feasible at this penalty.
    pub feasibility: f64,
    /// Monte Carlo sweeps this attempt consumed.
    pub mcs: u64,
}

/// The classical penalty-method baseline (paper section II-A and Table II).
///
/// Runs an [`IsingSolver`] `runs` times on `E = f + P‖g‖²` at a fixed `P`,
/// or first *tunes* `P` with the paper's protocol: start from a small
/// `P = α₀·d·N` and coarsely increase it until the feasibility ratio
/// reaches a threshold (the paper uses ≥ 20%).
///
/// The baseline is Algorithm 1 with the λ step switched off: `E` is the
/// model [`LagrangianSystem::new`](crate::LagrangianSystem::new) builds at
/// λ = 0, and each run's last sample goes through the same
/// [`SampleFold`] as a SAIM iteration, with λ held at 0. The outcome is a
/// [`SaimOutcome`] whose `final_lambda` is all zeros.
///
/// ```
/// use saim_core::{BinaryProblem, LinearConstraint, PenaltyMethod};
/// use saim_ising::QuboBuilder;
/// use saim_machine::{BetaSchedule, SimulatedAnnealing};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut f = QuboBuilder::new(2);
/// f.add_linear(0, -2.0)?;
/// f.add_linear(1, -1.0)?;
/// let p = BinaryProblem::new(
///     f.build(),
///     vec![LinearConstraint::new(vec![1.0, 1.0], -1.0)?],
/// )?;
/// let solver = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 60, 3);
/// let out = PenaltyMethod::new(5.0, 40)?.run(&p, solver)?;
/// assert_eq!(out.best.expect("feasible").cost, -2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PenaltyMethod {
    penalty: f64,
    runs: usize,
}

impl PenaltyMethod {
    /// A fixed-penalty baseline performing `runs` solver invocations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a negative/non-finite
    /// penalty or zero runs.
    pub fn new(penalty: f64, runs: usize) -> Result<Self, CoreError> {
        if !penalty.is_finite() || penalty < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "penalty",
                reason: "must be finite and non-negative",
            });
        }
        if runs == 0 {
            return Err(CoreError::InvalidParameter {
                name: "runs",
                reason: "must be positive",
            });
        }
        Ok(PenaltyMethod { penalty, runs })
    }

    /// The penalty `P`.
    pub fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Number of solver invocations.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Runs the baseline at the fixed penalty.
    ///
    /// Each solver invocation is read out exactly like a hardware Ising
    /// machine — and exactly like SAIM's inner loop: the run's **last**
    /// sample is the measurement. (Reading the lowest-*energy* sample
    /// instead would systematically return overloaded states whenever
    /// `P < P_C`, since the energy minimum is then infeasible by
    /// construction; the paper's "same setup as SAIM" comparison implies
    /// last-sample readout.)
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures from [`penalty_qubo`].
    pub fn run<P, S>(&self, problem: &P, mut solver: S) -> Result<SaimOutcome, CoreError>
    where
        P: ConstrainedProblem + ?Sized,
        S: IsingSolver,
    {
        let model = penalty_qubo(problem, self.penalty)?.to_ising();
        Ok(self.score(problem, (0..self.runs).map(|_| solver.solve(&model))))
    }

    /// Runs the baseline's `runs` independent annealed runs **in parallel**
    /// on a replica-ensemble engine.
    ///
    /// Each run gets its own derived RNG stream and the measurements are
    /// scored in run order, so the outcome is identical for any thread count
    /// — the serial [`PenaltyMethod::run`] and this path differ only in the
    /// solver streams they draw (a sequential stream vs. per-run derived
    /// streams), never in how the samples are scored.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures from [`penalty_qubo`].
    pub fn run_parallel<P>(
        &self,
        problem: &P,
        ensemble: &mut EnsembleAnnealer,
    ) -> Result<SaimOutcome, CoreError>
    where
        P: ConstrainedProblem + ?Sized,
    {
        let model = penalty_qubo(problem, self.penalty)?.to_ising();
        Ok(self.score(problem, ensemble.solve_runs(&model, self.runs)))
    }

    /// Feeds each run's last sample, in run order, to SAIM's fold with λ
    /// held at 0 and no ascent step.
    fn score<P: ConstrainedProblem + ?Sized>(
        &self,
        problem: &P,
        runs: impl IntoIterator<Item = SolveOutcome>,
    ) -> SaimOutcome {
        let zero = vec![0.0; problem.constraints().len()];
        let mut fold = SampleFold::new(problem, self.runs);
        for run in runs {
            fold.push(&run.last, run.last_energy, run.mcs, &zero);
        }
        fold.finish(zero)
    }

    /// The paper's tuning protocol: sweep `alpha` over `alphas` (multiples of
    /// `d·N`), run the baseline at each, and keep the first penalty whose
    /// feasibility reaches `min_feasibility`; if none does, keep the most
    /// feasible one. Returns that attempt's outcome beside the trace of
    /// every attempt (the Table II "Tuned P" column), whose
    /// [`TunedPenalty::mcs`] sum to the sweep's whole budget.
    ///
    /// Every α attempt anneals its `runs` measurements across threads on
    /// the ensemble `make_ensemble(attempt)` builds, so each penalty gets an
    /// identical budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `alphas` is empty, plus any
    /// model-construction failure.
    pub fn run_tuned_parallel<P, F>(
        problem: &P,
        runs: usize,
        alphas: &[f64],
        min_feasibility: f64,
        mut make_ensemble: F,
    ) -> Result<(SaimOutcome, Vec<TunedPenalty>), CoreError>
    where
        P: ConstrainedProblem + ?Sized,
        F: FnMut(usize) -> EnsembleAnnealer,
    {
        if alphas.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "alphas",
                reason: "tuning needs at least one candidate",
            });
        }
        let mut trace = Vec::with_capacity(alphas.len());
        let mut chosen: Option<SaimOutcome> = None;
        for (attempt, &alpha) in alphas.iter().enumerate() {
            let penalty = problem.penalty_for_alpha(alpha);
            let outcome = PenaltyMethod::new(penalty, runs)?
                .run_parallel(problem, &mut make_ensemble(attempt))?;
            trace.push(TunedPenalty {
                alpha,
                penalty,
                feasibility: outcome.feasibility,
                mcs: outcome.mcs_total,
            });
            let reached = outcome.feasibility >= min_feasibility;
            let better = chosen
                .as_ref()
                .is_none_or(|b| outcome.feasibility > b.feasibility);
            if reached || better {
                chosen = Some(outcome);
            }
            if reached {
                break;
            }
        }
        Ok((chosen.expect("alphas is non-empty"), trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProblem, LinearConstraint};
    use saim_machine::{
        BetaSchedule, EnsembleConfig, ParallelTempering, PtConfig, SimulatedAnnealing,
    };

    /// minimize -(2 x0 + x1 + 3 x2) s.t. x0 + x1 + x2 = 2
    fn small_problem() -> BinaryProblem {
        let mut f = QuboBuilder::new(3);
        f.add_linear(0, -2.0).unwrap();
        f.add_linear(1, -1.0).unwrap();
        f.add_linear(2, -3.0).unwrap();
        BinaryProblem::new(
            f.build(),
            vec![LinearConstraint::new(vec![1.0, 1.0, 1.0], -2.0).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn penalty_energy_layers_objective_and_constraints() {
        let p = small_problem();
        let e = penalty_qubo(&p, 4.0).unwrap();
        // feasible x = (1,0,1): f = -5, g = 0
        assert_eq!(e.energy(&BinaryState::from_bits(&[1, 0, 1])), -5.0);
        // infeasible x = (1,1,1): f = -6, g = 1 → E = -6 + 4
        assert_eq!(e.energy(&BinaryState::from_bits(&[1, 1, 1])), -2.0);
    }

    #[test]
    fn large_penalty_makes_ground_state_feasible() {
        let p = small_problem();
        let e = penalty_qubo(&p, 100.0).unwrap();
        let mut best_mask = 0;
        let mut best_energy = f64::INFINITY;
        for mask in 0u64..8 {
            let x = BinaryState::from_mask(mask, 3);
            if e.energy(&x) < best_energy {
                best_energy = e.energy(&x);
                best_mask = mask;
            }
        }
        let x = BinaryState::from_mask(best_mask, 3);
        assert!(p.evaluate(&x).feasible);
        assert_eq!(x.bits(), &[1, 0, 1]); // optimal: items 0 and 2
    }

    #[test]
    fn small_penalty_ground_state_undershoots_opt() {
        // LB_P = min E < OPT when P < P_C (paper Fig. 2a)
        let p = small_problem();
        let e = penalty_qubo(&p, 0.5).unwrap();
        let min_e = (0u64..8)
            .map(|m| e.energy(&BinaryState::from_mask(m, 3)))
            .fold(f64::INFINITY, f64::min);
        let opt = -5.0;
        assert!(min_e < opt, "min E = {min_e} should undercut OPT = {opt}");
    }

    #[test]
    fn baseline_solves_small_problem() {
        let p = small_problem();
        let solver = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 80, 5);
        let out = PenaltyMethod::new(10.0, 30)
            .unwrap()
            .run(&p, solver)
            .unwrap();
        let best = out.best.expect("feasible sample");
        assert_eq!(best.cost, -5.0);
        assert_eq!(best.state.bits(), &[1, 0, 1]);
        assert!(out.feasibility > 0.0);
        assert_eq!(out.mcs_total, 30 * 80);
    }

    /// Like [`small_problem`] but with quadratic structure so the paper's
    /// `P = α·d·N` rule yields nonzero penalties during tuning.
    fn quadratic_problem() -> BinaryProblem {
        let mut f = QuboBuilder::new(3);
        f.add_linear(0, -2.0).unwrap();
        f.add_linear(1, -1.0).unwrap();
        f.add_linear(2, -3.0).unwrap();
        f.add_pair(0, 2, -1.0).unwrap();
        BinaryProblem::new(
            f.build(),
            vec![LinearConstraint::new(vec![1.0, 1.0, 1.0], -2.0).unwrap()],
        )
        .unwrap()
    }

    /// A fresh ensemble per tuning attempt, built as the bench's tuned
    /// baseline builds them.
    fn tuning_ensemble(beta_max: f64, mcs_per_run: usize, seed: u64) -> EnsembleAnnealer {
        let config = EnsembleConfig {
            schedule: BetaSchedule::linear(beta_max),
            mcs_per_run,
            ..EnsembleConfig::default()
        };
        EnsembleAnnealer::new(config, seed)
    }

    #[test]
    fn tuning_stops_at_feasibility_threshold() {
        let p = quadratic_problem();
        let (out, trace) =
            PenaltyMethod::run_tuned_parallel(&p, 20, &[0.1, 1.0, 10.0, 100.0], 0.2, |attempt| {
                tuning_ensemble(8.0, 60, 100 + attempt as u64)
            })
            .unwrap();
        assert!(!trace.is_empty());
        assert!(out.feasibility >= 0.2 || trace.len() == 4);
        assert!(out.best.is_some());
        assert!(trace.iter().all(|t| t.mcs == 20 * 60));
    }

    #[test]
    fn pt_baseline_runs_and_is_thread_invariant() {
        let p = small_problem();
        let cfg = |threads: usize| PtConfig {
            replicas: 4,
            sweeps: 80,
            threads,
            ..PtConfig::default()
        };
        let method = PenaltyMethod::new(10.0, 5).unwrap();
        let run = |threads: usize| {
            method
                .run(&p, ParallelTempering::new(cfg(threads), 3))
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(run(2), serial);
        assert_eq!(run(0), serial);
        assert!(serial.best.is_some());
        assert_eq!(serial.mcs_total, 5 * 4 * 80);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PenaltyMethod::new(-1.0, 5).is_err());
        assert!(PenaltyMethod::new(f64::NAN, 5).is_err());
        assert!(PenaltyMethod::new(1.0, 0).is_err());
        let p = small_problem();
        assert!(penalty_qubo(&p, -2.0).is_err());
        let empty: &[f64] = &[];
        let r =
            PenaltyMethod::run_tuned_parallel(&p, 1, empty, 0.2, |_| tuning_ensemble(1.0, 1, 0));
        assert!(r.is_err());
    }

    use saim_ising::{BinaryState, QuboBuilder};
}
