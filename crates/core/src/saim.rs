use crate::error::CoreError;
use crate::lagrangian::LagrangianSystem;
use crate::problem::{ConstrainedProblem, Evaluation};
use crate::trace::IterationRecord;
use saim_ising::{BinaryState, SpinState};
use saim_machine::{IsingSolver, SampleCounter};
use serde::{Deserialize, Serialize};

/// Parameters of the SAIM outer loop (paper Algorithm 1 and Table I).
///
/// The inner minimizer (schedule, sweeps per run) lives in the
/// [`IsingSolver`] handed to [`SaimRunner::run`]; this struct only holds what
/// the outer loop owns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaimConfig {
    /// The fixed quadratic penalty `P` (paper: `P = α·d·N`, deliberately
    /// below the critical `P_C`). Use
    /// [`ConstrainedProblem::penalty_for_alpha`] to apply the paper's rule.
    pub penalty: f64,
    /// Subgradient step size `η` in `λ ← λ + η·g(x_k)`.
    pub eta: f64,
    /// Number of outer iterations `K` (annealing runs / λ updates).
    pub iterations: usize,
    /// The experiment's root seed, so that one config (as a preset's
    /// [`config_for`](crate::presets::ExperimentPreset::config_for) builds
    /// it) names a whole run. [`SaimRunner::run`] takes an already-seeded
    /// solver, so this seeds nothing by itself; pass it (or a seed derived
    /// from it) to the solver's constructor to tie the two together.
    pub seed: u64,
}

impl SaimConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `penalty < 0`, `eta <= 0`,
    /// or `iterations == 0`, or any value is non-finite.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.penalty.is_finite() || self.penalty < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "penalty",
                reason: "must be finite and non-negative",
            });
        }
        if !self.eta.is_finite() || self.eta <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "eta",
                reason: "must be finite and positive",
            });
        }
        if self.iterations == 0 {
            return Err(CoreError::InvalidParameter {
                name: "iterations",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// A feasible sample stored during the loop, with its native cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeasibleSample {
    /// The measured binary state (including slack bits).
    pub state: BinaryState,
    /// Native objective value.
    pub cost: f64,
    /// The iteration that produced it.
    pub iteration: usize,
}

/// Everything a run of measured samples produces: a SAIM run, or a
/// penalty-method or parallel-tempering baseline scored with λ held at 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaimOutcome {
    /// The best feasible sample (`x̄ = argmin_k f(x̂_k)`), if any run produced one.
    pub best: Option<FeasibleSample>,
    /// Per-sample telemetry (Fig. 3 / Fig. 5 traces).
    pub records: Vec<IterationRecord>,
    /// The final Lagrange multipliers λ* (all zero for a baseline).
    pub final_lambda: Vec<f64>,
    /// Fraction of samples that were feasible (the parenthesised
    /// percentages in the paper's tables).
    pub feasibility: f64,
    /// Total Monte Carlo sweeps consumed.
    pub mcs_total: u64,
}

impl SaimOutcome {
    /// Native costs of all feasible samples in iteration order.
    pub fn feasible_costs(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.feasible)
            .map(|r| r.cost)
            .collect()
    }
}

/// The per-sample fold of Algorithm 1 ("store feasible x̂_k"): the one
/// place a measured sample becomes an [`IterationRecord`], a feasibility
/// count and a best.
///
/// [`SaimRunner::run`] feeds it each run's last sample and then steps λ;
/// [`PenaltyMethod`](crate::PenaltyMethod) feeds it each run's last sample
/// with λ held at 0 and takes no step, which is the paper's penalty
/// baseline. Any other sampler (the bench's parallel-tempering baseline
/// feeds PT's per-chunk best) is scored the same way.
#[derive(Debug)]
pub struct SampleFold<'a, P: ?Sized> {
    problem: &'a P,
    counter: SampleCounter,
    records: Vec<IterationRecord>,
    best: Option<FeasibleSample>,
}

impl<'a, P: ConstrainedProblem + ?Sized> SampleFold<'a, P> {
    /// An empty fold over `problem` with room for `samples` records.
    pub fn new(problem: &'a P, samples: usize) -> Self {
        SampleFold {
            problem,
            counter: SampleCounter::new(),
            records: Vec::with_capacity(samples),
            best: None,
        }
    }

    /// Scores one measured sample: `state`, with model energy `energy`, read
    /// out of a run that consumed `mcs` sweeps while `lambda` was in force.
    /// Pushes its record and keeps it as the best if it is feasible and
    /// strictly cheaper than every earlier feasible sample. Returns the
    /// sample's violations `g(x)`, the subgradient of the next λ step.
    ///
    /// # Panics
    ///
    /// Panics if the problem's constraints are dimensionally inconsistent
    /// with `state`.
    pub fn push(&mut self, state: &SpinState, energy: f64, mcs: u64, lambda: &[f64]) -> &[f64] {
        self.counter.add(mcs);
        let x = state.to_binary();
        let Evaluation { cost, feasible } = self.problem.evaluate(&x);
        let violations = self
            .problem
            .constraints()
            .iter()
            .map(|c| c.violation(&x))
            .collect();
        let iteration = self.records.len();
        if feasible && self.best.as_ref().is_none_or(|b| cost < b.cost) {
            self.best = Some(FeasibleSample {
                state: x,
                cost,
                iteration,
            });
        }
        self.records.push(IterationRecord {
            iteration,
            cost,
            feasible,
            lagrangian_energy: energy,
            lambda: lambda.to_vec(),
            violations,
            mcs_cumulative: self.counter.total(),
        });
        &self.records[iteration].violations
    }

    /// The outcome of every sample pushed so far, with `final_lambda` the
    /// multipliers in force after the last one.
    pub fn finish(self, final_lambda: Vec<f64>) -> SaimOutcome {
        let feasible = self.records.iter().filter(|r| r.feasible).count();
        SaimOutcome {
            best: self.best,
            feasibility: feasible as f64 / self.records.len().max(1) as f64,
            records: self.records,
            final_lambda,
            mcs_total: self.counter.total(),
        }
    }
}

/// The Self-Adaptive Ising Machine driver (paper Algorithm 1).
///
/// ```text
/// (λ₀, P) ← (0, α·d·N)
/// for K iterations:
///     x_k ← argmin_x L_k(x)          // Ising machine (one annealed run)
///     store feasible x̂_k             // CPU
///     λ_{k+1} ← λ_k + η · g(x_k)     // CPU
/// return argmin_k f(x̂_k)
/// ```
///
/// The runner is generic over the inner [`IsingSolver`]; the paper's setup is
/// [`SimulatedAnnealing`](saim_machine::SimulatedAnnealing) with a linear β
/// schedule, reading the run's **last** sample (`x_k` is `outcome.last`).
/// The "store" line is [`SampleFold`], the same fold that scores the
/// penalty baseline; only the λ step is SAIM's own.
///
/// ```
/// use saim_core::{BinaryProblem, LinearConstraint, SaimConfig, SaimRunner};
/// use saim_ising::QuboBuilder;
/// use saim_machine::{BetaSchedule, SimulatedAnnealing};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // pick exactly two of three items, maximizing value
/// let mut f = QuboBuilder::new(3);
/// f.add_linear(0, -3.0)?;
/// f.add_linear(1, -1.0)?;
/// f.add_linear(2, -2.0)?;
/// let problem = BinaryProblem::new(
///     f.build(),
///     vec![LinearConstraint::new(vec![1.0, 1.0, 1.0], -2.0)?],
/// )?;
/// let config = SaimConfig { penalty: 0.5, eta: 0.4, iterations: 80, seed: 1 };
/// let solver = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 50, 1);
/// let out = SaimRunner::new(config).run(&problem, solver);
/// assert_eq!(out.best.expect("feasible").cost, -5.0); // items 0 and 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaimRunner {
    config: SaimConfig,
}

impl SaimRunner {
    /// Creates a runner from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`SaimConfig::validate`] first to handle the error case.
    pub fn new(config: SaimConfig) -> Self {
        config.validate().expect("invalid SAIM configuration");
        SaimRunner { config }
    }

    /// The configuration.
    pub fn config(&self) -> SaimConfig {
        self.config
    }

    /// Runs Algorithm 1 on `problem` with the given inner solver.
    ///
    /// # Panics
    ///
    /// Panics if the problem's constraints are dimensionally inconsistent
    /// with its objective (a programming error in the problem
    /// implementation, not a data condition).
    pub fn run<P, S>(&self, problem: &P, mut solver: S) -> SaimOutcome
    where
        P: ConstrainedProblem + ?Sized,
        S: IsingSolver,
    {
        let mut system = LagrangianSystem::new(problem, self.config.penalty)
            .expect("problem produced an inconsistent model");
        let mut fold = SampleFold::new(problem, self.config.iterations);
        for _ in 0..self.config.iterations {
            // minimize L_k on the Ising machine; x_k is the run's last sample
            let outcome = solver.solve(system.model());
            let violations = fold.push(
                &outcome.last,
                outcome.last_energy,
                outcome.mcs,
                system.lambda(),
            );
            // subgradient step λ ← λ + η g(x_k)
            system
                .ascend(violations, self.config.eta)
                .expect("violations are finite and well-sized");
        }
        fold.finish(system.lambda().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProblem, LinearConstraint};
    use saim_ising::QuboBuilder;
    use saim_machine::{
        BetaSchedule, GreedyDescent, ParallelTempering, PtConfig, SimulatedAnnealing,
    };

    /// minimize -(4 x0 + 3 x1 + x2 + 2 x3) s.t. x0 + x1 + x2 + x3 = 2.
    /// OPT = -7 at x = (1,1,0,0).
    fn cardinality_problem() -> BinaryProblem {
        let mut f = QuboBuilder::new(4);
        for (i, v) in [4.0, 3.0, 1.0, 2.0].into_iter().enumerate() {
            f.add_linear(i, -v).unwrap();
        }
        BinaryProblem::new(
            f.build(),
            vec![LinearConstraint::new(vec![1.0; 4], -2.0).unwrap()],
        )
        .unwrap()
    }

    fn default_solver(seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing::new(BetaSchedule::linear(8.0), 60, seed)
    }

    #[test]
    fn solves_cardinality_problem_with_small_penalty() {
        // P = 0.5 is far below critical (values up to 4), yet SAIM closes the gap.
        let config = SaimConfig {
            penalty: 0.5,
            eta: 0.5,
            iterations: 120,
            seed: 3,
        };
        let out = SaimRunner::new(config).run(&cardinality_problem(), default_solver(3));
        let best = out.best.expect("found a feasible sample");
        assert_eq!(best.cost, -7.0);
        assert_eq!(best.state.bits(), &[1, 1, 0, 0]);
    }

    #[test]
    fn records_are_complete_and_ordered() {
        let config = SaimConfig {
            penalty: 1.0,
            eta: 0.2,
            iterations: 25,
            seed: 9,
        };
        let out = SaimRunner::new(config).run(&cardinality_problem(), default_solver(9));
        assert_eq!(out.records.len(), 25);
        for (k, r) in out.records.iter().enumerate() {
            assert_eq!(r.iteration, k);
            assert_eq!(r.lambda.len(), 1);
            assert_eq!(r.violations.len(), 1);
        }
        assert_eq!(out.mcs_total, 25 * 60);
        let increasing = out
            .records
            .windows(2)
            .all(|w| w[0].mcs_cumulative < w[1].mcs_cumulative);
        assert!(increasing);
    }

    #[test]
    fn lambda_rises_while_samples_overfill() {
        // With a tiny penalty and λ₀ = 0 the machine prefers all items (g > 0),
        // so early updates must push λ upward.
        let config = SaimConfig {
            penalty: 0.05,
            eta: 0.5,
            iterations: 40,
            seed: 11,
        };
        let out = SaimRunner::new(config).run(&cardinality_problem(), default_solver(11));
        let first_violation = out.records[0].violations[0];
        assert!(
            first_violation > 0.0,
            "expected initial overfill, got {first_violation}"
        );
        assert!(out.records[1].lambda[0] > out.records[0].lambda[0]);
    }

    #[test]
    fn feasibility_fraction_matches_records() {
        let config = SaimConfig {
            penalty: 0.5,
            eta: 0.5,
            iterations: 50,
            seed: 5,
        };
        let out = SaimRunner::new(config).run(&cardinality_problem(), default_solver(5));
        let count = out.records.iter().filter(|r| r.feasible).count();
        assert!((out.feasibility - count as f64 / 50.0).abs() < 1e-12);
        assert_eq!(out.feasible_costs().len(), count);
    }

    #[test]
    fn pt_inner_minimizer_runs_and_is_thread_invariant() {
        let config = SaimConfig {
            penalty: 0.5,
            eta: 0.5,
            iterations: 10,
            seed: 7,
        };
        let problem = cardinality_problem();
        let run = |threads: usize| {
            let pt = PtConfig {
                replicas: 4,
                sweeps: 60,
                threads,
                ..PtConfig::default()
            };
            SaimRunner::new(config).run(&problem, ParallelTempering::new(pt, config.seed))
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        assert_eq!(run(0), serial);
        assert_eq!(serial.mcs_total, 10 * 4 * 60);
        assert_eq!(serial.records.len(), 10);
    }

    #[test]
    fn config_validation() {
        assert!(SaimConfig {
            penalty: -1.0,
            eta: 1.0,
            iterations: 1,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(SaimConfig {
            penalty: 1.0,
            eta: 0.0,
            iterations: 1,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(SaimConfig {
            penalty: 1.0,
            eta: 1.0,
            iterations: 0,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(SaimConfig {
            penalty: 1.0,
            eta: 1.0,
            iterations: 1,
            seed: 0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn descent_inner_minimizer_replays_under_fixed_seed() {
        let config = SaimConfig {
            penalty: 0.5,
            eta: 0.5,
            iterations: 12,
            seed: 21,
        };
        let problem = cardinality_problem();
        let run =
            || SaimRunner::new(config).run(&problem, GreedyDescent::new(21).with_max_sweeps(50));
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first.records.len(), 12);
    }

    #[test]
    #[should_panic(expected = "invalid SAIM configuration")]
    fn runner_panics_on_invalid_config() {
        let _ = SaimRunner::new(SaimConfig {
            penalty: 1.0,
            eta: -1.0,
            iterations: 1,
            seed: 0,
        });
    }
}
