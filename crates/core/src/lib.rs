//! # saim-core
//!
//! The **Self-Adaptive Ising Machine** (SAIM) of *"Self-Adaptive Ising
//! Machines for Constrained Optimization"* (C. Delacour, DATE 2025).
//!
//! ## The problem
//!
//! Constrained binary optimization (paper eq. 2):
//!
//! ```text
//! OPT = min f(x)   subject to   g(x) = 0,    x ∈ {0,1}^N
//! ```
//!
//! with quadratic `f` and linear `g`. Classic Ising machines handle the
//! constraints with the *penalty method* (eq. 3), `E = f + P‖g‖²`, which
//! requires a large, instance-dependent critical penalty `P ≥ P_C` to make
//! the Ising ground state feasible — and large penalties make the landscape
//! rugged and hard to anneal.
//!
//! ## The contribution
//!
//! SAIM keeps a *small* fixed `P < P_C` and adds a Lagrange relaxation
//! (eq. 5), `L = E + λᵀ g`, adapting the multipliers after each measured
//! sample by subgradient ascent on the dual (eq. 7, Algorithm 1):
//!
//! ```text
//! λ ← λ + η · g(x_k)
//! ```
//!
//! Since `g` is linear, the λ update only shifts the Ising *fields* `h` and
//! the energy offset — the couplings `J` stay fixed — so the machine is
//! reprogrammed cheaply between runs. Feasible samples are recorded along
//! the way and the best one is returned.
//!
//! ## Map of the crate
//!
//! - [`LinearConstraint`], [`ConstrainedProblem`], [`BinaryProblem`] — the
//!   problem abstraction (implemented for knapsacks in `saim-knapsack`),
//! - [`LagrangianSystem`] — `L = E + λᵀg` with in-place field updates,
//! - [`SaimRunner`] / [`SaimConfig`] — Algorithm 1,
//! - [`SampleFold`] — Algorithm 1's per-sample step: one measured sample
//!   becomes an [`IterationRecord`], a feasibility count and a best; every
//!   method ends in its [`SaimOutcome`],
//! - [`penalty_qubo`] / [`PenaltyMethod`] — the baseline (eq. 3–4), which is
//!   Algorithm 1 with λ held at 0 (the same model and the same fold, no
//!   ascent step), with the paper's coarse P-tuning protocol,
//! - [`presets`] — the paper's Table I parameter sets,
//! - [`dual`] — exact dual-bound utilities for small models (Fig. 2's toy gap).
//!
//! ## Example
//!
//! ```
//! use saim_core::{BinaryProblem, LinearConstraint, SaimConfig, SaimRunner};
//! use saim_ising::QuboBuilder;
//! use saim_machine::{BetaSchedule, SimulatedAnnealing};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // minimize -(x0 + x1 + x2) subject to x0 + x1 + x2 = 1
//! let mut f = QuboBuilder::new(3);
//! for i in 0..3 { f.add_linear(i, -1.0)?; }
//! let problem = BinaryProblem::new(
//!     f.build(),
//!     vec![LinearConstraint::new(vec![1.0, 1.0, 1.0], -1.0)?],
//! )?;
//!
//! let config = SaimConfig { penalty: 0.4, eta: 0.5, iterations: 60, seed: 7 };
//! let solver = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 50, 7);
//! let outcome = SaimRunner::new(config).run(&problem, solver);
//! let best = outcome.best.expect("a feasible sample was found");
//! assert_eq!(best.cost, -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dual;
mod error;
mod lagrangian;
mod penalty;
pub mod presets;
mod problem;
mod saim;
mod trace;

pub use error::CoreError;
pub use lagrangian::LagrangianSystem;
pub use penalty::{penalty_qubo, PenaltyMethod, TunedPenalty};
pub use problem::{BinaryProblem, ConstrainedProblem, Evaluation, LinearConstraint};
pub use saim::{FeasibleSample, SaimConfig, SaimOutcome, SaimRunner, SampleFold};
pub use trace::IterationRecord;
