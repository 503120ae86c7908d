//! # saim-machine
//!
//! A software-emulated probabilistic-bit (p-bit) Ising machine, the solver
//! substrate of the SAIM paper (section III-B).
//!
//! A p-computer is a network of stochastic neurons `m_i = ±1` receiving the
//! input (paper eq. 9)
//!
//! ```text
//! I_i = Σ_j J_ij m_j + h_i
//! ```
//!
//! and updating as (paper eq. 10)
//!
//! ```text
//! m_i = sign( tanh(β I_i) + U(-1, 1) )
//! ```
//!
//! Sequentially applying the update to every p-bit — one *Monte Carlo sweep*
//! (MCS) — performs Gibbs sampling of the Boltzmann distribution
//! `P(m) ∝ exp(-β H(m))` (paper eq. 11).
//!
//! This crate provides:
//!
//! - [`ReplicaBatch`] — the one p-bit engine: R lanes of one model in
//!   lane-major spin and field planes, each swept in turn by the lane
//!   kernel (the private `lane` module), the one copy of every per-lane
//!   step: the coin-flip init with its field and energy computation, the
//!   Gibbs scan with its three-tier decision (per-spin saturation
//!   classification, exact saturation short-circuit, certified tanh
//!   bracket; described on [`ReplicaBatch`]) that replays the exact-`tanh`
//!   rule bit-for-bit at a fraction of its hot-regime cost, the Metropolis
//!   and greedy sweeps, the flip with its field propagation, and the
//!   checkpoint gather/scatter; per-lane trajectories are bit-identical
//!   for any batch width (the CPU shape of the future GPU batch sweep),
//! - [`bracket`] — the certified rational `tanh` bounds behind tier 3 and
//!   their flip-decision helper,
//! - [`NoiseSource`] — a block-buffered tap on a ChaCha8 stream, the one
//!   path every sweep draws its noise from, in the stream's word order,
//! - [`BetaSchedule`] — annealing schedules (the paper uses a linear sweep
//!   from 0 to `β_max` per run),
//! - [`SimulatedAnnealing`] — one annealed run reading the last sample, as
//!   SAIM's inner minimizer: a one-lane group of the ensemble's lane-group
//!   loop on the annealer's own stream,
//! - [`EnsembleAnnealer`] — R independent replicas of a model annealed
//!   across threads in batched lane groups, with deterministic per-replica
//!   RNG streams and an ordered best-of-ensemble reduction (bit-identical
//!   for any thread count and batch width); the run-level engine behind the
//!   bench harness's repetition loops. Its lane-group loop is the crate's
//!   one annealing loop,
//! - [`parallel`] — the deterministic fork–join primitives the ensemble
//!   (and the bench harness's instance grids, via
//!   [`parallel::parallel_map_indexed`]) run on, plus the multi-tenant
//!   queue under the front-end's worker fleet,
//! - [`service`] — the job layer: the serialized [`service::JobSpec`] /
//!   [`service::JobOutcome`] wire schema (a job is bit-identical to its
//!   direct engine call, wherever it runs), the [`service::SolverJob`] a
//!   worker executes under a [`RunController`], and the drain-directory
//!   layout,
//! - [`frontend`] — the fault-tolerant network front-end whose worker
//!   fleet is the crate's one persistent job pool: an NDJSON protocol with
//!   strict typed framing, per-client
//!   weighted-fair scheduling with priorities and earliest-deadline-first
//!   ordering, admission control that sheds overload with typed retry
//!   hints, per-client cancellation and disconnect cleanup, drain/resume in
//!   the checkpoint layer's file layout, per-client accounting
//!   ([`ClientStats`]), and a deterministic fault-injection harness
//!   ([`frontend::faults`]) — the machinery the `saim-server` binary
//!   serves over TCP,
//! - [`cluster`] — sharded multi-backend routing over N such front-ends:
//!   rendezvous-hash placement keyed by instance digest with per-backend
//!   bounded in-flight windows, a probe-driven `Up → Suspect → Down →
//!   HalfOpen` health state machine acting as a circuit breaker, and a
//!   versioned checksummed write-ahead intent journal
//!   ([`cluster::journal`]) giving exactly-once job settlement across
//!   backend kills, restarts, partitions, and duplicate deliveries — the
//!   machinery the `saim-router` binary serves over TCP,
//! - [`checkpoint`] — the fault-tolerance layer under all of the engines: a
//!   [`RunController`] cooperatively cancels, deadlines, or checkpoints any
//!   sweep loop from cheap every-k-sweeps polls, and a versioned,
//!   checksummed [`Checkpoint`] file captures full engine state (spins,
//!   fields, best-so-far, schedule position, exact RNG stream positions)
//!   so an interrupted run — or a whole drained [`frontend::Frontend`] —
//!   resumes bit-identically to one that was never interrupted; corrupt
//!   files land on typed
//!   [`CheckpointError`]s, never a panic,
//! - [`ParallelTempering`] — a replica-exchange solver standing in for the
//!   PT-DA baseline of the paper's evaluation; ladder rounds fan out over
//!   [`parallel`] with per-slot RNG streams and a dedicated swap stream, so
//!   outcomes are bit-identical for any thread count (the type's docs
//!   describe the stream layout and swap schedule),
//! - [`GreedyDescent`] — deterministic single-flip descent on a one-lane
//!   batch, useful as a sanity baseline,
//! - [`IsingSolver`] — the trait unifying all of the above, and
//! - [`SampleCounter`] — MCS bookkeeping used to reproduce Fig. 4b.
//!
//! # Example
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::{BetaSchedule, IsingSolver, SimulatedAnnealing};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // E(x) = -x0 - x1 + 2 x0 x1: minima at exactly one variable set.
//! let mut b = QuboBuilder::new(2);
//! b.add_linear(0, -1.0)?;
//! b.add_linear(1, -1.0)?;
//! b.add_pair(0, 1, 2.0)?;
//! let model = b.build().to_ising();
//!
//! let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 200, 42);
//! let outcome = sa.solve(&model);
//! assert!((outcome.best_energy - (-1.0)).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod bracket;
pub mod checkpoint;
pub mod cluster;
mod descent;
mod ensemble;
pub mod frontend;
mod lane;
pub mod parallel;
mod pbit;
mod pt;
mod rng;
mod sa;
mod schedule;
pub mod service;
mod session;
mod solver;
mod telemetry;

pub use batch::ReplicaBatch;
pub use checkpoint::{
    Checkpoint, CheckpointError, Controlled, EngineState, OutcomeKind, RunController,
};
pub use descent::GreedyDescent;
pub use ensemble::{EnsembleAnnealer, EnsembleConfig, EnsembleOutcome, ReplicaOutcome};
/// Test support: the serial replay reference and exact-`tanh` oracle that
/// the lane kernel is pinned against; no solver uses it.
#[doc(hidden)]
pub use pbit::PbitMachine;
pub use pt::{ParallelTempering, PtConfig};
pub use rng::{derive_seed, new_rng, NoiseSource};
pub use sa::{Dynamics, SimulatedAnnealing};
pub use schedule::BetaSchedule;
pub use solver::{IsingSolver, SolveOutcome};
pub use telemetry::{ClientStats, RunRecord, SampleCounter};
