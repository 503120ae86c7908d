//! Replica-ensemble annealing: R independent annealed runs across threads,
//! batched into structure-of-arrays lane groups per worker.
//!
//! The paper's experimental unit is "many independent annealed runs" — e.g.
//! 2000 SA runs of 10³ MCS per instance (Table I). Runs are embarrassingly
//! parallel, but naively sharing one RNG across threads would make results
//! depend on scheduling. The [`EnsembleAnnealer`] instead derives one
//! SplitMix64 stream per replica from a root seed
//! ([`derive_seed`](crate::derive_seed)), groups the replicas assigned to
//! each worker into a [`ReplicaBatch`] — advancing the whole group through
//! each sweep together, lane after lane — and reduces with an **ordered**
//! best-of-ensemble rule (lowest best energy, ties broken by lowest replica
//! index). Lane trajectories are
//! batch-width-invariant and each replays a
//! [`SimulatedAnnealing`](crate::SimulatedAnnealing) of its derived seed, so
//! the outcome is bit-identical for 1, 2 or N threads and for any
//! [`EnsembleConfig::batch_width`] — asserted by `tests/determinism.rs`.
//!
//! The group loop here (`run_group_steps`) is the crate's one annealing
//! loop: a [`SimulatedAnnealing`](crate::SimulatedAnnealing) run is a
//! one-lane group of it on the annealer's own stream, so SAIM's inner
//! anneal, the ensemble, served jobs and checkpoint/resume all sweep
//! through the same code.
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::{BetaSchedule, EnsembleAnnealer, EnsembleConfig, IsingSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = QuboBuilder::new(4);
//! for i in 0..4 { b.add_linear(i, -1.0)?; }
//! let model = b.build().to_ising();
//! let config = EnsembleConfig {
//!     replicas: 4,
//!     mcs_per_run: 100,
//!     schedule: BetaSchedule::linear(8.0),
//!     ..EnsembleConfig::default()
//! };
//! let mut ensemble = EnsembleAnnealer::new(config, 7);
//! let out = ensemble.solve(&model);
//! assert!((out.best_energy - (-4.0)).abs() < 1e-9);
//! assert_eq!(out.mcs, 400); // summed over replicas
//! # Ok(())
//! # }
//! ```

use crate::batch::{LaneBests, ReplicaBatch};
use crate::checkpoint::{
    BestState, CheckpointError, Controlled, DoneLane, EnsembleState, GroupState, LaneState,
    OutcomeKind, RunController,
};
use crate::parallel;
use crate::rng::derive_seed;
use crate::sa::Dynamics;
use crate::schedule::BetaSchedule;
use crate::solver::{IsingSolver, SolveOutcome};
use saim_ising::{IsingModel, SpinState};
use serde::{Deserialize, Serialize};

/// Configuration of a replica ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of independent replicas per [`EnsembleAnnealer::solve`] call.
    pub replicas: usize,
    /// Worker threads; `0` means all available cores, or one inside
    /// another pool's worker. The thread count affects wall-clock only,
    /// never results.
    pub threads: usize,
    /// Replica lanes advanced together per lane-major batch
    /// ([`ReplicaBatch`]). `0` (the default) adapts the width to the
    /// workers `threads` resolves to — as wide as possible without starving
    /// workers of groups, capped at [`EnsembleConfig::DEFAULT_BATCH_WIDTH`],
    /// by the rule parallel tempering groups its ladder with; a nonzero
    /// value is used as-is. Every group, one lane wide or more, anneals on
    /// a [`ReplicaBatch`], whose lanes sweep one after another. The batch
    /// width affects wall-clock only, never results — lane trajectories
    /// are batch-width-invariant by the [`ReplicaBatch`] contract.
    pub batch_width: usize,
    /// The annealing schedule every replica follows.
    pub schedule: BetaSchedule,
    /// Monte Carlo sweeps per replica run.
    pub mcs_per_run: usize,
    /// The single-flip update rule (Gibbs is the paper's p-bit hardware).
    pub dynamics: Dynamics,
}

impl Default for EnsembleConfig {
    /// 8 replicas of the paper's QKP run (1000 MCS, linear β to 10) on all
    /// cores.
    fn default() -> Self {
        EnsembleConfig {
            replicas: 8,
            threads: 0,
            batch_width: 0,
            schedule: BetaSchedule::default(),
            mcs_per_run: 1000,
            dynamics: Dynamics::Gibbs,
        }
    }
}

impl EnsembleConfig {
    /// Cap on the adaptive lane count when [`EnsembleConfig::batch_width`]
    /// is `0`, and on parallel tempering's ladder groups. Lanes in one
    /// group share no coupling pass, so a wider group saves no arithmetic;
    /// the cap keeps a group a bounded unit of work (its planes hold
    /// `2 · 8 · n` floats), so beyond eight replicas per worker the
    /// replicas split into more groups than workers, which the fan-out
    /// hands out dynamically.
    pub const DEFAULT_BATCH_WIDTH: usize = 8;

    fn validate(&self) {
        assert!(self.replicas > 0, "an ensemble needs at least one replica");
        assert!(self.mcs_per_run > 0, "a run needs at least one sweep");
    }

    /// What each replica's run sweeps.
    fn plan(&self) -> AnnealPlan {
        AnnealPlan {
            schedule: self.schedule,
            mcs_per_run: self.mcs_per_run,
            dynamics: self.dynamics,
        }
    }
}

/// What one annealed run sweeps: the β schedule, its length and the update
/// rule. The group loop ([`run_group_steps`]) reads only this, so an
/// ensemble's replicas and a
/// [`SimulatedAnnealing`](crate::SimulatedAnnealing) run go through it alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnnealPlan {
    pub(crate) schedule: BetaSchedule,
    pub(crate) mcs_per_run: usize,
    pub(crate) dynamics: Dynamics,
}

/// One replica's run, tagged with its index and derived seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaOutcome {
    /// Replica index within the ensemble (also the tie-break key).
    pub replica: usize,
    /// The derived seed this replica's stream started from.
    pub seed: u64,
    /// The full annealing outcome of the replica.
    pub outcome: SolveOutcome,
}

/// Everything one ensemble invocation produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleOutcome {
    /// Index of the winning replica (lowest best energy, lowest index on
    /// ties).
    pub best_replica: usize,
    /// Per-replica telemetry, in replica order.
    pub replicas: Vec<ReplicaOutcome>,
    /// Total Monte Carlo sweeps across the ensemble.
    pub mcs_total: u64,
}

impl EnsembleOutcome {
    /// The winning replica's outcome.
    pub fn best(&self) -> &SolveOutcome {
        &self.replicas[self.best_replica].outcome
    }

    /// Collapses the ensemble into a single [`SolveOutcome`]: best/last are
    /// read from the winning replica, sweeps are summed over all replicas.
    pub fn reduce(&self) -> SolveOutcome {
        SolveOutcome {
            mcs: self.mcs_total,
            ..self.best().clone()
        }
    }
}

/// Runs R independent replicas of one model across threads with
/// deterministic per-replica RNG streams and an ordered reduction.
///
/// The annealer is [`IsingSolver`]-compatible, so anything that drives a
/// [`SimulatedAnnealing`](crate::SimulatedAnnealing) — the SAIM outer loop
/// in particular — can swap in
/// an ensemble unchanged; each `solve` call then reads the best of R runs
/// instead of one.
#[derive(Debug, Clone)]
pub struct EnsembleAnnealer {
    config: EnsembleConfig,
    root_seed: u64,
    /// Batches issued so far: consecutive `solve` calls use fresh stream
    /// blocks, exactly like consecutive runs of a serial solver.
    batches: u64,
}

impl EnsembleAnnealer {
    /// Creates an ensemble from a configuration and a root seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EnsembleConfig`]).
    pub fn new(config: EnsembleConfig, root_seed: u64) -> Self {
        config.validate();
        EnsembleAnnealer {
            config,
            root_seed,
            batches: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> EnsembleConfig {
        self.config
    }

    /// The root seed replica streams derive from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The seed of replica `index` within batch `batch` — SplitMix64-derived
    /// twice, so streams never collide across replicas or batches.
    pub fn replica_seed(&self, batch: u64, index: u64) -> u64 {
        derive_seed(derive_seed(self.root_seed, batch), index)
    }

    /// Runs `count` independent annealed runs of `model` in parallel and
    /// returns their outcomes **in run order** (thread-count invariant).
    ///
    /// Runs are grouped into [`ReplicaBatch`]es — one-lane groups included
    /// — and each worker advances its whole group through every sweep
    /// together, lane after lane. With
    /// the default [`EnsembleConfig::batch_width`] of `0`, the group width
    /// adapts downward so the fan-out still covers its workers (more
    /// workers → narrower groups; one group inside another pool's worker,
    /// where the fan-out runs inline), capped at
    /// [`EnsembleConfig::DEFAULT_BATCH_WIDTH`]; an explicit width is used
    /// as-is. Each run's trajectory is in every case bit-identical to a
    /// single-run [`SimulatedAnnealing`](crate::SimulatedAnnealing) of the
    /// same derived seed — the batch-width-invariance contract, asserted by
    /// `tests/determinism.rs` — so the grouping affects wall-clock only.
    ///
    /// This is the run-level engine behind both the ensemble reduction and
    /// the baselines' "K runs of 10³ MCS" repetition loops. It runs the
    /// same lane-group loop as [`EnsembleAnnealer::solve_controlled`],
    /// under an idle controller, and keeps each group's outcomes.
    pub fn solve_runs(&mut self, model: &IsingModel, count: usize) -> Vec<SolveOutcome> {
        let (_, runs) = self.run_groups(model, count, &RunController::unlimited());
        runs.into_iter().flat_map(|r| r.outcomes).collect()
    }

    /// Runs the configured ensemble once with full per-replica telemetry.
    pub fn solve_ensemble(&mut self, model: &IsingModel) -> EnsembleOutcome {
        let batch = self.batches;
        let outcomes = self.solve_runs(model, self.config.replicas);
        let (winner, mcs_total) = ordered_best(&outcomes);
        let replicas = outcomes
            .into_iter()
            .enumerate()
            .map(|(replica, outcome)| ReplicaOutcome {
                replica,
                seed: self.replica_seed(batch, replica as u64),
                outcome,
            })
            .collect();
        EnsembleOutcome {
            best_replica: winner.unwrap_or(0),
            replicas,
            mcs_total,
        }
    }

    /// Starts `count` fresh runs of `model` in lane groups under `ctrl` and
    /// returns the batch index they drew their seeds from, with each
    /// group's run in replica order.
    fn run_groups(
        &mut self,
        model: &IsingModel,
        count: usize,
        ctrl: &RunController,
    ) -> (u64, Vec<GroupRun>) {
        let batch = self.batches;
        self.batches += 1;
        let (threads, plan) = (self.config.threads, self.config.plan());
        let width = match self.config.batch_width {
            0 => parallel::lane_group_width(count, threads),
            fixed => fixed,
        };
        let groups = count.div_ceil(width);
        let runs = parallel::parallel_map_indexed(groups, threads, |g| {
            let lo = g * width;
            let hi = count.min(lo + width);
            let seeds: Vec<u64> = (lo..hi)
                .map(|i| self.replica_seed(batch, i as u64))
                .collect();
            run_group_fresh(model, &plan, &seeds, ctrl)
        });
        (batch, runs)
    }

    /// Like [`IsingSolver::solve`] (which delegates here), but polling
    /// `ctrl` from every lane group.
    ///
    /// Each group polls with its own schedule-step count; lanes are
    /// independent until the final reduction, so a stop may catch groups at
    /// different steps — the captured [`EnsembleState`] records each group
    /// at its own boundary and [`EnsembleAnnealer::resume_controlled`]
    /// finishes each from exactly there.
    pub fn solve_controlled(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
    ) -> Controlled<EnsembleState> {
        let (batch, runs) = self.run_groups(model, self.config.replicas, ctrl);
        assemble(model, batch, runs)
    }

    /// Continues a checkpointed ensemble from its [`EnsembleState`]; the
    /// completed reduction is bit-identical to an uninterrupted run at any
    /// worker count (group membership is fixed by the checkpoint, so the
    /// worker pool only changes which thread finishes which group).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the recorded groups do not add
    /// up to this ensemble's replica count or any group image fails
    /// validation.
    pub fn resume_controlled(
        &mut self,
        model: &IsingModel,
        state: &EnsembleState,
        ctrl: &RunController,
    ) -> Result<Controlled<EnsembleState>, CheckpointError> {
        let total: usize = state.groups.iter().map(group_len).sum();
        if total != self.config.replicas {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint holds {total} replicas for a {}-replica ensemble",
                self.config.replicas
            )));
        }
        let plan = self.config.plan();
        let runs = parallel::parallel_map_indexed(state.groups.len(), self.config.threads, |g| {
            run_group_resumed(model, &plan, &state.groups[g], ctrl)
        });
        let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(assemble(model, state.batch_index, runs))
    }
}

/// One group's controlled run: its stop status, its resumable image (when
/// one exists), and the per-lane outcomes produced so far.
pub(crate) struct GroupRun {
    pub(crate) status: OutcomeKind,
    /// `Some` for a group that stopped with a resumable image (a checkpoint,
    /// or a stop before its first sweep). A completed group carries none:
    /// its outcomes are its image, captured by [`assemble`] only when the
    /// run checkpoints.
    pub(crate) state: Option<GroupState>,
    pub(crate) outcomes: Vec<SolveOutcome>,
}

/// Replicas a recorded group accounts for.
fn group_len(group: &GroupState) -> usize {
    match group {
        GroupState::Pending { seeds } => seeds.len(),
        GroupState::Serial { .. } => 1,
        GroupState::Batch { seeds, .. } => seeds.len(),
        GroupState::Done { lanes } => lanes.len(),
    }
}

/// One group of fresh annealed runs — the batched equivalent of
/// `seeds.len()` fresh [`SimulatedAnnealing`](crate::SimulatedAnnealing)
/// solves, and the one entry for every fresh group, controlled or not.
/// Checks the controller before the first sweep (a stop there records the
/// group as [`GroupState::Pending`], consuming no RNG words) and polls it at
/// every sweep boundary after.
fn run_group_fresh(
    model: &IsingModel,
    plan: &AnnealPlan,
    seeds: &[u64],
    ctrl: &RunController,
) -> GroupRun {
    if let Some(stop) = ctrl.check(0) {
        return GroupRun {
            status: stop,
            state: Some(GroupState::Pending {
                seeds: seeds.to_vec(),
            }),
            outcomes: Vec::new(),
        };
    }
    let mut batch = ReplicaBatch::new(model, seeds);
    let bests = LaneBests::new(&batch);
    run_group_steps(model, plan, seeds, &mut batch, bests, 0, ctrl)
}

/// The crate's one annealing loop: advances a lane group of any width from
/// schedule step `start` under the controller, for fresh and resumed runs
/// alike — every ensemble group, and every
/// [`SimulatedAnnealing`](crate::SimulatedAnnealing) run as a one-lane
/// group on the annealer's lent stream. Polls after each sweep's
/// best-update, never before the first sweep; the final sweep never
/// checkpoints: a group caught there completes instead. `seeds` label the
/// lanes in the checkpoint image.
pub(crate) fn run_group_steps(
    model: &IsingModel,
    plan: &AnnealPlan,
    seeds: &[u64],
    batch: &mut ReplicaBatch,
    mut bests: LaneBests,
    start: usize,
    ctrl: &RunController,
) -> GroupRun {
    let mut status = OutcomeKind::Completed;
    let mut next_step = plan.mcs_per_run;
    for step in start..plan.mcs_per_run {
        let beta = plan.schedule.beta_at(step, plan.mcs_per_run);
        match plan.dynamics {
            Dynamics::Gibbs => batch.sweep_uniform(model, beta),
            Dynamics::Metropolis => batch.metropolis_sweep_uniform(model, beta),
        }
        bests.update(batch);
        if step + 1 < plan.mcs_per_run {
            if let Some(stop) = ctrl.poll((step + 1) as u64) {
                status = stop;
                next_step = step + 1;
                break;
            }
        }
    }
    let state = (status == OutcomeKind::Checkpointed).then(|| GroupState::Batch {
        seeds: seeds.to_vec(),
        next_step: next_step as u64,
        lanes: (0..batch.width())
            .map(|r| LaneState::capture(&batch.lane_snapshot(r)))
            .collect(),
        bests: (0..batch.width())
            .map(|r| BestState::capture(bests.energy(r), bests.state(r)))
            .collect(),
    });
    let (best_energies, best_states) = bests.into_parts();
    let outcomes = best_energies
        .into_iter()
        .zip(best_states)
        .enumerate()
        .map(|(r, (best_energy, best))| SolveOutcome {
            last: batch.state(r),
            last_energy: batch.energy(r),
            best,
            best_energy,
            mcs: next_step as u64,
        })
        .collect();
    GroupRun {
        status,
        state,
        outcomes,
    }
}

/// Rebuilds one recorded group and carries it forward: finished groups
/// re-emit verbatim, pending groups start fresh, interrupted groups —
/// legacy serial groups included — resume on the batch from their recorded
/// boundary.
fn run_group_resumed(
    model: &IsingModel,
    plan: &AnnealPlan,
    group: &GroupState,
    ctrl: &RunController,
) -> Result<GroupRun, CheckpointError> {
    let n = model.len();
    match group {
        GroupState::Done { lanes } => {
            let outcomes = lanes
                .iter()
                .map(|l| l.rebuild(n))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(GroupRun {
                status: OutcomeKind::Completed,
                state: None,
                outcomes,
            })
        }
        GroupState::Pending { seeds } => {
            if seeds.is_empty() {
                return Err(CheckpointError::Malformed(
                    "a pending group holds no seeds".into(),
                ));
            }
            Ok(run_group_fresh(model, plan, seeds, ctrl))
        }
        // a serial-annealer image from an older build is a one-lane batch
        // image, so the group resumes as that batch
        GroupState::Serial { seed, sa } => {
            run_group_resumed(model, plan, &sa.one_lane_group(*seed), ctrl)
        }
        GroupState::Batch { seeds, .. } => {
            let (mut batch, bests, start) = restore_batch(model, plan, group)?;
            Ok(run_group_steps(
                model, plan, seeds, &mut batch, bests, start, ctrl,
            ))
        }
    }
}

/// Rebuilds a recorded [`GroupState::Batch`] image for [`run_group_steps`]:
/// the batch with every lane's books and stream installed verbatim, the
/// lanes' bests, and the step it resumes from. An image that does not fit
/// the model or the schedule is [`CheckpointError::Malformed`].
pub(crate) fn restore_batch(
    model: &IsingModel,
    plan: &AnnealPlan,
    group: &GroupState,
) -> Result<(ReplicaBatch, LaneBests, usize), CheckpointError> {
    let GroupState::Batch {
        seeds,
        next_step,
        lanes,
        bests,
    } = group
    else {
        return Err(CheckpointError::Malformed("not a lane-group image".into()));
    };
    if seeds.is_empty() || seeds.len() != lanes.len() || seeds.len() != bests.len() {
        return Err(CheckpointError::Malformed(format!(
            "batch group holds {} seeds, {} lanes, {} bests",
            seeds.len(),
            lanes.len(),
            bests.len()
        )));
    }
    let start = usize::try_from(*next_step)
        .ok()
        .filter(|&s| s <= plan.mcs_per_run)
        .ok_or_else(|| {
            CheckpointError::Malformed(format!(
                "resume step {next_step} is beyond the {}-sweep schedule",
                plan.mcs_per_run
            ))
        })?;
    let n = model.len();
    let snaps = lanes
        .iter()
        .map(|l| l.rebuild(n))
        .collect::<Result<Vec<_>, _>>()?;
    let batch = ReplicaBatch::from_lane_snapshots(model, &snaps);
    let (energies, states): (Vec<f64>, Vec<SpinState>) = bests
        .iter()
        .map(|b| b.rebuild(n))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    Ok((batch, LaneBests::from_parts(energies, states), start))
}

/// Folds per-group runs into one controlled ensemble result: the ordered
/// strict-`<` reduction over every lane outcome produced so far, a status
/// merged across groups, and — when every group captured an image — the
/// resumable [`EnsembleState`].
///
/// The merge ranks `Cancelled` over `DeadlineExceeded` over `Checkpointed`.
/// Ranking the deadline above the checkpoint — the opposite of the
/// single-run priority — is deliberate: a deadline-stopped group carries no
/// image, so a mixed deadline/checkpoint race must degrade the whole run to
/// `DeadlineExceeded` rather than claim a resumable state that does not
/// exist.
fn assemble(
    model: &IsingModel,
    batch_index: u64,
    runs: Vec<GroupRun>,
) -> Controlled<EnsembleState> {
    fn rank(k: OutcomeKind) -> u8 {
        match k {
            OutcomeKind::Completed => 0,
            OutcomeKind::Checkpointed => 1,
            OutcomeKind::DeadlineExceeded => 2,
            OutcomeKind::Cancelled => 3,
        }
    }
    let status = runs
        .iter()
        .map(|r| r.status)
        .max_by_key(|&k| rank(k))
        .unwrap_or(OutcomeKind::Completed);
    let lanes = || runs.iter().flat_map(|r| &r.outcomes);
    let (winner, mcs_total) = ordered_best(lanes());
    let outcome = match winner.and_then(|w| lanes().nth(w)) {
        Some(w) => SolveOutcome {
            mcs: mcs_total,
            ..w.clone()
        },
        // every group stopped before its first sweep: report the trivial
        // all-up sample so the partial outcome is still well-formed
        None => {
            let state = SpinState::from_values(&vec![1; model.len()]);
            let energy = model.energy(&state);
            SolveOutcome {
                last: state.clone(),
                last_energy: energy,
                best: state,
                best_energy: energy,
                mcs: 0,
            }
        }
    };
    // a checkpoint-merged run holds only checkpointed and completed groups;
    // a completed group's image is its outcomes
    let state = (status == OutcomeKind::Checkpointed).then(|| EnsembleState {
        batch_index,
        groups: runs
            .into_iter()
            .map(|r| {
                r.state.unwrap_or_else(|| GroupState::Done {
                    lanes: r.outcomes.iter().map(DoneLane::capture).collect(),
                })
            })
            .collect(),
    });
    Controlled {
        outcome,
        status,
        state,
    }
}

/// The ordered best-of-ensemble rule shared by
/// [`EnsembleAnnealer::solve_ensemble`] and [`assemble`]: the index of the
/// lowest best energy — strict `<`, so ties keep the lowest replica; `None`
/// when no outcome is below +∞ — and the sweeps summed over all outcomes.
fn ordered_best<'a>(outcomes: impl IntoIterator<Item = &'a SolveOutcome>) -> (Option<usize>, u64) {
    let mut mcs_total = 0u64;
    let mut best_energy = f64::INFINITY;
    let mut winner = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        mcs_total += outcome.mcs;
        if outcome.best_energy < best_energy {
            best_energy = outcome.best_energy;
            winner = Some(i);
        }
    }
    (winner, mcs_total)
}

impl IsingSolver for EnsembleAnnealer {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.solve_controlled(model, &RunController::unlimited())
            .outcome
    }

    fn mcs_per_solve(&self, _n: usize) -> u64 {
        (self.config.replicas * self.config.mcs_per_run) as u64
    }

    fn name(&self) -> &'static str {
        "replica-ensemble annealing (p-bit)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::SimulatedAnnealing;
    use saim_ising::{BinaryState, QuboBuilder};

    fn planted_model() -> (IsingModel, f64) {
        // E(x) = Σ (x_i - t_i)² with t = 101101: unique ground state at t
        let target = BinaryState::from_bits(&[1, 0, 1, 1, 0, 1]);
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            let t = f64::from(target.bit(i));
            b.add_linear(i, 1.0 - 2.0 * t).unwrap();
            b.add_offset(t);
        }
        let q = b.build();
        let opt = q.energy(&target);
        (q.to_ising(), opt)
    }

    fn config(replicas: usize, threads: usize) -> EnsembleConfig {
        EnsembleConfig {
            replicas,
            threads,
            batch_width: 0,
            schedule: BetaSchedule::linear(6.0),
            mcs_per_run: 60,
            dynamics: Dynamics::Gibbs,
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let (model, _) = planted_model();
        let reference = EnsembleAnnealer::new(config(6, 1), 42).solve_ensemble(&model);
        for threads in [2, 3, 8] {
            let got = EnsembleAnnealer::new(config(6, threads), 42).solve_ensemble(&model);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn batch_width_never_changes_results() {
        let (model, _) = planted_model();
        let narrow = EnsembleConfig {
            batch_width: 1,
            ..config(6, 0)
        };
        let reference = EnsembleAnnealer::new(narrow, 42).solve_ensemble(&model);
        for batch_width in [2, 3, 8, 16, 0] {
            let cfg = EnsembleConfig {
                batch_width,
                ..config(6, 0)
            };
            let got = EnsembleAnnealer::new(cfg, 42).solve_ensemble(&model);
            assert_eq!(got, reference, "batch_width = {batch_width}");
        }
    }

    #[test]
    fn matches_serial_reference_runs() {
        let (model, _) = planted_model();
        // one 5-lane group, then five one-lane groups: every lane runs the
        // batch kernel, whatever the core count, so this checks both group
        // shapes against the serial annealer
        for batch_width in [5, 1] {
            let cfg = EnsembleConfig {
                batch_width,
                ..config(5, 0)
            };
            let mut ensemble = EnsembleAnnealer::new(cfg, 9);
            let out = ensemble.solve_ensemble(&model);
            for r in &out.replicas {
                let mut serial = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 60, r.seed);
                assert_eq!(
                    serial.solve(&model),
                    r.outcome,
                    "width {batch_width} replica {}",
                    r.replica
                );
            }
        }
    }

    /// Inside a pool worker an auto-sized fan-out runs inline on one
    /// thread, so the adaptive width must not split the replicas for cores
    /// the fan-out will never use: all eight form one group.
    #[test]
    fn auto_width_inside_a_pool_worker_is_one_group() {
        let (model, _) = planted_model();
        let groups = parallel::parallel_map_indexed(2, 2, |_| {
            let ctrl = RunController::unlimited();
            ctrl.request_checkpoint();
            let cut = EnsembleAnnealer::new(config(8, 0), 5).solve_controlled(&model, &ctrl);
            cut.state
                .expect("checkpointed before the first sweep")
                .groups
        });
        for recorded in groups {
            match recorded.as_slice() {
                [GroupState::Pending { seeds }] => assert_eq!(seeds.len(), 8),
                other => panic!("expected one 8-seed pending group, got {other:?}"),
            }
        }
    }

    #[test]
    fn reduction_picks_lowest_energy_then_lowest_index() {
        let (model, _) = planted_model();
        let mut ensemble = EnsembleAnnealer::new(config(8, 0), 3);
        let out = ensemble.solve_ensemble(&model);
        let min = out
            .replicas
            .iter()
            .map(|r| r.outcome.best_energy)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.best().best_energy, min);
        let first_at_min = out
            .replicas
            .iter()
            .position(|r| r.outcome.best_energy == min)
            .unwrap();
        assert_eq!(out.best_replica, first_at_min);
    }

    #[test]
    fn ensemble_finds_planted_ground_state() {
        let (model, opt) = planted_model();
        let cfg = EnsembleConfig {
            mcs_per_run: 200,
            ..config(8, 0)
        };
        let out = EnsembleAnnealer::new(cfg, 1).solve(&model);
        assert!((out.best_energy - opt).abs() < 1e-9);
        assert_eq!(out.mcs, 8 * 200);
    }

    #[test]
    fn consecutive_solves_are_distinct_batches() {
        let (model, _) = planted_model();
        let cfg = EnsembleConfig {
            schedule: BetaSchedule::linear(0.1),
            mcs_per_run: 5,
            ..config(4, 0)
        };
        let mut ensemble = EnsembleAnnealer::new(cfg, 5);
        let a = ensemble.solve(&model);
        let b = ensemble.solve(&model);
        // at high temperature two short batches almost surely read differently
        assert_ne!(a.last, b.last);
    }

    #[test]
    fn solver_facade_reports_budget() {
        let ensemble = EnsembleAnnealer::new(config(4, 0), 0);
        assert_eq!(ensemble.mcs_per_solve(10), 240);
        assert_eq!(ensemble.name(), "replica-ensemble annealing (p-bit)");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn rejects_zero_replicas() {
        let _ = EnsembleAnnealer::new(config(0, 0), 0);
    }

    /// `solve` delegates to `solve_controlled`, so this pins what an idle
    /// controller reports around the shared group loop: `Completed` and no
    /// state image.
    #[test]
    fn controlled_solve_with_idle_controller_matches_solve() {
        let (model, _) = planted_model();
        let a = EnsembleAnnealer::new(config(6, 0), 42).solve(&model);
        let mut e = EnsembleAnnealer::new(config(6, 0), 42);
        let b = e.solve_controlled(&model, &RunController::unlimited());
        assert_eq!(b.status, OutcomeKind::Completed);
        assert!(b.state.is_none());
        assert_eq!(b.outcome, a);
    }

    #[test]
    fn interrupted_resume_is_bit_identical_across_widths_and_threads() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(6, 1), 42).solve(&model);
        for stop in [1u64, 7, 29] {
            for batch_width in [1usize, 4, 8] {
                let cfg = EnsembleConfig {
                    batch_width,
                    ..config(6, 1)
                };
                let ctrl = RunController::unlimited()
                    .with_stop_after(stop)
                    .with_poll_interval(1);
                let cut = EnsembleAnnealer::new(cfg, 42).solve_controlled(&model, &ctrl);
                assert_eq!(cut.status, OutcomeKind::Checkpointed);
                let state = cut.state.expect("checkpointed runs carry state");
                for threads in [1usize, 2, 8] {
                    let cfg2 = EnsembleConfig { threads, ..cfg };
                    let mut second = EnsembleAnnealer::new(cfg2, 42);
                    let resumed = second
                        .resume_controlled(&model, &state, &RunController::unlimited())
                        .expect("state fits the ensemble");
                    assert_eq!(resumed.status, OutcomeKind::Completed);
                    assert_eq!(
                        resumed.outcome, oracle,
                        "stop={stop} width={batch_width} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn double_interruption_still_replays_exactly() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(6, 0), 17).solve(&model);
        let first_cut = RunController::unlimited()
            .with_stop_after(3)
            .with_poll_interval(1);
        let cut = EnsembleAnnealer::new(config(6, 0), 17).solve_controlled(&model, &first_cut);
        let state = cut.state.expect("checkpointed");
        let second_cut = RunController::unlimited()
            .with_stop_after(20)
            .with_poll_interval(1);
        let cut2 = EnsembleAnnealer::new(config(6, 0), 17)
            .resume_controlled(&model, &state, &second_cut)
            .expect("state fits");
        assert_eq!(cut2.status, OutcomeKind::Checkpointed);
        let state2 = cut2.state.expect("checkpointed");
        let resumed = EnsembleAnnealer::new(config(6, 0), 17)
            .resume_controlled(&model, &state2, &RunController::unlimited())
            .expect("state fits");
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn cancel_before_the_first_sweep_yields_a_well_formed_partial() {
        let (model, _) = planted_model();
        let mut e = EnsembleAnnealer::new(config(4, 1), 7);
        let ctrl = RunController::unlimited();
        ctrl.request_cancel();
        let cut = e.solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Cancelled);
        assert!(cut.state.is_none());
        assert_eq!(cut.outcome.mcs, 0);
        assert_eq!(cut.outcome.best_energy, model.energy(&cut.outcome.best));
    }

    #[test]
    fn checkpoint_before_the_first_sweep_resumes_to_the_full_run() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(4, 0), 11).solve(&model);
        let mut e = EnsembleAnnealer::new(config(4, 0), 11);
        let ctrl = RunController::unlimited();
        ctrl.request_checkpoint();
        let cut = e.solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Checkpointed);
        let state = cut.state.expect("checkpointed");
        assert!(state
            .groups
            .iter()
            .all(|g| matches!(g, GroupState::Pending { .. })));
        let resumed = EnsembleAnnealer::new(config(4, 0), 11)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("pending groups run fresh");
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn done_groups_re_emit_verbatim_on_resume() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(4, 1), 13).solve_ensemble(&model);
        let groups: Vec<GroupState> = oracle
            .replicas
            .iter()
            .map(|r| GroupState::Done {
                lanes: vec![DoneLane::capture(&r.outcome)],
            })
            .collect();
        let state = EnsembleState {
            batch_index: 0,
            groups,
        };
        let resumed = EnsembleAnnealer::new(config(4, 1), 13)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("well-formed state");
        assert_eq!(resumed.status, OutcomeKind::Completed);
        assert_eq!(resumed.outcome, oracle.reduce());
    }

    #[test]
    fn resume_rejects_a_replica_count_mismatch() {
        let (model, _) = planted_model();
        let ctrl = RunController::unlimited()
            .with_stop_after(1)
            .with_poll_interval(1);
        let state = EnsembleAnnealer::new(config(6, 0), 42)
            .solve_controlled(&model, &ctrl)
            .state
            .expect("checkpointed");
        let mut other = EnsembleAnnealer::new(config(5, 0), 42);
        assert!(matches!(
            other.resume_controlled(&model, &state, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
