use crate::checkpoint::{
    BestState, CheckpointError, Controlled, MachineState, NoiseState, OutcomeKind, RunController,
    SaState,
};
use crate::pbit::PbitMachine;
use crate::rng::NoiseSource;
use crate::schedule::BetaSchedule;
use crate::solver::{IsingSolver, SolveOutcome};
use saim_ising::{IsingModel, SpinState};

/// Simulated annealing on the p-bit machine (paper section III-B).
///
/// One [`IsingSolver::solve`] call performs a single annealed run: the state
/// is re-randomized, β follows the configured schedule over `mcs_per_run`
/// sweeps, and the outcome reports both the last sample (SAIM reads this) and
/// the best sample seen (penalty-method baselines use this).
///
/// The solver owns its RNG, so consecutive `solve` calls are *different*
/// stochastic runs of one reproducible stream — exactly the "2000 SA runs of
/// 10³ MCS" structure of the paper's Table I.
///
/// `solve` delegates to [`SimulatedAnnealing::solve_controlled`] under
/// [`RunController::unlimited`]: SAIM's inner anneal, served jobs and
/// checkpoint/resume all run the annealer's one sweep loop.
///
/// The machine is reused across runs, so the per-spin drive bounds behind
/// the sweep's three-tier decision kernel (see [`PbitMachine`]) are
/// computed once per model and survive every re-anneal; the per-sweep β of
/// the schedule costs no reclassification (the kernel classifies undecided
/// spins on demand from the cached bounds).
///
/// ```
/// use saim_ising::QuboBuilder;
/// use saim_machine::{BetaSchedule, IsingSolver, SimulatedAnnealing};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = QuboBuilder::new(4);
/// for i in 0..4 { b.add_linear(i, -1.0)?; }
/// let model = b.build().to_ising();
/// let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 100, 7);
/// let out = sa.solve(&model);
/// assert_eq!(out.mcs, 100);
/// assert!((out.best_energy - (-4.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    schedule: BetaSchedule,
    mcs_per_run: usize,
    /// The solver's stream, tapped in blocks for the sweep noise. Each run
    /// resets the buffer, draws the initial state from the raw stream, then
    /// consumes block-buffered noise — exactly the per-lane discipline of
    /// [`crate::ReplicaBatch`], so a fresh single-run annealer is the serial
    /// replay reference for a batch lane on the same seed.
    noise: NoiseSource,
    machine: Option<PbitMachine>,
    /// Preallocated best-state buffer: improvements are in-place sign
    /// exports ([`PbitMachine::copy_state_into`]) instead of fresh states
    /// (an improvement can happen on a large fraction of sweeps early in a
    /// run).
    best_buf: Option<SpinState>,
    dynamics: Dynamics,
}

/// The single-flip Monte Carlo update rule used inside a sweep.
///
/// Both rules sample the same Boltzmann distribution in equilibrium; the
/// p-bit (Gibbs) rule is the paper's hardware model, Metropolis is the
/// digital-annealer convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Dynamics {
    /// p-bit Gibbs update `m_i = sign(tanh(βI_i) + U(-1,1))` (paper eq. 10).
    #[default]
    Gibbs,
    /// Metropolis accept/reject with probability `min(1, exp(-β ΔH))`.
    Metropolis,
}

impl SimulatedAnnealing {
    /// Creates an annealer with the given schedule, sweeps per run, and seed.
    ///
    /// # Panics
    ///
    /// Panics if `mcs_per_run == 0`.
    pub fn new(schedule: BetaSchedule, mcs_per_run: usize, seed: u64) -> Self {
        assert!(mcs_per_run > 0, "a run needs at least one sweep");
        SimulatedAnnealing {
            schedule,
            mcs_per_run,
            noise: NoiseSource::from_seed(seed),
            machine: None,
            best_buf: None,
            dynamics: Dynamics::Gibbs,
        }
    }

    /// Switches the update rule (default: the paper's p-bit Gibbs rule).
    pub fn with_dynamics(mut self, dynamics: Dynamics) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// The annealing schedule.
    pub fn schedule(&self) -> BetaSchedule {
        self.schedule
    }

    /// Sweeps per run.
    pub fn mcs_per_run(&self) -> usize {
        self.mcs_per_run
    }

    /// The update rule in use.
    pub fn dynamics(&self) -> Dynamics {
        self.dynamics
    }

    /// Like [`IsingSolver::solve`] (which delegates here), but polling
    /// `ctrl` at every sweep boundary: the run can be cancelled, deadlined,
    /// or checkpointed mid-anneal.
    pub fn solve_controlled(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
    ) -> Controlled<SaState> {
        // run boundary: discard buffered noise so the initial-state coin
        // flips read the raw stream, then sweeps consume fresh blocks
        self.noise.reset();
        let machine =
            PbitMachine::obtain_randomized(&mut self.machine, model, self.noise.rng_mut());
        let init_energy = machine.energy();
        match &mut self.best_buf {
            Some(b) if b.len() == model.len() => machine.copy_state_into(b),
            _ => self.best_buf = Some(machine.state()),
        }
        self.run_from(model, 0, init_energy, ctrl)
    }

    /// Continues a checkpointed run from its [`SaState`]. The machine books,
    /// noise stream (buffer included), and best-so-far are installed
    /// verbatim, so the completed run is bit-identical to one that was never
    /// interrupted.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the state does not fit this
    /// solver's schedule or the model's size.
    pub fn resume_controlled(
        &mut self,
        model: &IsingModel,
        state: &SaState,
        ctrl: &RunController,
    ) -> Result<Controlled<SaState>, CheckpointError> {
        let next_step = usize::try_from(state.next_step)
            .map_err(|_| CheckpointError::Malformed("resume step overflows usize".into()))?;
        if next_step > self.mcs_per_run {
            return Err(CheckpointError::Malformed(format!(
                "resume step {next_step} is beyond the {}-sweep schedule",
                self.mcs_per_run
            )));
        }
        let snap = state.machine.rebuild(model.len())?;
        let (best_energy, best) = state.best.rebuild(model.len())?;
        self.noise = NoiseSource::from_snapshot(&state.noise.rebuild()?);
        self.machine = Some(PbitMachine::from_snapshot(model, &snap));
        self.best_buf = Some(best);
        Ok(self.run_from(model, next_step, best_energy, ctrl))
    }

    /// The annealer's one sweep loop, from `start_step`, for fresh and
    /// resumed runs alike. Polls after each sweep's best-update; the final
    /// sweep never checkpoints (a run that finished is `Completed`).
    fn run_from(
        &mut self,
        model: &IsingModel,
        start_step: usize,
        mut best_energy: f64,
        ctrl: &RunController,
    ) -> Controlled<SaState> {
        let machine = self.machine.as_mut().expect("machine installed by caller");
        let best = self.best_buf.as_mut().expect("best installed by caller");
        let mut status = OutcomeKind::Completed;
        let mut next_step = self.mcs_per_run;
        for step in start_step..self.mcs_per_run {
            let beta = self.schedule.beta_at(step, self.mcs_per_run);
            match self.dynamics {
                Dynamics::Gibbs => machine.sweep_buffered(model, beta, &mut self.noise),
                Dynamics::Metropolis => {
                    machine.metropolis_sweep_buffered(model, beta, &mut self.noise)
                }
            };
            if machine.energy() < best_energy {
                best_energy = machine.energy();
                machine.copy_state_into(best);
            }
            if step + 1 < self.mcs_per_run {
                if let Some(stop) = ctrl.poll((step + 1) as u64) {
                    status = stop;
                    next_step = step + 1;
                    break;
                }
            }
        }
        let state = (status == OutcomeKind::Checkpointed).then(|| SaState {
            next_step: next_step as u64,
            machine: MachineState::capture(&machine.snapshot()),
            noise: NoiseState::capture(&self.noise.snapshot()),
            best: BestState::capture(best_energy, best),
        });
        Controlled {
            outcome: SolveOutcome {
                last: machine.state(),
                last_energy: machine.energy(),
                best: best.clone(),
                best_energy,
                mcs: next_step as u64,
            },
            status,
            state,
        }
    }
}

impl IsingSolver for SimulatedAnnealing {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.solve_controlled(model, &RunController::unlimited())
            .outcome
    }

    fn mcs_per_solve(&self, _n: usize) -> u64 {
        self.mcs_per_run as u64
    }

    fn name(&self) -> &'static str {
        "simulated annealing (p-bit)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_ising::{BinaryState, QuboBuilder};

    /// A 6-variable model with a unique planted ground state.
    fn planted_model() -> (IsingModel, BinaryState, f64) {
        // E(x) = Σ (x_i - t_i)^2 expanded as QUBO: minimized at x = t.
        let target = BinaryState::from_bits(&[1, 0, 1, 1, 0, 1]);
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            // (x - t)^2 = x - 2tx + t^2 = (1-2t) x + t
            let t = f64::from(target.bit(i));
            b.add_linear(i, 1.0 - 2.0 * t).unwrap();
            b.add_offset(t);
        }
        let q = b.build();
        let opt = q.energy(&target);
        (q.to_ising(), target, opt)
    }

    #[test]
    fn finds_planted_ground_state() {
        let (model, target, opt) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(10.0), 300, 1);
        let out = sa.solve(&model);
        assert!((out.best_energy - opt).abs() < 1e-9);
        assert_eq!(out.best.to_binary(), target);
    }

    #[test]
    fn best_energy_never_exceeds_last_energy() {
        let (model, _, _) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(2.0), 50, 3);
        for _ in 0..20 {
            let out = sa.solve(&model);
            assert!(out.best_energy <= out.last_energy + 1e-12);
            assert!((model.energy(&out.best) - out.best_energy).abs() < 1e-9);
            assert!((model.energy(&out.last) - out.last_energy).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_solves_are_distinct_runs() {
        let (model, _, _) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(0.1), 5, 5);
        let a = sa.solve(&model);
        let b = sa.solve(&model);
        // at high temperature two short runs almost surely end differently
        assert_ne!(a.last, b.last);
    }

    #[test]
    fn same_seed_reproduces() {
        let (model, _, _) = planted_model();
        let mut sa1 = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 50, 77);
        let mut sa2 = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 50, 77);
        for _ in 0..5 {
            assert_eq!(sa1.solve(&model), sa2.solve(&model));
        }
    }

    #[test]
    fn metropolis_dynamics_also_finds_planted_state() {
        let (model, target, opt) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(10.0), 300, 1)
            .with_dynamics(Dynamics::Metropolis);
        assert_eq!(sa.dynamics(), Dynamics::Metropolis);
        let out = sa.solve(&model);
        assert!((out.best_energy - opt).abs() < 1e-9);
        assert_eq!(out.best.to_binary(), target);
    }

    #[test]
    fn dynamics_default_is_gibbs() {
        let sa = SimulatedAnnealing::new(BetaSchedule::linear(1.0), 1, 0);
        assert_eq!(sa.dynamics(), Dynamics::Gibbs);
    }

    #[test]
    fn mcs_accounting() {
        let (model, _, _) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 123, 0);
        assert_eq!(sa.mcs_per_solve(6), 123);
        assert_eq!(sa.solve(&model).mcs, 123);
    }

    /// `solve` delegates to `solve_controlled`, so this pins what an idle
    /// controller reports around the shared loop: `Completed`, no state
    /// image, and the same outcome run after run.
    #[test]
    fn controlled_solve_with_idle_controller_matches_solve() {
        let (model, _, _) = planted_model();
        let mut plain = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 60, 9);
        let mut controlled = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 60, 9);
        let ctrl = RunController::unlimited();
        for _ in 0..3 {
            let a = plain.solve(&model);
            let b = controlled.solve_controlled(&model, &ctrl);
            assert_eq!(b.status, OutcomeKind::Completed);
            assert!(b.state.is_none());
            assert_eq!(b.outcome, a);
        }
    }

    #[test]
    fn interrupted_resume_is_bit_identical() {
        let (model, _, _) = planted_model();
        let oracle = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 80, 3).solve(&model);
        for stop in [1u64, 7, 39, 79] {
            let mut first = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 80, 3);
            let ctrl = RunController::unlimited()
                .with_stop_after(stop)
                .with_poll_interval(1);
            let cut = first.solve_controlled(&model, &ctrl);
            assert_eq!(cut.status, OutcomeKind::Checkpointed, "stop {stop}");
            let state = cut.state.expect("checkpointed runs carry state");
            assert_eq!(state.next_step, stop);
            assert_eq!(cut.outcome.mcs, stop);
            let mut second = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 80, 3);
            let resumed = second
                .resume_controlled(&model, &state, &RunController::unlimited())
                .expect("state fits the solver");
            assert_eq!(resumed.status, OutcomeKind::Completed);
            assert_eq!(resumed.outcome, oracle, "stop {stop}");
        }
    }

    #[test]
    fn stop_on_the_final_sweep_is_a_completion() {
        let (model, _, _) = planted_model();
        let oracle = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 40, 3).solve(&model);
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 40, 3);
        let ctrl = RunController::unlimited()
            .with_stop_after(40)
            .with_poll_interval(1);
        let run = sa.solve_controlled(&model, &ctrl);
        assert_eq!(run.status, OutcomeKind::Completed);
        assert_eq!(run.outcome, oracle);
    }

    #[test]
    fn cancel_and_deadline_return_partial_outcomes() {
        let (model, _, _) = planted_model();
        let cancel = RunController::unlimited().with_poll_interval(1);
        cancel.request_cancel();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 50, 3);
        let run = sa.solve_controlled(&model, &cancel);
        assert_eq!(run.status, OutcomeKind::Cancelled);
        assert!(run.state.is_none());
        assert_eq!(run.outcome.mcs, 1);
        assert!((model.energy(&run.outcome.best) - run.outcome.best_energy).abs() < 1e-12);

        let expired = RunController::unlimited()
            .with_poll_interval(1)
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 50, 3);
        let run = sa.solve_controlled(&model, &expired);
        assert_eq!(run.status, OutcomeKind::DeadlineExceeded);
        assert_eq!(run.outcome.mcs, 1);
    }

    #[test]
    fn resume_rejects_a_step_beyond_the_schedule() {
        let (model, _, _) = planted_model();
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 20, 3);
        let ctrl = RunController::unlimited()
            .with_stop_after(5)
            .with_poll_interval(1);
        let mut state = sa
            .solve_controlled(&model, &ctrl)
            .state
            .expect("checkpointed");
        state.next_step = 21;
        let mut short = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 20, 3);
        assert!(matches!(
            short.resume_controlled(&model, &state, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
