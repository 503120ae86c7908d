use crate::batch::ReplicaBatch;
use crate::checkpoint::{
    CheckpointError, Controlled, DescentState, MachineState, OutcomeKind, RngState, RunController,
};
use crate::rng::NoiseSource;
use crate::solver::{IsingSolver, SolveOutcome};
use saim_ising::IsingModel;

/// Deterministic single-flip descent from random restarts.
///
/// Each [`IsingSolver::solve`] call starts from a fresh uniform state and
/// repeatedly applies greedy sweeps until no single flip improves — the
/// β → ∞, zero-noise limit of the p-bit machine. It is not competitive with
/// annealing on rugged landscapes, but is a valuable sanity baseline: any
/// annealer that loses to greedy descent is misconfigured.
///
/// Each solve lends the descender's stream to a fresh one-lane
/// [`ReplicaBatch`] (the lane init draws its `n` coin flips from it),
/// sweeps the lane greedily and takes the stream back, so the next restart
/// continues it. Greedy sweeps draw no noise and never read the drive
/// bounds, so the batch never builds them.
///
/// The descent has one sweep loop: `solve` delegates to
/// [`GreedyDescent::solve_controlled`] under [`RunController::unlimited`].
///
/// ```
/// use saim_ising::QuboBuilder;
/// use saim_machine::{GreedyDescent, IsingSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = QuboBuilder::new(3);
/// for i in 0..3 { b.add_linear(i, -1.0)?; }
/// let model = b.build().to_ising();
/// let out = GreedyDescent::new(9).solve(&model);
/// assert!((out.best_energy - (-3.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GreedyDescent {
    max_sweeps: usize,
    /// The restart stream. Only the lane init's coin flips read it, straight
    /// from the generator, so its noise buffer stays empty and the
    /// generator's position is the whole stream state.
    stream: NoiseSource,
    /// Spin flips over every solve so far: the lane's flip counter carries
    /// on from restart to restart.
    flips: u64,
}

impl GreedyDescent {
    /// Creates a descender with the given seed and a default sweep cap.
    pub fn new(seed: u64) -> Self {
        GreedyDescent {
            max_sweeps: 10_000,
            stream: NoiseSource::from_seed(seed),
            flips: 0,
        }
    }

    /// Sets the maximum number of greedy sweeps per solve.
    ///
    /// # Panics
    ///
    /// Panics if `max_sweeps == 0`.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        assert!(max_sweeps > 0, "at least one sweep is required");
        self.max_sweeps = max_sweeps;
        self
    }

    /// Like [`IsingSolver::solve`] (which delegates here), but polling
    /// `ctrl` at every sweep boundary.
    pub fn solve_controlled(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
    ) -> Controlled<DescentState> {
        let batch = ReplicaBatch::lend_lane(model, self.stream.clone(), self.flips);
        self.run_from(model, batch, 0, ctrl)
    }

    /// Continues a checkpointed descent from its [`DescentState`]; the
    /// completed run is bit-identical to one that was never interrupted.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the state does not fit this
    /// solver's sweep cap or the model's size.
    pub fn resume_controlled(
        &mut self,
        model: &IsingModel,
        state: &DescentState,
        ctrl: &RunController,
    ) -> Result<Controlled<DescentState>, CheckpointError> {
        if state.sweeps_done >= self.max_sweeps as u64 {
            return Err(CheckpointError::Malformed(format!(
                "resume at sweep {} is beyond the {}-sweep cap",
                state.sweeps_done, self.max_sweeps
            )));
        }
        let machine = state.machine.rebuild(model.len())?;
        let stream = NoiseSource::new(state.rng.rebuild()?);
        let batch = ReplicaBatch::from_lane_snapshots(model, &[(machine, stream.snapshot())]);
        Ok(self.run_from(model, batch, state.sweeps_done, ctrl))
    }

    /// The descent's one sweep loop, from a completed-sweep count, for fresh
    /// and resumed runs alike; takes the lane's stream and flip count back
    /// at the end. Convergence is checked before the poll, so a descent
    /// that just settled always reports `Completed`.
    fn run_from(
        &mut self,
        model: &IsingModel,
        mut batch: ReplicaBatch,
        start: u64,
        ctrl: &RunController,
    ) -> Controlled<DescentState> {
        let mut sweeps = start;
        let mut status = OutcomeKind::Completed;
        while sweeps < self.max_sweeps as u64 {
            sweeps += 1;
            if batch.greedy_sweep(model) == 0 {
                break;
            }
            if sweeps < self.max_sweeps as u64 {
                if let Some(stop) = ctrl.poll(sweeps) {
                    status = stop;
                    break;
                }
            }
        }
        let (last, energy) = (batch.state(0), batch.energy(0));
        let machine = (status == OutcomeKind::Checkpointed).then(|| batch.lane_snapshot(0).0);
        (self.stream, self.flips) = batch.return_lane();
        Controlled {
            outcome: SolveOutcome {
                best: last.clone(),
                last,
                last_energy: energy,
                best_energy: energy,
                mcs: sweeps,
            },
            status,
            state: machine.map(|machine| DescentState {
                sweeps_done: sweeps,
                machine: MachineState::capture(&machine),
                rng: RngState::capture(self.stream.rng_mut()),
            }),
        }
    }
}

impl IsingSolver for GreedyDescent {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.solve_controlled(model, &RunController::unlimited())
            .outcome
    }

    fn mcs_per_solve(&self, _n: usize) -> u64 {
        // Descent terminates early; report the cap as the worst case.
        self.max_sweeps as u64
    }

    fn name(&self) -> &'static str {
        "greedy descent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_ising::QuboBuilder;

    #[test]
    fn descends_to_local_minimum() {
        let mut b = QuboBuilder::new(5);
        b.add_pair(0, 1, 1.0).unwrap();
        b.add_pair(2, 3, -2.0).unwrap();
        b.add_linear(4, -1.0).unwrap();
        let model = b.build().to_ising();
        let out = GreedyDescent::new(4).solve(&model);
        for i in 0..model.len() {
            assert!(
                model.delta_energy(&out.best, i) >= -1e-12,
                "flip {i} improves"
            );
        }
    }

    #[test]
    fn last_equals_best() {
        let mut b = QuboBuilder::new(3);
        b.add_pair(0, 2, 1.5).unwrap();
        let model = b.build().to_ising();
        let out = GreedyDescent::new(0).solve(&model);
        assert_eq!(out.last, out.best);
        assert_eq!(out.last_energy, out.best_energy);
    }

    /// A frustrated model large enough for descent to take several sweeps.
    fn rugged_model() -> IsingModel {
        let mut b = QuboBuilder::new(24);
        for i in 0..24 {
            b.add_linear(i, if i % 2 == 0 { -1.0 } else { 0.75 })
                .unwrap();
        }
        for i in 1..24 {
            b.add_pair(i - 1, i, if i % 3 == 0 { 1.5 } else { -0.5 })
                .unwrap();
        }
        b.build().to_ising()
    }

    /// `solve` delegates to `solve_controlled`, so this pins what an idle
    /// controller reports around the shared loop: `Completed` and no state
    /// image.
    #[test]
    fn controlled_solve_with_idle_controller_matches_solve() {
        let model = rugged_model();
        let a = GreedyDescent::new(12).solve(&model);
        let mut d = GreedyDescent::new(12);
        let b = d.solve_controlled(&model, &RunController::unlimited());
        assert_eq!(b.status, OutcomeKind::Completed);
        assert!(b.state.is_none());
        assert_eq!(b.outcome, a);
    }

    #[test]
    fn interrupted_resume_is_bit_identical() {
        let model = rugged_model();
        let oracle = GreedyDescent::new(5).solve(&model);
        assert!(oracle.mcs > 2, "model must take a few sweeps to settle");
        let mut first = GreedyDescent::new(5);
        let ctrl = RunController::unlimited()
            .with_stop_after(1)
            .with_poll_interval(1);
        let cut = first.solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Checkpointed);
        let state = cut.state.expect("checkpointed runs carry state");
        assert_eq!(state.sweeps_done, 1);
        let mut second = GreedyDescent::new(5);
        let resumed = second
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("state fits the solver");
        assert_eq!(resumed.status, OutcomeKind::Completed);
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn stop_on_the_final_sweep_is_a_completion() {
        let model = rugged_model();
        let full = GreedyDescent::new(5).solve(&model);
        assert!(full.mcs > 2, "model must take a few sweeps to settle");

        // the cap: sweep k still flips spins, and is the capped run's last
        let k = full.mcs - 1;
        let at_k = RunController::unlimited()
            .with_stop_after(k)
            .with_poll_interval(1);
        let uncapped = GreedyDescent::new(5).solve_controlled(&model, &at_k);
        assert_eq!(uncapped.status, OutcomeKind::Checkpointed);
        let capped = GreedyDescent::new(5)
            .with_max_sweeps(k as usize)
            .solve_controlled(&model, &at_k);
        assert_eq!(capped.status, OutcomeKind::Completed);
        assert!(capped.state.is_none());
        assert_eq!(capped.outcome, uncapped.outcome);

        // convergence: the settling sweep is checked before the poll
        let at_settle = RunController::unlimited()
            .with_stop_after(full.mcs)
            .with_poll_interval(1);
        let settled = GreedyDescent::new(5).solve_controlled(&model, &at_settle);
        assert_eq!(settled.status, OutcomeKind::Completed);
        assert!(settled.state.is_none());
        assert_eq!(settled.outcome, full);
    }

    #[test]
    fn resume_rejects_a_sweep_count_beyond_the_cap() {
        let model = rugged_model();
        let mut d = GreedyDescent::new(5);
        let ctrl = RunController::unlimited()
            .with_stop_after(1)
            .with_poll_interval(1);
        let state = d
            .solve_controlled(&model, &ctrl)
            .state
            .expect("checkpointed");
        let mut capped = GreedyDescent::new(5).with_max_sweeps(1);
        assert!(matches!(
            capped.resume_controlled(&model, &state, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
