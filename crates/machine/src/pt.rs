//! Deterministic parallel tempering: [`ParallelTempering`] and its ladder
//! groups.

use crate::batch::{LaneBests, ReplicaBatch};
use crate::checkpoint::{
    BestState, CheckpointError, Controlled, LaneState, OutcomeKind, PtState, RngState,
    RunController,
};
use crate::parallel;
use crate::rng::{derive_seed, new_rng};
use crate::solver::{IsingSolver, SolveOutcome};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use saim_ising::{IsingModel, SpinState};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Configuration of the parallel-tempering solver.
///
/// Defaults follow the PT-DA baseline the paper benchmarks against
/// (\[17\]: 26 replicas on Fujitsu's Digital Annealer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PtConfig {
    /// Number of replicas in the temperature ladder.
    pub replicas: usize,
    /// Smallest inverse temperature (hottest replica).
    pub beta_min: f64,
    /// Largest inverse temperature (coldest replica).
    pub beta_max: f64,
    /// Monte Carlo sweeps per replica per solve call.
    pub sweeps: usize,
    /// Replica-exchange attempts happen between rounds of `swap_interval`
    /// sweeps (never after the final round).
    pub swap_interval: usize,
    /// Worker threads for the per-round fan-out over slot groups (up to
    /// eight adjacent ladder slots share one batched sweep); `0` means all
    /// available cores, or one inside another pool's worker. The thread
    /// count affects wall-clock only, never results.
    pub threads: usize,
}

impl Default for PtConfig {
    fn default() -> Self {
        PtConfig {
            replicas: 26,
            beta_min: 0.1,
            beta_max: 10.0,
            sweeps: 1000,
            swap_interval: 10,
            threads: 0,
        }
    }
}

impl PtConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the β range is not positive-increasing.
    fn validate(&self) {
        assert!(
            self.replicas >= 2,
            "parallel tempering needs at least two replicas"
        );
        assert!(self.sweeps > 0, "sweeps must be positive");
        assert!(self.swap_interval > 0, "swap interval must be positive");
        assert!(
            self.beta_min > 0.0 && self.beta_min < self.beta_max,
            "require 0 < beta_min < beta_max"
        );
    }

    /// The geometric β ladder over the replicas.
    pub fn ladder(&self) -> Vec<f64> {
        let r = self.replicas;
        (0..r)
            .map(|k| {
                let frac = if r == 1 {
                    1.0
                } else {
                    k as f64 / (r - 1) as f64
                };
                self.beta_min * (self.beta_max / self.beta_min).powf(frac)
            })
            .collect()
    }
}

/// One batched group of adjacent ladder slots: the slots' replicas in
/// structure-of-arrays lanes (lane `l` = slot `base + l`), their β
/// sub-ladder, and per-slot best tracking.
///
/// An exchange moves the replica payload (state, fields, energy, flips)
/// between lanes while each slot keeps its stream and its best — exactly
/// the machine-swap semantics of the serial engine.
struct PtGroup {
    batch: ReplicaBatch,
    /// β of each lane (`ladder[base..base + width]`).
    betas: Vec<f64>,
    bests: LaneBests,
}

impl PtGroup {
    /// Builds the group's batch once per solve; the batch computes the
    /// model's per-spin drive bounds at construction, so the three-tier
    /// decision kernel's classification is shared by every round (the
    /// ladder's fixed per-lane β costs no per-round rework).
    fn new(model: &IsingModel, seeds: &[u64], betas: Vec<f64>) -> Self {
        let batch = ReplicaBatch::new(model, seeds);
        let bests = LaneBests::new(&batch);
        PtGroup {
            batch,
            betas,
            bests,
        }
    }

    /// Runs `sweeps` batched Monte Carlo sweeps, each lane at its own β,
    /// tracking every slot's best after every sweep.
    fn run_round(&mut self, model: &IsingModel, sweeps: usize) {
        for _ in 0..sweeps {
            self.batch.sweep(model, &self.betas);
            self.bests.update(&self.batch);
        }
    }
}

/// Deterministic parallel tempering (replica exchange) on the p-bit machine.
///
/// `R` replicas sample the same model at a geometric ladder of inverse
/// temperatures. The run is organised in *rounds* of `swap_interval` sweeps:
/// within a round every ladder slot sweeps independently, between rounds
/// adjacent slots propose a state exchange accepted with the Metropolis
/// probability `min(1, exp(Δβ · ΔE))`. Hot replicas roam; cold replicas
/// refine — the standard remedy for the rugged landscapes that large penalty
/// terms create, and the algorithm run on Fujitsu's Digital Annealer in the
/// paper's comparison \[17\].
///
/// # Batched parallel execution and determinism
///
/// Rounds are embarrassingly parallel across the ladder. Adjacent slots are
/// grouped — up to eight per group, by the lane-group width rule the
/// replica ensemble uses too — into one lane-major [`ReplicaBatch`], whose
/// lanes sweep one after another, and each round's group sweeps fan out
/// over one **persistent per-solve worker pool**
/// ([`parallel::parallel_rounds_while`]): the pool spawns once, rounds open and
/// close on a barrier, and the serial exchange phase runs between rounds
/// with every worker parked — a swap cadence of a few microseconds of work
/// per slot would be swamped by per-round thread spawns otherwise. Results
/// are **bit-identical for any thread count** — and identical to the
/// one-machine-per-slot engine, by the batch's lane-invariance contract —
/// because no random stream is ever shared between concurrently-running
/// slots:
///
/// - **RNG-stream layout.** Each `solve` call is a *batch*; batch `b` of a
///   solver seeded `s` derives `batch_seed = derive_seed(s, b)`. Ladder slot
///   `k` (0 = hottest … R−1 = coldest) then owns the SplitMix64-derived
///   stream `derive_seed(batch_seed, k)`, which draws its initial state and
///   every sweep at that temperature. Stream index `R` —
///   `derive_seed(batch_seed, R)` — is the dedicated **swap stream**,
///   consumed only by the serial exchange phase between rounds.
/// - **Swap schedule.** Round `t` (0-based) attempts exchanges on the fixed
///   pair set `{(k, k+1) : k ≡ t (mod 2)}` in ascending `k` — even pairs on
///   even rounds, odd pairs on odd rounds — so proposals within a round are
///   disjoint and the accept decisions are a pure function of slot energies
///   and the swap stream, never of scheduling. Exchanges happen strictly
///   *between* rounds: none follows the final round, so the readout is the
///   coldest slot's state straight after its last sweeps.
/// - **Exchange semantics.** An accepted swap exchanges the *replica
///   payloads* (spin state, local fields, energy, flip count — batch lanes
///   here, whole machines in a serial replay) between the two slots;
///   streams, temperatures and best-so-far tracking stay attached to their
///   ladder slots.
///
/// A serial replay of the same layout (sweep slots `0..R` in order each
/// round, then apply the swap phase) reproduces the parallel result exactly;
/// `tests/determinism.rs` asserts both properties. Consecutive
/// [`IsingSolver::solve`] calls use fresh stream batches, exactly like
/// consecutive runs of a serial solver.
///
/// ```
/// use saim_ising::QuboBuilder;
/// use saim_machine::{IsingSolver, ParallelTempering, PtConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = QuboBuilder::new(3);
/// for i in 0..3 { b.add_linear(i, -1.0)?; }
/// let model = b.build().to_ising();
/// let cfg = PtConfig { replicas: 4, sweeps: 100, ..PtConfig::default() };
/// let out = ParallelTempering::new(cfg, 11).solve(&model);
/// assert!((out.best_energy - (-3.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParallelTempering {
    config: PtConfig,
    root_seed: u64,
    /// Batches issued so far: each `solve` call derives a fresh seed block.
    batches: u64,
    swap_attempts: u64,
    swap_accepts: u64,
}

impl ParallelTempering {
    /// Creates a solver with the given configuration and root seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`PtConfig`]).
    pub fn new(config: PtConfig, seed: u64) -> Self {
        config.validate();
        ParallelTempering {
            config,
            root_seed: seed,
            batches: 0,
            swap_attempts: 0,
            swap_accepts: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> PtConfig {
        self.config
    }

    /// The root seed ladder streams derive from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The seed of ladder slot `slot` within batch `batch`; `slot ==
    /// replicas` is the swap stream. See the module docs for the layout.
    pub fn stream_seed(&self, batch: u64, slot: u64) -> u64 {
        derive_seed(derive_seed(self.root_seed, batch), slot)
    }

    /// Fraction of accepted replica exchanges so far (NaN before any attempt).
    pub fn swap_acceptance(&self) -> f64 {
        self.swap_accepts as f64 / self.swap_attempts as f64
    }

    /// Like [`IsingSolver::solve`] (which delegates here), but checking
    /// `ctrl` after every swap round. With an idle controller the outcome
    /// is bit-identical to `solve`.
    ///
    /// Rounds — `swap_interval` sweeps per slot — are this engine's natural
    /// stop boundary: the exchange phase runs with every worker parked, so
    /// the ladder is safe to snapshot right after it. The controller's
    /// `poll_interval` does not apply; every round boundary checks. A
    /// captured [`PtState`] records the round's swaps as already applied
    /// (`next_round` points past them) with the swap stream advanced
    /// accordingly.
    pub fn solve_controlled(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
    ) -> Controlled<PtState> {
        let batch = self.batches;
        self.batches += 1;
        self.run(model, ctrl, batch, None)
            .expect("a fresh run validates no checkpoint")
    }

    /// Continues a checkpointed run from its [`PtState`]; the completed run
    /// is bit-identical to one that was never interrupted, at any thread
    /// count — slots are stored flat and regrouped under the resuming
    /// pool's own width (lane trajectories are batch-width-invariant).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the recorded ladder does not
    /// match this solver's configuration or any slot image fails
    /// validation.
    pub fn resume_controlled(
        &mut self,
        model: &IsingModel,
        state: &PtState,
        ctrl: &RunController,
    ) -> Result<Controlled<PtState>, CheckpointError> {
        self.run(model, ctrl, state.batch_index, Some(state))
    }

    /// The controlled core shared by fresh solves and resumes.
    fn run(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
        batch: u64,
        resume: Option<&PtState>,
    ) -> Result<Controlled<PtState>, CheckpointError> {
        let config = self.config;
        let r = config.replicas;
        let n = model.len();
        let ladder = config.ladder();

        // round lengths: swap_interval sweeps each, with a short final round
        // when the budget doesn't divide evenly. This is the absolute
        // schedule — a resume indexes into the same table.
        let mut lens = Vec::with_capacity(config.sweeps / config.swap_interval + 1);
        let mut done = 0usize;
        while done < config.sweeps {
            let len = config.swap_interval.min(config.sweeps - done);
            lens.push(len);
            done += len;
        }
        let rounds = lens.len();

        // Adjacent slots share a batch, one group per fan-out task; the
        // width adapts to the round fan-out's workers
        // (`parallel::lane_group_width`, the ensemble's rule too). Lane
        // trajectories are batch-width-invariant, so this is wall-clock
        // only. Group construction consumes only the member slots' own
        // streams, so building serially changes nothing.
        let width = parallel::lane_group_width(r, config.threads);
        let group_count = r.div_ceil(width);
        // slot k lives in group k / width, lane k % width
        let locate = |k: usize| (k / width, k % width);

        let (groups, mut swap_rng, start_round) = match resume {
            None => {
                let groups: Vec<Mutex<PtGroup>> = (0..group_count)
                    .map(|g| {
                        let lo = g * width;
                        let hi = r.min(lo + width);
                        let seeds: Vec<u64> = (lo..hi)
                            .map(|k| self.stream_seed(batch, k as u64))
                            .collect();
                        Mutex::new(PtGroup::new(model, &seeds, ladder[lo..hi].to_vec()))
                    })
                    .collect();
                (groups, new_rng(self.stream_seed(batch, r as u64)), 0usize)
            }
            Some(state) => {
                if state.lanes.len() != r || state.bests.len() != r {
                    return Err(CheckpointError::Malformed(format!(
                        "checkpoint holds {} lanes / {} bests for a {r}-slot ladder",
                        state.lanes.len(),
                        state.bests.len()
                    )));
                }
                let start = usize::try_from(state.next_round)
                    .ok()
                    .filter(|&s| s < rounds)
                    .ok_or_else(|| {
                        CheckpointError::Malformed(format!(
                            "resume round {} is beyond the {rounds}-round schedule",
                            state.next_round
                        ))
                    })?;
                let groups = (0..group_count)
                    .map(|g| {
                        let lo = g * width;
                        let hi = r.min(lo + width);
                        let snaps = state.lanes[lo..hi]
                            .iter()
                            .map(|l| l.rebuild(n))
                            .collect::<Result<Vec<_>, _>>()?;
                        let (energies, states): (Vec<f64>, Vec<SpinState>) = state.bests[lo..hi]
                            .iter()
                            .map(|b| b.rebuild(n))
                            .collect::<Result<Vec<_>, _>>()?
                            .into_iter()
                            .unzip();
                        Ok(Mutex::new(PtGroup {
                            batch: ReplicaBatch::from_lane_snapshots(model, &snaps),
                            betas: ladder[lo..hi].to_vec(),
                            bests: LaneBests::from_parts(energies, states),
                        }))
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()?;
                self.swap_attempts = state.swap_attempts;
                self.swap_accepts = state.swap_accepts;
                (groups, state.swap_rng.rebuild()?, start)
            }
        };

        let mut attempts = self.swap_attempts;
        let mut accepts = self.swap_accepts;
        let mut sweeps_done: u64 = lens[..start_round].iter().map(|&l| l as u64).sum();
        let mut status = OutcomeKind::Completed;
        let mut captured: Option<PtState> = None;

        if let Some(stop) = ctrl.check(sweeps_done) {
            // stopped before the first (remaining) round: the freshly-built
            // or rebuilt ladder is itself the resumable image
            status = stop;
            if stop == OutcomeKind::Checkpointed {
                captured = Some(capture_state(
                    &groups,
                    batch,
                    start_round,
                    &swap_rng,
                    attempts,
                    accepts,
                ));
            }
        } else {
            parallel::parallel_rounds_while(
                group_count,
                config.threads,
                rounds - start_round,
                // fork: every group batch-sweeps its round, each lane on its
                // private stream at its own β
                |round, g| {
                    let mut group = groups[g].lock().expect("no worker panicked");
                    group.run_round(model, lens[start_round + round]);
                },
                // join: serial exchange phase on the dedicated swap stream,
                // fixed even/odd pair schedule (absolute round parity picks
                // the offset); no exchange follows the final round — the
                // readout comes straight from the last sweeps. The
                // controller check runs AFTER the swaps so a captured state
                // always sits exactly on a round boundary.
                |round| {
                    let abs = start_round + round;
                    sweeps_done += lens[abs] as u64;
                    if abs + 1 == rounds {
                        return true;
                    }
                    let mut k = abs % 2;
                    while k + 1 < r {
                        attempts += 1;
                        let (ga, la) = locate(k);
                        let (gb, lb) = locate(k + 1);
                        let energy_k = groups[ga]
                            .lock()
                            .expect("no worker panicked")
                            .batch
                            .energy(la);
                        let energy_k1 = groups[gb]
                            .lock()
                            .expect("no worker panicked")
                            .batch
                            .energy(lb);
                        let accept_ln = (ladder[k] - ladder[k + 1]) * (energy_k - energy_k1);
                        if accept_ln >= 0.0 || swap_rng.gen::<f64>() < accept_ln.exp() {
                            accepts += 1;
                            if ga == gb {
                                groups[ga]
                                    .lock()
                                    .expect("no worker panicked")
                                    .batch
                                    .swap_lanes(la, lb);
                            } else {
                                let mut a = groups[ga].lock().expect("no worker panicked");
                                let mut b = groups[gb].lock().expect("no worker panicked");
                                ReplicaBatch::swap_lanes_between(
                                    &mut a.batch,
                                    la,
                                    &mut b.batch,
                                    lb,
                                );
                            }
                        }
                        k += 2;
                    }
                    if let Some(stop) = ctrl.check(sweeps_done) {
                        status = stop;
                        if stop == OutcomeKind::Checkpointed {
                            captured = Some(capture_state(
                                &groups,
                                batch,
                                abs + 1,
                                &swap_rng,
                                attempts,
                                accepts,
                            ));
                        }
                        return false;
                    }
                    true
                },
            );
        }
        self.swap_attempts = attempts;
        self.swap_accepts = accepts;

        // ordered reduction: lowest best energy wins, ties break to the
        // lowest (hottest) slot index — deterministic for any thread count
        let mut best_slot = 0usize;
        let mut best_energy = f64::INFINITY;
        for k in 0..r {
            let (g, l) = locate(k);
            let group = groups[g].lock().expect("no worker panicked");
            if group.bests.energy(l) < best_energy {
                best_energy = group.bests.energy(l);
                best_slot = k;
            }
        }
        let (g, l) = locate(best_slot);
        let best = groups[g]
            .lock()
            .expect("no worker panicked")
            .bests
            .state(l)
            .clone();
        // the coldest slot is the machine's readout
        let (g, l) = locate(r - 1);
        let cold = groups[g].lock().expect("no worker panicked");
        Ok(Controlled {
            outcome: SolveOutcome {
                last: cold.batch.state(l),
                last_energy: cold.batch.energy(l),
                best,
                best_energy,
                mcs: sweeps_done * r as u64,
            },
            status,
            state: captured,
        })
    }
}

/// Snapshots the whole ladder — every slot's lane and best, flat and in
/// slot order — plus the swap stream and counters, as of `next_round`.
/// Callers hold no group lock; every worker is parked when this runs.
fn capture_state(
    groups: &[Mutex<PtGroup>],
    batch: u64,
    next_round: usize,
    swap_rng: &ChaCha8Rng,
    attempts: u64,
    accepts: u64,
) -> PtState {
    let mut lanes = Vec::new();
    let mut bests = Vec::new();
    for group in groups {
        let group = group.lock().expect("no worker panicked");
        for l in 0..group.batch.width() {
            lanes.push(LaneState::capture(&group.batch.lane_snapshot(l)));
            bests.push(BestState::capture(
                group.bests.energy(l),
                group.bests.state(l),
            ));
        }
    }
    PtState {
        batch_index: batch,
        next_round: next_round as u64,
        lanes,
        bests,
        swap_rng: RngState::capture(swap_rng),
        swap_attempts: attempts,
        swap_accepts: accepts,
    }
}

impl IsingSolver for ParallelTempering {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.solve_controlled(model, &RunController::unlimited())
            .outcome
    }

    fn mcs_per_solve(&self, _n: usize) -> u64 {
        (self.config.sweeps * self.config.replicas) as u64
    }

    fn name(&self) -> &'static str {
        "parallel tempering (p-bit)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_ising::QuboBuilder;

    fn rugged_model() -> IsingModel {
        // frustrated couplings + fields: several local minima
        let mut b = QuboBuilder::new(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let sign = if (i + j) % 3 == 0 { 1.0 } else { -0.5 };
                b.add_pair(i, j, sign).unwrap();
            }
            b.add_linear(i, if i % 2 == 0 { -0.7 } else { 0.3 })
                .unwrap();
        }
        b.build().to_ising()
    }

    fn brute_min(model: &IsingModel) -> f64 {
        (0u64..(1 << model.len()))
            .map(|m| model.energy(&saim_ising::BinaryState::from_mask(m, model.len()).to_spins()))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn finds_ground_state_of_rugged_model() {
        let model = rugged_model();
        let opt = brute_min(&model);
        let cfg = PtConfig {
            replicas: 8,
            sweeps: 400,
            ..PtConfig::default()
        };
        let out = ParallelTempering::new(cfg, 5).solve(&model);
        assert!(
            (out.best_energy - opt).abs() < 1e-9,
            "best {} vs opt {opt}",
            out.best_energy
        );
    }

    #[test]
    fn ladder_is_geometric_and_monotone() {
        let cfg = PtConfig {
            replicas: 5,
            beta_min: 0.2,
            beta_max: 20.0,
            ..PtConfig::default()
        };
        let ladder = cfg.ladder();
        assert_eq!(ladder.len(), 5);
        assert!((ladder[0] - 0.2).abs() < 1e-12);
        assert!((ladder[4] - 20.0).abs() < 1e-12);
        for w in ladder.windows(2) {
            assert!(w[1] > w[0]);
        }
        // constant ratio
        let r0 = ladder[1] / ladder[0];
        let r1 = ladder[3] / ladder[2];
        assert!((r0 - r1).abs() < 1e-9);
    }

    /// Width-1 lane groups — the grouping every many-worker host produces
    /// when workers outnumber ladder slots — take the batch's serial-shaped
    /// scan sweep: each slot must replay a serial [`PbitMachine`] fed the
    /// same stream bit for bit, held β and annealing alike.
    #[test]
    fn width_one_pt_groups_replay_serial_machines() {
        use crate::pbit::PbitMachine;
        use crate::rng::NoiseSource;

        let model = rugged_model();
        let betas = [0.7, 1.3, 2.9, 40.0];
        let mut groups: Vec<PtGroup> = betas
            .iter()
            .enumerate()
            .map(|(k, &beta)| PtGroup::new(&model, &[derive_seed(5, k as u64)], vec![beta]))
            .collect();
        let mut serial: Vec<(PbitMachine, NoiseSource)> = (0..betas.len() as u64)
            .map(|k| {
                let mut rng = new_rng(derive_seed(5, k));
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for _round in 0..6 {
            for g in &mut groups {
                g.run_round(&model, 10);
            }
            for ((machine, noise), &beta) in serial.iter_mut().zip(&betas) {
                for _ in 0..10 {
                    machine.sweep_buffered(&model, beta, noise);
                }
            }
            for (k, (g, (machine, _))) in groups.iter().zip(&serial).enumerate() {
                assert_eq!(g.batch.state(0), machine.state(), "slot {k}");
                assert_eq!(
                    g.batch.energy(0).to_bits(),
                    machine.energy().to_bits(),
                    "slot {k} energy"
                );
            }
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let model = rugged_model();
        let config = |threads: usize| PtConfig {
            replicas: 6,
            sweeps: 150,
            threads,
            ..PtConfig::default()
        };
        let reference = ParallelTempering::new(config(1), 42).solve(&model);
        for threads in [2, 3, 8, 0] {
            let got = ParallelTempering::new(config(threads), 42).solve(&model);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn consecutive_solves_are_distinct_batches() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 4,
            sweeps: 20,
            beta_max: 1.0,
            ..PtConfig::default()
        };
        let mut pt = ParallelTempering::new(cfg, 8);
        let a = pt.solve(&model);
        let b = pt.solve(&model);
        // at these temperatures two short batches almost surely read differently
        assert_ne!(a.last, b.last);
        // and a fresh solver replays batch 0 exactly
        let again = ParallelTempering::new(cfg, 8).solve(&model);
        assert_eq!(a, again);
    }

    #[test]
    fn stream_seeds_are_distinct_across_slots_and_batches() {
        let cfg = PtConfig {
            replicas: 4,
            ..PtConfig::default()
        };
        let pt = ParallelTempering::new(cfg, 3);
        let mut seen = std::collections::HashSet::new();
        for batch in 0..4 {
            // slots 0..replicas plus the swap stream at index `replicas`
            for slot in 0..=4 {
                assert!(
                    seen.insert(pt.stream_seed(batch, slot)),
                    "stream collision at batch {batch} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn swaps_do_occur() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 6,
            sweeps: 200,
            ..PtConfig::default()
        };
        let mut pt = ParallelTempering::new(cfg, 1);
        let _ = pt.solve(&model);
        assert!(pt.swap_attempts > 0);
        assert!(
            pt.swap_acceptance() > 0.0,
            "no replica exchange ever accepted"
        );
    }

    #[test]
    fn mcs_counts_all_replicas() {
        let cfg = PtConfig {
            replicas: 4,
            sweeps: 50,
            ..PtConfig::default()
        };
        let mut pt = ParallelTempering::new(cfg, 2);
        let model = rugged_model();
        let out = pt.solve(&model);
        assert_eq!(out.mcs, 200);
        assert_eq!(pt.mcs_per_solve(8), 200);
    }

    #[test]
    fn default_matches_ptda_reference() {
        assert_eq!(PtConfig::default().replicas, 26);
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn rejects_single_replica() {
        let cfg = PtConfig {
            replicas: 1,
            ..PtConfig::default()
        };
        let _ = ParallelTempering::new(cfg, 0);
    }

    #[test]
    fn controlled_solve_with_idle_controller_matches_solve() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 6,
            sweeps: 150,
            ..PtConfig::default()
        };
        let a = ParallelTempering::new(cfg, 42).solve(&model);
        let mut pt = ParallelTempering::new(cfg, 42);
        let b = pt.solve_controlled(&model, &RunController::unlimited());
        assert_eq!(b.status, OutcomeKind::Completed);
        assert!(b.state.is_none());
        assert_eq!(b.outcome, a);
    }

    #[test]
    fn interrupted_resume_is_bit_identical_across_threads() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 6,
            sweeps: 150,
            swap_interval: 10,
            threads: 1,
            ..PtConfig::default()
        };
        let mut oracle_pt = ParallelTempering::new(cfg, 42);
        let oracle = oracle_pt.solve(&model);
        for stop in [10u64, 70, 140] {
            let ctrl = RunController::unlimited().with_stop_after(stop);
            let cut = ParallelTempering::new(cfg, 42).solve_controlled(&model, &ctrl);
            assert_eq!(cut.status, OutcomeKind::Checkpointed, "stop={stop}");
            assert_eq!(cut.outcome.mcs, stop * 6, "stop={stop}");
            let state = cut.state.expect("checkpointed runs carry state");
            assert_eq!(state.next_round, stop / 10);
            for threads in [1usize, 2, 8] {
                let cfg2 = PtConfig { threads, ..cfg };
                let mut second = ParallelTempering::new(cfg2, 42);
                let resumed = second
                    .resume_controlled(&model, &state, &RunController::unlimited())
                    .expect("state fits the ladder");
                assert_eq!(resumed.status, OutcomeKind::Completed);
                assert_eq!(resumed.outcome, oracle, "stop={stop} threads={threads}");
                assert_eq!(second.swap_attempts, oracle_pt.swap_attempts);
                assert_eq!(second.swap_accepts, oracle_pt.swap_accepts);
            }
        }
    }

    #[test]
    fn checkpoint_before_the_first_round_resumes_identically() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 4,
            sweeps: 60,
            ..PtConfig::default()
        };
        let oracle = ParallelTempering::new(cfg, 9).solve(&model);
        let ctrl = RunController::unlimited();
        ctrl.request_checkpoint();
        let cut = ParallelTempering::new(cfg, 9).solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Checkpointed);
        assert_eq!(cut.outcome.mcs, 0);
        let state = cut.state.expect("checkpointed");
        assert_eq!(state.next_round, 0);
        let resumed = ParallelTempering::new(cfg, 9)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("state fits the ladder");
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn cancel_and_deadline_return_partial_outcomes() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 4,
            sweeps: 60,
            ..PtConfig::default()
        };
        let cancel = RunController::unlimited();
        cancel.request_cancel();
        let cut = ParallelTempering::new(cfg, 3).solve_controlled(&model, &cancel);
        assert_eq!(cut.status, OutcomeKind::Cancelled);
        assert!(cut.state.is_none());
        assert_eq!(cut.outcome.mcs, 0);
        assert_eq!(cut.outcome.best_energy, model.energy(&cut.outcome.best));

        let expired = RunController::unlimited().with_deadline_in(std::time::Duration::ZERO);
        let cut = ParallelTempering::new(cfg, 3).solve_controlled(&model, &expired);
        assert_eq!(cut.status, OutcomeKind::DeadlineExceeded);
        assert!(cut.state.is_none());
    }

    #[test]
    fn resume_rejects_a_mismatched_ladder() {
        let model = rugged_model();
        let cfg = PtConfig {
            replicas: 6,
            sweeps: 60,
            ..PtConfig::default()
        };
        let ctrl = RunController::unlimited().with_stop_after(10);
        let state = ParallelTempering::new(cfg, 42)
            .solve_controlled(&model, &ctrl)
            .state
            .expect("checkpointed");
        let narrow = PtConfig { replicas: 4, ..cfg };
        let mut other = ParallelTempering::new(narrow, 42);
        assert!(matches!(
            other.resume_controlled(&model, &state, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
        // a tampered round index past the schedule is rejected too
        let mut tampered = state.clone();
        tampered.next_round = 6;
        let mut same = ParallelTempering::new(cfg, 42);
        assert!(matches!(
            same.resume_controlled(&model, &tampered, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
