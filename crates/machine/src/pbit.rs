//! The serial p-bit machine: one lane of the lane kernel.
//!
//! [`PbitMachine`] owns exactly one lane's books — `±1.0` spins, local
//! fields, energy, flip count, and the model's drive bounds — and sweeps
//! them through the one per-lane kernel in [`crate::lane`], the same code
//! every [`ReplicaBatch`](crate::ReplicaBatch) lane runs: every spin, every
//! sweep, one-pass flip propagation, so a batch lane on the same stream
//! sweeps exactly as the machine does. What stays here is the greedy sweep
//! and the exact-`tanh` oracle that every kernel is pinned against.
//!
//! No annealer sweeps it: every annealed run, a
//! [`SimulatedAnnealing`](crate::SimulatedAnnealing) run included, is a
//! batch lane. The machine is the serial replay reference those lanes are
//! tested against, [`GreedyDescent`](crate::GreedyDescent)'s machine, and
//! the home of the exact-`tanh` oracle.

use crate::lane::{Lane, MachineSnapshot, SATURATION};
use crate::rng::{NoiseSource, SweepNoise};
use rand_chacha::ChaCha8Rng;
use saim_ising::{IsingModel, SpinState};

/// A network of probabilistic bits emulating a p-computer in software.
///
/// Each p-bit holds a spin `m_i = ±1`, reads its input
/// `I_i = Σ_j J_ij m_j + h_i` (paper eq. 9) and updates as
/// `m_i = sign(tanh(β I_i) + U(-1,1))` (paper eq. 10). Sequentially updating
/// every p-bit once — [`PbitMachine::sweep`] — is one Monte Carlo sweep (MCS)
/// of Gibbs sampling for `P(m) ∝ exp(-β H(m))` (paper eq. 11).
///
/// The machine keeps the local-field vector and the model energy current
/// incrementally: a flip of spin `j` shifts every `I_i` by `2 J_ij m_j`,
/// which costs one row scan instead of the full `O(n²)` recompute. It is
/// one lane of the crate's lane kernel: a [`ReplicaBatch`](crate::ReplicaBatch)
/// lane on the same stream runs the same code and replays it bit-for-bit.
///
/// # The three-tier decision kernel
///
/// Every Gibbs update resolves `m_i = sign(tanh(β I_i) + u)` through three
/// tiers of increasing cost, each bit-identical to the exact rule:
///
/// 1. **Settled scan + per-spin saturation classification.** A blocked
///    scan skips whole runs of spins whose `field · spin` clears the
///    padded `SATURATION / β` threshold — each is certifiably saturated
///    *and* aligned, so the exact rule would keep it with no draw. For the
///    few spins the scan leaves undecided, the per-spin drive bounds
///    `D_i = |h_i| + Σ_j |J_ij|` ([`IsingModel::drive_bounds`], cached
///    with the books) classify on demand whether the spin can reach
///    `|β I_i| ≥ 20` at all: spins that can *never* saturate at this β —
///    the weakly-coupled slack bits that dominate hot-regime knapsack
///    sweeps — skip the saturation compares entirely (see `CLASS_PAD` for
///    why dropping them is sound). The classification is a pure two-multiply
///    test of the precomputed bound, so a β that changes every sweep (any
///    annealing schedule) costs no reclassification pass.
/// 2. **Saturation short-circuit** (maybe-saturating spins only): a drive
///    past `±20` — where `tanh` rounds to exactly `±1.0` — decides without
///    `tanh` or a draw; the deep-quench fast path.
/// 3. **Certified tanh bracket** ([`crate::bracket`]): one `U(-1, 1)` word
///    is drawn, then cheap polynomial/rational bounds `lo ≤ tanh ≤ hi` (no
///    `libm` call) decide the sign whenever `u` falls outside `[-hi, -lo)`;
///    only the residual sliver (well under 1% of hot-regime draws)
///    computes the exact `tanh`.
///
/// **RNG-consumption contract:** tier 3 consumes exactly one `u64` from the
/// stream per update, whether the bracket or the exact `tanh` decides;
/// tiers 1–2 consume nothing, exactly like the pre-bracket kernel. The
/// trajectory is therefore bit-identical to
/// [`PbitMachine::sweep_exact_oracle`] — the retained exact-`tanh`
/// reference kernel — for every seed, schedule, batch width and thread
/// count, as the oracle replay proptests and `tests/determinism.rs` assert.
///
/// ```
/// use saim_ising::{QuboBuilder, IsingModel};
/// use saim_machine::{new_rng, PbitMachine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(0, -1.0)?;
/// let model = b.build().to_ising();
/// let mut rng = new_rng(1);
/// let mut machine = PbitMachine::new(&model, &mut rng);
/// for _ in 0..50 {
///     machine.sweep(&model, 4.0, &mut rng);
/// }
/// // Strong negative field on x0's spin drives it up at low temperature.
/// assert_eq!(machine.state().value(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PbitMachine {
    /// `±1.0` spins: the sweep works on floats so the local-field updates
    /// and dot products never convert `i8 → f64`.
    spins: Vec<f64>,
    local_fields: Vec<f64>,
    energy: f64,
    flips: u64,
    /// Per-spin drive bounds `D_i` (tier 1 of the decision kernel), built
    /// from the model on the first Gibbs sweep after a book recompute, so
    /// solvers that never take a Gibbs sweep (greedy descent, Metropolis)
    /// don't pay for them. `None` after every recompute: the recompute may
    /// follow a model change (a SAIM λ update, or reuse on a different
    /// model of the same size), and the bounds depend on `|h|` and `|J|`.
    drive_bounds: Option<Vec<f64>>,
}

impl PbitMachine {
    /// A machine of `n` spins with zeroed books, for a lane init to fill.
    fn zeroed(n: usize) -> Self {
        PbitMachine {
            spins: vec![0.0; n],
            local_fields: vec![0.0; n],
            energy: 0.0,
            flips: 0,
            drive_bounds: None,
        }
    }

    /// The machine's books as a [`Lane`] of the lane kernel.
    #[inline(always)]
    fn lane(&mut self) -> Lane<'_> {
        Lane {
            spins: &mut self.spins,
            fields: &mut self.local_fields,
            energy: &mut self.energy,
            flips: &mut self.flips,
            drive_bounds: self.drive_bounds.as_deref().unwrap_or_default(),
        }
    }

    /// Creates a machine with a uniformly random initial state.
    pub fn new(model: &IsingModel, rng: &mut ChaCha8Rng) -> Self {
        let mut machine = Self::zeroed(model.len());
        machine.lane().randomize(model, rng);
        machine
    }

    /// Reuses the machine in `slot` for a fresh uniformly-random run of
    /// `model` — re-randomizing in place when the size matches (no
    /// allocation), constructing anew otherwise — and returns it.
    ///
    /// This is [`GreedyDescent`](crate::GreedyDescent)'s restart entry
    /// point; the annealers start every run on a fresh
    /// [`ReplicaBatch`](crate::ReplicaBatch) lane instead. Either path draws
    /// exactly `model.len()` coin flips from `rng` and performs exactly one
    /// field resync.
    pub fn obtain_randomized<'a>(
        slot: &'a mut Option<PbitMachine>,
        model: &IsingModel,
        rng: &mut ChaCha8Rng,
    ) -> &'a mut PbitMachine {
        match slot {
            Some(m) if m.spins.len() == model.len() => m.randomize(model, rng),
            _ => *slot = Some(PbitMachine::new(model, rng)),
        }
        slot.as_mut().expect("just set")
    }

    /// Captures the machine's books exactly — spins, incrementally
    /// maintained local fields and energy, and the flip counter — for the
    /// checkpoint layer.
    pub(crate) fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot::gather(&self.spins, &self.local_fields, self.energy, self.flips)
    }

    /// Rebuilds a machine from a [`PbitMachine::snapshot`] **without a field
    /// resync**: the stored fields and energy are installed verbatim (see
    /// [`MachineSnapshot`] for why). Drive bounds are derived data and are
    /// rebuilt on the first Gibbs sweep.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's length does not match `model.len()` (the
    /// checkpoint loader validates sizes before calling this).
    pub(crate) fn from_snapshot(model: &IsingModel, snap: &MachineSnapshot) -> Self {
        let mut machine = Self::zeroed(model.len());
        machine.lane().restore(snap);
        machine
    }

    /// The current spin configuration, as a fresh [`SpinState`].
    pub fn state(&self) -> SpinState {
        SpinState::from_signs(&self.spins)
    }

    /// The current model energy `H(m)`, maintained incrementally.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Total number of spin flips performed so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The current local field `I_i` of p-bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn local_field(&self, i: usize) -> f64 {
        self.local_fields[i]
    }

    /// Re-randomizes the spin state uniformly (the start of a fresh SA run).
    ///
    /// Reuses every internal buffer and performs exactly one field resync —
    /// re-annealing allocates nothing but the drive bounds its first Gibbs
    /// sweep rebuilds.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn randomize(&mut self, model: &IsingModel, rng: &mut ChaCha8Rng) {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        self.lane().randomize(model, rng);
        self.drive_bounds = None;
    }

    /// One Monte Carlo sweep: sequentially updates every p-bit at inverse
    /// temperature `beta` with the stochastic rule of paper eq. 10.
    ///
    /// Noise is drawn per decision from `rng`; the serial replay references
    /// use [`PbitMachine::sweep_buffered`], which consumes the same stream
    /// in blocks and replays this method bit-for-bit (see
    /// [`NoiseSource`](crate::NoiseSource) for the draw-order contract).
    ///
    /// Returns the number of spins that changed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn sweep(&mut self, model: &IsingModel, beta: f64, rng: &mut ChaCha8Rng) -> usize {
        self.sweep_with(model, beta, rng)
    }

    /// [`PbitMachine::sweep`] drawing its noise from a block-buffered
    /// [`NoiseSource`] — one buffer load per undecided spin instead of a
    /// generator round trip. Bit-identical to the per-decision path on the
    /// same stream.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn sweep_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.sweep_with(model, beta, noise)
    }

    fn sweep_with<N: SweepNoise>(&mut self, model: &IsingModel, beta: f64, noise: &mut N) -> usize {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        self.drive_bounds
            .get_or_insert_with(|| model.drive_bounds());
        let before = self.flips;
        self.lane().scan_gibbs(model.couplings(), noise, beta);
        (self.flips - before) as usize
    }

    /// The pre-bracket reference Gibbs sweep: exact `tanh` plus one noise
    /// draw on every unsaturated spin, one global saturation short-circuit —
    /// the kernel [`PbitMachine::sweep`] replaced and must replay
    /// bit-for-bit.
    ///
    /// Kept as the **oracle** for the bracket-kernel replay proptests and
    /// as the exact-tanh baseline of the hot-regime benches; never called
    /// by production paths.
    #[doc(hidden)]
    pub fn sweep_exact_oracle(
        &mut self,
        model: &IsingModel,
        beta: f64,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        self.sweep_exact_with(model, beta, rng)
    }

    /// [`PbitMachine::sweep_exact_oracle`] drawing from a block-buffered
    /// [`NoiseSource`] — the oracle counterpart of
    /// [`PbitMachine::sweep_buffered`].
    #[doc(hidden)]
    pub fn sweep_exact_oracle_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.sweep_exact_with(model, beta, noise)
    }

    /// The oracle's own decision loop: independent of the lane kernel's
    /// scan and decision tiers, which it is the reference for.
    fn sweep_exact_with<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut N,
    ) -> usize {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        let mut changed = 0;
        for i in 0..self.spins.len() {
            let drive = beta * self.local_fields[i];
            let new_up = if drive >= SATURATION {
                true
            } else if drive <= -SATURATION {
                false
            } else {
                let activation = drive.tanh();
                let noise: f64 = noise.noise_symmetric();
                activation + noise >= 0.0
            };
            if new_up != (self.spins[i] > 0.0) {
                self.lane().flip(model.couplings(), i);
                changed += 1;
            }
        }
        changed
    }

    /// One Metropolis sweep: sequentially proposes a flip of every spin and
    /// accepts with probability `min(1, exp(-β ΔH))`.
    ///
    /// This is the classic single-flip dynamics of digital annealers (and of
    /// the PT-DA baseline's hardware), provided alongside the p-bit Gibbs
    /// rule of [`PbitMachine::sweep`] so the two chains can be compared on
    /// identical models. Both sample the same Boltzmann distribution
    /// (eq. 11) in equilibrium.
    ///
    /// Returns the number of spins that changed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn metropolis_sweep(
        &mut self,
        model: &IsingModel,
        beta: f64,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        self.metropolis_sweep_with(model, beta, rng)
    }

    /// [`PbitMachine::metropolis_sweep`] drawing its accept tests from a
    /// block-buffered [`NoiseSource`]. Bit-identical to the per-decision
    /// path on the same stream.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn metropolis_sweep_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.metropolis_sweep_with(model, beta, noise)
    }

    fn metropolis_sweep_with<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut N,
    ) -> usize {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        let before = self.flips;
        self.lane().metropolis(model.couplings(), noise, beta);
        (self.flips - before) as usize
    }

    /// One deterministic greedy sweep: flips each spin whose flip strictly
    /// lowers the energy (the β → ∞ limit without noise).
    ///
    /// Returns the number of spins that changed.
    pub fn greedy_sweep(&mut self, model: &IsingModel) -> usize {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        let mut changed = 0;
        let mut lane = self.lane();
        for i in 0..lane.spins.len() {
            let delta = 2.0 * lane.spins[i] * lane.fields[i];
            if delta < 0.0 {
                lane.flip(model.couplings(), i);
                changed += 1;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::CLASS_PAD;
    use crate::rng::new_rng;
    use saim_ising::{Couplings, QuboBuilder};

    fn frustrated_model() -> IsingModel {
        let mut b = QuboBuilder::new(4);
        b.add_pair(0, 1, 2.0).unwrap();
        b.add_pair(1, 2, -1.5).unwrap();
        b.add_pair(2, 3, 1.0).unwrap();
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(3, 0.5).unwrap();
        b.build().to_ising()
    }

    #[test]
    fn incremental_energy_matches_full_recompute() {
        let model = frustrated_model();
        let mut rng = new_rng(9);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..200 {
            machine.sweep(&model, 0.05 * sweep as f64, &mut rng);
            let full = model.energy(&machine.state());
            assert!(
                (machine.energy() - full).abs() < 1e-9,
                "drift at sweep {sweep}: {} vs {full}",
                machine.energy()
            );
        }
    }

    #[test]
    fn incremental_fields_match_model() {
        let model = frustrated_model();
        let mut rng = new_rng(11);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..50 {
            machine.sweep(&model, 1.0, &mut rng);
        }
        for i in 0..model.len() {
            let expected = model.local_field(&machine.state(), i);
            assert!((machine.local_field(i) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_zero_is_unbiased_coin() {
        // At β = 0 the activation is 0 and each p-bit is an unbiased coin.
        let model = frustrated_model();
        let mut rng = new_rng(5);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut ups = 0usize;
        let sweeps = 2000;
        for _ in 0..sweeps {
            machine.sweep(&model, 0.0, &mut rng);
            ups += machine.state().count_up();
        }
        let frac = ups as f64 / (sweeps * model.len()) as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction up = {frac}");
    }

    #[test]
    fn high_beta_finds_ground_state_of_simple_model() {
        // Single strong field: ground state is spin 0 up.
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -2.0).unwrap();
        let model = b.build().to_ising();
        let mut rng = new_rng(3);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..100 {
            machine.sweep(&model, 20.0, &mut rng);
        }
        assert_eq!(machine.state().value(0), 1);
    }

    #[test]
    fn greedy_sweep_never_increases_energy() {
        let model = frustrated_model();
        let mut rng = new_rng(17);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut prev = machine.energy();
        while machine.greedy_sweep(&model) > 0 {
            assert!(machine.energy() <= prev + 1e-12);
            prev = machine.energy();
        }
        // fixed point: no single flip improves
        for i in 0..model.len() {
            assert!(model.delta_energy(&machine.state(), i) >= -1e-12);
        }
    }

    /// A ring model big and sparse enough that `to_ising` stores it as CSR.
    fn sparse_ring_model(n: usize) -> IsingModel {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_pair(i, (i + 1) % n, if i % 2 == 0 { 1.0 } else { -1.5 })
                .unwrap();
            b.add_linear(i, 0.3 - 0.1 * (i % 5) as f64).unwrap();
        }
        b.build().to_ising()
    }

    #[test]
    fn low_density_models_sweep_over_csr_and_keep_books() {
        let model = sparse_ring_model(80);
        assert!(
            matches!(model.couplings(), Couplings::Sparse(_)),
            "a large ring model should convert to CSR couplings"
        );
        let mut rng = new_rng(13);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..100 {
            machine.sweep(&model, 0.1 * sweep as f64, &mut rng);
        }
        assert!(
            (machine.energy() - model.energy(&machine.state())).abs() < 1e-9,
            "energy drifted on the CSR path"
        );
        for i in 0..model.len() {
            let expected = model.local_field(&machine.state(), i);
            assert!(
                (machine.local_field(i) - expected).abs() < 1e-9,
                "field {i}"
            );
        }
    }

    #[test]
    fn small_or_dense_models_stay_on_dense_couplings() {
        let small = sparse_ring_model(8); // below the CSR size cut
        assert!(matches!(small.couplings(), Couplings::Dense(_)));
        let dense = frustrated_model(); // tiny and dense
        assert!(matches!(dense.couplings(), Couplings::Dense(_)));
    }

    #[test]
    fn buffered_sweeps_replay_the_per_decision_path() {
        // the block-buffered noise source must not change a single decision:
        // same stream, same trajectory, bit-identical energies
        let model = frustrated_model();
        let mut rng_a = new_rng(8);
        let mut a = PbitMachine::new(&model, &mut rng_a);
        let mut rng_b = new_rng(8);
        let b_init = PbitMachine::new(&model, &mut rng_b);
        let mut b = b_init;
        let mut noise = NoiseSource::new(rng_b);
        for sweep in 0..150 {
            let beta = 0.05 * sweep as f64;
            if sweep % 3 == 2 {
                a.metropolis_sweep(&model, beta, &mut rng_a);
                b.metropolis_sweep_buffered(&model, beta, &mut noise);
            } else {
                a.sweep(&model, beta, &mut rng_a);
                b.sweep_buffered(&model, beta, &mut noise);
            }
            assert_eq!(a.state(), b.state(), "sweep {sweep}");
            assert_eq!(a.energy().to_bits(), b.energy().to_bits(), "sweep {sweep}");
        }
    }

    #[test]
    fn randomize_matches_fresh_construction() {
        let model = frustrated_model();
        let mut rng = new_rng(6);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..20 {
            machine.sweep(&model, 1.0, &mut rng);
        }
        let mut fresh_rng = rng.clone();
        machine.randomize(&model, &mut rng);
        let fresh = PbitMachine::new(&model, &mut fresh_rng);
        assert_eq!(machine.state(), fresh.state());
        assert_eq!(machine.energy().to_bits(), fresh.energy().to_bits());
        for i in 0..model.len() {
            assert_eq!(
                machine.local_field(i).to_bits(),
                fresh.local_field(i).to_bits()
            );
        }
        // flips survive a re-randomization (they count the machine's
        // lifetime work)
        assert!(machine.flips() > 0);
    }

    #[test]
    fn recompute_after_field_change() {
        let mut model = frustrated_model();
        let mut rng = new_rng(21);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        model.fields_mut()[2] += 3.0;
        machine.lane().recompute_books(&model);
        assert!((machine.energy() - model.energy(&machine.state())).abs() < 1e-12);
        for i in 0..model.len() {
            assert!(
                (machine.local_field(i) - model.local_field(&machine.state(), i)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn randomize_changes_state_and_keeps_books() {
        let model = frustrated_model();
        let mut rng = new_rng(2);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.randomize(&model, &mut rng);
        assert!((machine.energy() - model.energy(&machine.state())).abs() < 1e-12);
    }

    #[test]
    fn metropolis_matches_gibbs_equilibrium_on_one_spin() {
        // both chains must converge to P(up) = (1 + tanh(βh)) / 2
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap();
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 0.9;
        let expected = (beta * h).tanh() / 2.0 + 0.5;
        for use_metropolis in [false, true] {
            let mut rng = new_rng(55);
            let mut machine = PbitMachine::new(&model, &mut rng);
            let mut ups = 0usize;
            let sweeps = 40_000;
            for _ in 0..sweeps {
                if use_metropolis {
                    machine.metropolis_sweep(&model, beta, &mut rng);
                } else {
                    machine.sweep(&model, beta, &mut rng);
                }
                ups += usize::from(machine.state().value(0) == 1);
            }
            let p_up = ups as f64 / sweeps as f64;
            assert!(
                (p_up - expected).abs() < 0.02,
                "metropolis={use_metropolis}: p_up = {p_up}, expected {expected}"
            );
        }
    }

    #[test]
    fn metropolis_keeps_energy_books() {
        let model = frustrated_model();
        let mut rng = new_rng(77);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..100 {
            machine.metropolis_sweep(&model, 0.1 * sweep as f64, &mut rng);
            assert!(
                (machine.energy() - model.energy(&machine.state())).abs() < 1e-9,
                "drift at sweep {sweep}"
            );
        }
    }

    #[test]
    fn metropolis_at_high_beta_descends() {
        let model = frustrated_model();
        let mut rng = new_rng(31);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let start = machine.energy();
        for _ in 0..100 {
            machine.metropolis_sweep(&model, 50.0, &mut rng);
        }
        assert!(machine.energy() <= start + 1e-9);
        // and the endpoint is a local minimum up to rare accepted uphill moves
        let uphill = (0..model.len())
            .filter(|&i| model.delta_energy(&machine.state(), i) < -1e-9)
            .count();
        assert_eq!(uphill, 0, "still has strictly improving flips");
    }

    #[test]
    fn bracket_kernel_replays_exact_oracle() {
        // the three-tier kernel must be bit-identical to the pre-bracket
        // exact-tanh kernel across the whole hot regime, dense and CSR
        for model in [frustrated_model(), sparse_ring_model(80)] {
            let mut rng_a = new_rng(14);
            let mut a = PbitMachine::new(&model, &mut rng_a);
            let mut rng_b = new_rng(14);
            let mut b = PbitMachine::new(&model, &mut rng_b);
            for sweep in 0..300 {
                let beta = 0.05 * sweep as f64;
                let ca = a.sweep(&model, beta, &mut rng_a);
                let cb = b.sweep_exact_oracle(&model, beta, &mut rng_b);
                assert_eq!(ca, cb, "changed count at sweep {sweep}");
                assert_eq!(a.state(), b.state(), "sweep {sweep}");
                assert_eq!(a.energy().to_bits(), b.energy().to_bits(), "sweep {sweep}");
                assert_eq!(a.flips(), b.flips(), "sweep {sweep}");
            }
        }
    }

    #[test]
    fn classification_marks_weak_spins_never_saturating() {
        // spin 0 carries a drive bound far past SATURATION at β = 1, spin 1
        // one far below it
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -100.0).unwrap();
        b.add_linear(1, -0.1).unwrap();
        let model = b.build().to_ising();
        let mut rng = new_rng(1);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        let bounds = machine.drive_bounds.clone().expect("built by the sweep");
        assert_eq!(bounds, model.drive_bounds());
        let class = |beta: f64, i: usize| beta * bounds[i] * CLASS_PAD >= SATURATION;
        assert!(class(1.0, 0), "strong spin must keep the sat tests");
        assert!(!class(1.0, 1), "weak spin can never saturate");
        // β = 0: nothing saturates
        assert!(!class(0.0, 0) && !class(0.0, 1));
    }

    #[test]
    fn reuse_on_a_changed_model_refreshes_drive_bounds() {
        let model = frustrated_model();
        let mut rng = new_rng(2);
        let mut slot = None;
        PbitMachine::obtain_randomized(&mut slot, &model, &mut rng).sweep(&model, 1.0, &mut rng);
        let mut other = model.clone();
        other.fields_mut()[2] += 50.0;
        let machine = PbitMachine::obtain_randomized(&mut slot, &other, &mut rng);
        machine.sweep(&other, 1.0, &mut rng);
        assert_eq!(machine.drive_bounds, Some(other.drive_bounds()));
    }

    #[test]
    fn boltzmann_ratio_on_two_state_system() {
        // One spin, field h: P(up)/P(down) should approach exp(2βh).
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap(); // ising field 0.5 on the spin
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 1.2;
        let mut rng = new_rng(33);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut ups = 0usize;
        let sweeps = 40_000;
        for _ in 0..sweeps {
            machine.sweep(&model, beta, &mut rng);
            if machine.state().value(0) == 1 {
                ups += 1;
            }
        }
        let p_up = ups as f64 / sweeps as f64;
        let expected = (beta * h).tanh() / 2.0 + 0.5;
        assert!(
            (p_up - expected).abs() < 0.02,
            "p_up = {p_up}, expected {expected}"
        );
    }
}
