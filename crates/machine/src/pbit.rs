use crate::bracket::gibbs_decision;
use crate::rng::{NoiseSource, SweepNoise};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use saim_ising::{IsingModel, Spin, SpinState};

/// Beyond this drive, `tanh(x)` rounds to exactly `±1.0` in `f64`
/// (`2e^{-2x} < 2^{-53}` ulp), and `sign(±1 + u)` with `u ∈ [-1, 1)` is the
/// sign of the saturated activation for every drawable `u` — the update is
/// deterministic, so both the tanh and the noise draw are skipped. This is
/// exact, not approximate: cold sweeps (large `β·I`) cost a compare instead
/// of a transcendental plus an RNG advance. The batched sweep engine
/// ([`crate::ReplicaBatch`]) shares this constant so its per-lane decisions
/// replay the serial machine bit-for-bit.
pub(crate) const SATURATION: f64 = 20.0;

/// Relative pad (`1 + 2⁻¹⁶`) on the per-spin saturation classification: a
/// spin counts as *never-saturating* at β only when `β · D_i · CLASS_PAD`
/// stays below [`SATURATION`], where `D_i = |h_i| + Σ_j |J_ij|` bounds the
/// true local field ([`IsingModel::drive_bounds`]).
///
/// The pad is what makes dropping the per-update saturation compares sound:
/// the incrementally-maintained field can exceed the real bound only by
/// accumulated rounding — about one part in 2⁵² per neighbour flip — so the
/// classification would need on the order of 2³⁶ flips *of one spin's
/// neighbours between resyncs* to be breached, far beyond any realizable
/// run. The oracle replay proptests and the determinism suites pin the
/// contract empirically. Shared by the serial and batched engines.
pub(crate) const CLASS_PAD: f64 = 1.0 + 1.0 / (1u64 << 16) as f64;

/// Upward pad on the settled-filter thresholds: `field · spin ≥
/// (SATURATION / β) · SETTLE_PAD_UP` *certifies* `β · field · spin ≥
/// SATURATION` despite the rounding of the division and the final multiply
/// (the products themselves are exact — spin is ±1.0) — so a spin passing
/// the settled test provably takes the old kernel's deterministic
/// short-circuit with no flip and no draw, independent of any
/// classification. Division rounding can only make the filter
/// conservative: a settled spin that fails it merely pays the exact
/// compares. Shared by the serial and batched engines.
pub(crate) const SETTLE_PAD_UP: f64 = 1.0 + 16.0 * f64::EPSILON;

/// Plain-data image of a [`PbitMachine`]'s books — exact field and energy
/// values included — used by the checkpoint layer. The fields must be the
/// *incrementally maintained* values, not a recompute (see
/// [`PbitMachine::from_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineSnapshot {
    /// Spin values (±1) in index order.
    pub spins: Vec<i8>,
    /// Incrementally-maintained local fields, exact.
    pub fields: Vec<f64>,
    /// Incrementally-maintained energy, exact.
    pub energy: f64,
    /// Lifetime flip counter.
    pub flips: u64,
}

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
/// which costs one row scan instead of the full `O(n²)` recompute.
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
    state: SpinState,
    /// `±1.0` mirror of `state`: the sweep hot path works on floats so the
    /// local-field updates and dot products never convert `i8 → f64`.
    spins_f: Vec<f64>,
    local_fields: Vec<f64>,
    energy: f64,
    flips: u64,
    /// Per-spin drive bounds `D_i` (tier 1 of the decision kernel),
    /// refreshed lazily after a book recompute so solvers that never take a
    /// Gibbs sweep (greedy descent, Metropolis) don't pay for them. Spin
    /// `i`'s classification at any β is the pure test
    /// `β · D_i · CLASS_PAD ≥ SATURATION`, evaluated on demand for the few
    /// spins the settled scan leaves undecided — so a changing β (every
    /// annealing schedule) costs no per-spin reclassification pass.
    drive_bounds: Vec<f64>,
    /// Whether `drive_bounds` must be recomputed from the model before the
    /// next classification.
    bounds_stale: bool,
}

impl PbitMachine {
    /// Creates a machine with a uniformly random initial state.
    pub fn new(model: &IsingModel, rng: &mut ChaCha8Rng) -> Self {
        let state: SpinState = (0..model.len())
            .map(|_| {
                if rng.gen::<bool>() {
                    Spin::Up
                } else {
                    Spin::Down
                }
            })
            .collect();
        Self::with_state(model, state)
    }

    /// Creates a machine starting from a given spin configuration.
    ///
    /// Initialization performs exactly one field resync (O(n²) dense,
    /// O(nnz) sparse); to re-anneal an existing machine without fresh
    /// allocations use [`PbitMachine::randomize`] or
    /// [`PbitMachine::reset_to`] instead of constructing a new one.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != model.len()`.
    pub fn with_state(model: &IsingModel, state: SpinState) -> Self {
        assert_eq!(state.len(), model.len(), "state length mismatch");
        let spins_f: Vec<f64> = state.values().iter().map(|&v| f64::from(v)).collect();
        let mut machine = PbitMachine {
            state,
            spins_f,
            local_fields: vec![0.0; model.len()],
            energy: 0.0,
            flips: 0,
            drive_bounds: vec![0.0; model.len()],
            bounds_stale: true,
        };
        machine.recompute_books(model);
        machine
    }

    /// Reuses the machine in `slot` for a fresh uniformly-random run of
    /// `model` — re-randomizing in place when the size matches (no
    /// allocation), constructing anew otherwise — and returns it.
    ///
    /// This is the shared re-anneal entry point of the restart-based
    /// solvers ([`SimulatedAnnealing`](crate::SimulatedAnnealing),
    /// [`GreedyDescent`](crate::GreedyDescent)), so the reuse rule lives in
    /// one place. Either path draws exactly `model.len()` coin flips from
    /// `rng` and performs exactly one field resync.
    pub fn obtain_randomized<'a>(
        slot: &'a mut Option<PbitMachine>,
        model: &IsingModel,
        rng: &mut ChaCha8Rng,
    ) -> &'a mut PbitMachine {
        match slot {
            Some(m) if m.state().len() == model.len() => m.randomize(model, rng),
            _ => *slot = Some(PbitMachine::new(model, rng)),
        }
        slot.as_mut().expect("just set")
    }

    /// Captures the machine's books exactly — spins, incrementally
    /// maintained local fields and energy, and the flip counter — for the
    /// checkpoint layer.
    pub(crate) fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            spins: self.state.values().to_vec(),
            fields: self.local_fields.clone(),
            energy: self.energy,
            flips: self.flips,
        }
    }

    /// Rebuilds a machine from a [`PbitMachine::snapshot`] **without a field
    /// resync**: the stored fields and energy are installed verbatim.
    ///
    /// This is deliberate. [`PbitMachine::with_state`] recomputes the books
    /// from the model, but a recomputed field is summed in a different
    /// association order than the incrementally-maintained one and so is not
    /// bit-identical to it; resuming through a resync would fork the
    /// trajectory from the uninterrupted run. Drive bounds are derived data
    /// and are lazily recomputed on the first sweep.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's length does not match `model.len()` (the
    /// checkpoint loader validates sizes before calling this).
    pub(crate) fn from_snapshot(model: &IsingModel, snap: &MachineSnapshot) -> Self {
        assert_eq!(snap.spins.len(), model.len(), "snapshot length mismatch");
        assert_eq!(snap.fields.len(), model.len(), "snapshot field mismatch");
        let state = SpinState::from_values(&snap.spins);
        let spins_f: Vec<f64> = state.values().iter().map(|&v| f64::from(v)).collect();
        PbitMachine {
            state,
            spins_f,
            local_fields: snap.fields.clone(),
            energy: snap.energy,
            flips: snap.flips,
            drive_bounds: vec![0.0; model.len()],
            bounds_stale: true,
        }
    }

    /// Re-initializes the machine in place from `state`, reusing every
    /// internal buffer — the re-anneal path: no allocation when the size is
    /// unchanged, and exactly one field resync.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != model.len()`.
    pub fn reset_to(&mut self, model: &IsingModel, state: &SpinState) {
        assert_eq!(state.len(), model.len(), "state length mismatch");
        if self.state.len() == state.len() {
            self.state.copy_from(state);
        } else {
            self.state = state.clone();
            self.spins_f.resize(state.len(), 0.0);
            self.local_fields.resize(state.len(), 0.0);
            self.drive_bounds.resize(state.len(), 0.0);
        }
        for (s, &v) in self.spins_f.iter_mut().zip(state.values()) {
            *s = f64::from(v);
        }
        self.recompute_books(model);
    }

    /// Rebuilds the local fields (O(N²) on dense models, O(nnz) on sparse
    /// ones) and then the energy in O(N) via
    /// [`PbitMachine::energy_from_fields`].
    ///
    /// Also invalidates the cached drive bounds and saturation
    /// classification: every book recompute may follow a model change (a
    /// SAIM λ-resync, or machine reuse on a different model of the same
    /// size), and the bounds depend on `|h|` and `|J|`.
    fn recompute_books(&mut self, model: &IsingModel) {
        let couplings = model.couplings();
        for (i, (field, &h)) in self.local_fields.iter_mut().zip(model.fields()).enumerate() {
            *field = couplings.row_dot_f64(i, &self.spins_f) + h;
        }
        self.energy = self.energy_from_fields(model);
        self.bounds_stale = true;
    }

    /// Refreshes the per-spin drive bounds (lazily, only after a book
    /// recompute) — tier 1 of the decision kernel. One abs-sum row pass per
    /// spin (O(N²) dense / O(nnz) sparse), the same cost as the field
    /// resync that staled them.
    fn ensure_drive_bounds(&mut self, model: &IsingModel) {
        if self.bounds_stale {
            let couplings = model.couplings();
            for (i, (d, &h)) in self.drive_bounds.iter_mut().zip(model.fields()).enumerate() {
                *d = h.abs() + couplings.row_abs_sum(i);
            }
            self.bounds_stale = false;
        }
    }

    /// The model energy recomputed in O(N) from the incrementally-maintained
    /// local fields:
    ///
    /// ```text
    /// H = offset − ½ Σ_i s_i (I_i + h_i)
    /// ```
    ///
    /// (since `I_i = Σ_j J_ij s_j + h_i`, the pair term is
    /// `½ Σ_i s_i (I_i − h_i)`). This replaces the O(N²) `model.energy`
    /// recompute everywhere the machine already holds current fields — the
    /// SAIM λ-resync path in particular.
    pub fn energy_from_fields(&self, model: &IsingModel) -> f64 {
        let mut acc = 0.0;
        for ((&s, &f), &h) in self
            .spins_f
            .iter()
            .zip(&self.local_fields)
            .zip(model.fields())
        {
            acc += s * (f + h);
        }
        model.offset() - 0.5 * acc
    }

    /// The current spin configuration.
    pub fn state(&self) -> &SpinState {
        &self.state
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

    /// Re-reads fields and energy from the model.
    ///
    /// Call after the model's linear part changed (SAIM's λ update) while
    /// keeping the spin state.
    pub fn resync(&mut self, model: &IsingModel) {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.recompute_books(model);
    }

    /// Re-randomizes the spin state uniformly (the start of a fresh SA run).
    ///
    /// Reuses every internal buffer and performs exactly one field resync —
    /// re-annealing allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn randomize(&mut self, model: &IsingModel, rng: &mut ChaCha8Rng) {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        for i in 0..self.state.len() {
            let spin = if rng.gen::<bool>() {
                Spin::Up
            } else {
                Spin::Down
            };
            self.state.set(i, spin);
            self.spins_f[i] = f64::from(spin.value());
        }
        self.recompute_books(model);
    }

    #[inline]
    fn apply_flip(&mut self, model: &IsingModel, i: usize) {
        let old = self.spins_f[i];
        // ΔH for flipping spin i is 2 s_i I_i
        self.energy += 2.0 * old * self.local_fields[i];
        self.state.flip(i);
        self.spins_f[i] = -old;
        let delta = -2.0 * old; // new - old spin value
        model.couplings().row_axpy(i, delta, &mut self.local_fields);
        self.flips += 1;
    }

    /// One Monte Carlo sweep: sequentially updates every p-bit at inverse
    /// temperature `beta` with the stochastic rule of paper eq. 10.
    ///
    /// Noise is drawn per decision from `rng`; the annealers' hot paths use
    /// [`PbitMachine::sweep_buffered`], which consumes the same stream in
    /// blocks and replays this method bit-for-bit (see
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
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.ensure_drive_bounds(model);
        // `field · spin ≥ settle` certifies saturated *and* aligned (see
        // `SETTLE_PAD_UP`) — independent of any per-spin bound, so one
        // scalar threshold serves the whole scan; β = 0 maps to +∞
        // (nothing settles).
        let settle = if beta > 0.0 {
            (SATURATION / beta) * SETTLE_PAD_UP
        } else {
            f64::INFINITY
        };
        let n = self.state.len();
        let mut changed = 0;
        let mut i = 0;
        while i < n {
            // Settled scan: a whole run of settled spins — for each of
            // which the old kernel would decide "keep, no draw" — is
            // skipped with one blocked multiply-compare per spin
            // ([`settled_run`]). Never-saturating spins can never pass the
            // test (their field bound sits below `SATURATION / β`), so
            // they always stop the scan.
            let run = settled_run(&self.local_fields[i..n], &self.spins_f[i..n], settle);
            i += run;
            // Then a run of *unsettled* spins — the hot knapsack slack bits
            // sit on consecutive indices, so deciding them in one tight
            // loop (one settled re-test per spin, fields re-read after any
            // flip) avoids re-entering the scan per decision.
            while i < n {
                let f = self.local_fields[i];
                if f * self.spins_f[i] >= settle {
                    break;
                }
                let new_up = gibbs_up(beta, f, self.drive_bounds[i], || noise.noise_symmetric());
                if new_up != (self.spins_f[i] > 0.0) {
                    self.apply_flip(model, i);
                    changed += 1;
                }
                i += 1;
            }
        }
        changed
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

    fn sweep_exact_with<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut N,
    ) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        let mut changed = 0;
        for i in 0..self.state.len() {
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
            if new_up != (self.spins_f[i] > 0.0) {
                self.apply_flip(model, i);
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
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        let mut changed = 0;
        for i in 0..self.state.len() {
            let delta = 2.0 * self.spins_f[i] * self.local_fields[i];
            let accept = delta <= 0.0 || noise.noise_unit() < (-beta * delta).exp();
            if accept {
                self.apply_flip(model, i);
                changed += 1;
            }
        }
        changed
    }

    /// One deterministic greedy sweep: flips each spin whose flip strictly
    /// lowers the energy (the β → ∞ limit without noise).
    ///
    /// Returns the number of spins that changed.
    pub fn greedy_sweep(&mut self, model: &IsingModel) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        let mut changed = 0;
        for i in 0..self.state.len() {
            let delta = 2.0 * self.spins_f[i] * self.local_fields[i];
            if delta < 0.0 {
                self.apply_flip(model, i);
                changed += 1;
            }
        }
        changed
    }
}

/// Length of the leading *settled run*: the largest `k` such that
/// `fields[j] · spins[j] ≥ thresh` for every `j < k`.
///
/// The hot loop of the settled scan: whole blocks of 8 spins are tested
/// with a branchless compare-count the compiler keeps in vector registers
/// (the same shape as the batched engine's lane filter), and only the
/// breaking block is refined element-wise. Purely a read-only count — the
/// caller decides the first unsettled spin through the full kernel, so
/// blocking can never change a decision or a draw.
#[inline(always)]
pub(crate) fn settled_run(fields: &[f64], spins: &[f64], thresh: f64) -> usize {
    const BLOCK: usize = 8;
    let n = fields.len();
    let mut i = 0;
    while i + BLOCK <= n {
        let f: &[f64; BLOCK] = fields[i..i + BLOCK].try_into().expect("blocked slice");
        let s: &[f64; BLOCK] = spins[i..i + BLOCK].try_into().expect("blocked slice");
        let mut settled = 0u32;
        for lane in 0..BLOCK {
            settled += u32::from(f[lane] * s[lane] >= thresh);
        }
        if settled != BLOCK as u32 {
            break;
        }
        i += BLOCK;
    }
    while i < n && fields[i] * spins[i] >= thresh {
        i += 1;
    }
    i
}

/// The three-tier Gibbs decision for one spin the settled scan left
/// undecided (tiers 1–3 in [`PbitMachine`]'s docs): whether the spin
/// comes up, given its local `field`, its drive bound `D_i` and the
/// inverse temperature.
///
/// A spin whose drive bound can reach saturation at this β runs the exact
/// saturation compares, which decide without a draw past `±SATURATION`;
/// never-saturating spins — the hot regime's majority — go straight to
/// the drawn bracket decision ([`gibbs_decision`]). `noise` is called
/// exactly once on the drawn path and never otherwise, which is the
/// kernel's RNG-consumption contract, so every caller — the serial
/// machine and every batch lane — replays the exact kernel bit-for-bit.
#[inline(always)]
pub(crate) fn gibbs_up(
    beta: f64,
    field: f64,
    drive_bound: f64,
    noise: impl FnOnce() -> f64,
) -> bool {
    let drive = beta * field;
    if beta * drive_bound * CLASS_PAD >= SATURATION {
        if drive >= SATURATION {
            return true;
        }
        if drive <= -SATURATION {
            return false;
        }
    }
    gibbs_decision(drive, noise())
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let full = model.energy(machine.state());
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
            let expected = model.local_field(machine.state(), i);
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
            assert!(model.delta_energy(machine.state(), i) >= -1e-12);
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
            (machine.energy() - model.energy(machine.state())).abs() < 1e-9,
            "energy drifted on the CSR path"
        );
        for i in 0..model.len() {
            let expected = model.local_field(machine.state(), i);
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
    fn reset_to_matches_fresh_construction() {
        let model = frustrated_model();
        let mut rng = new_rng(6);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..20 {
            machine.sweep(&model, 1.0, &mut rng);
        }
        let target = SpinState::from_values(&[1, -1, -1, 1]);
        machine.reset_to(&model, &target);
        let fresh = PbitMachine::with_state(&model, target.clone());
        assert_eq!(machine.state(), fresh.state());
        assert_eq!(machine.energy().to_bits(), fresh.energy().to_bits());
        for i in 0..model.len() {
            assert_eq!(
                machine.local_field(i).to_bits(),
                fresh.local_field(i).to_bits()
            );
        }
        // flips survive a reset (they count the machine's lifetime work)
        assert!(machine.flips() > 0);
    }

    #[test]
    fn resync_after_field_change() {
        let mut model = frustrated_model();
        let mut rng = new_rng(21);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        model.fields_mut()[2] += 3.0;
        machine.resync(&model);
        assert!((machine.energy() - model.energy(machine.state())).abs() < 1e-12);
        for i in 0..model.len() {
            assert!((machine.local_field(i) - model.local_field(machine.state(), i)).abs() < 1e-12);
        }
    }

    #[test]
    fn randomize_changes_state_and_keeps_books() {
        let model = frustrated_model();
        let mut rng = new_rng(2);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.randomize(&model, &mut rng);
        assert!((machine.energy() - model.energy(machine.state())).abs() < 1e-12);
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
                (machine.energy() - model.energy(machine.state())).abs() < 1e-9,
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
            .filter(|&i| model.delta_energy(machine.state(), i) < -1e-9)
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
        assert_eq!(machine.drive_bounds, model.drive_bounds());
        let class = |beta: f64, i: usize| beta * machine.drive_bounds[i] * CLASS_PAD >= SATURATION;
        assert!(class(1.0, 0), "strong spin must keep the sat tests");
        assert!(!class(1.0, 1), "weak spin can never saturate");
        // β = 0: nothing saturates
        assert!(!class(0.0, 0) && !class(0.0, 1));
    }

    #[test]
    fn resync_refreshes_drive_bounds() {
        let mut model = frustrated_model();
        let mut rng = new_rng(2);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        model.fields_mut()[2] += 50.0;
        machine.resync(&model);
        machine.sweep(&model, 1.0, &mut rng);
        assert_eq!(machine.drive_bounds, model.drive_bounds());
    }

    #[test]
    fn settled_run_counts_leading_settled_prefix() {
        // blocked and element-wise refinement must agree with the naive
        // definition across block boundaries
        let thresh = 2.0;
        for break_at in [0usize, 1, 7, 8, 9, 15, 16, 20] {
            let n = 21;
            let fields: Vec<f64> = (0..n)
                .map(|i| if i == break_at { 1.0 } else { 3.0 })
                .collect();
            let spins = vec![1.0; n];
            assert_eq!(settled_run(&fields, &spins, thresh), break_at, "{break_at}");
        }
        assert_eq!(settled_run(&[], &[], 1.0), 0);
        assert_eq!(settled_run(&[5.0; 19], &[1.0; 19], 2.0), 19);
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
