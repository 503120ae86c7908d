//! Test support: the serial p-bit replay reference and the exact-`tanh`
//! oracle.
//!
//! No solver sweeps a [`PbitMachine`]: every engine runs its lanes through
//! a [`ReplicaBatch`](crate::ReplicaBatch). The machine owns exactly one
//! lane's books and sweeps them through the same lane kernel
//! ([`crate::lane`]), so the batch-vs-serial replay tests compare two
//! callers of one kernel; the kernel itself is pinned by the exact-`tanh`
//! oracle here ([`PbitMachine::sweep_exact_oracle_buffered`]) and by the
//! golden trajectories of `tests/determinism.rs`. It is re-exported at the
//! crate root, hidden from the docs, for the integration tests and the
//! benches.

use crate::lane::{Lane, SATURATION};
use crate::rng::NoiseSource;
use rand_chacha::ChaCha8Rng;
use saim_ising::{IsingModel, SpinState};

/// One lane of the lane kernel with its own books, swept serially: the
/// replay reference a [`ReplicaBatch`](crate::ReplicaBatch) lane on the
/// same stream must match bit for bit.
#[derive(Debug, Clone)]
pub struct PbitMachine {
    /// `±1.0` spins: the sweep works on floats so the local-field updates
    /// and dot products never convert `i8 → f64`.
    spins: Vec<f64>,
    local_fields: Vec<f64>,
    energy: f64,
    flips: u64,
    /// Per-spin drive bounds `D_i`, built from the model on the first Gibbs
    /// sweep, so machines that never take one don't pay for them.
    drive_bounds: Option<Vec<f64>>,
}

impl PbitMachine {
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

    /// Creates a machine with a uniformly random initial state: `n` coin
    /// flips from `rng`, the draws a batch lane's init makes.
    pub fn new(model: &IsingModel, rng: &mut ChaCha8Rng) -> Self {
        let n = model.len();
        let mut machine = PbitMachine {
            spins: vec![0.0; n],
            local_fields: vec![0.0; n],
            energy: 0.0,
            flips: 0,
            drive_bounds: None,
        };
        machine.lane().randomize(model, rng);
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

    /// One Gibbs sweep at inverse temperature `beta` through the lane
    /// kernel's scan, drawing from `noise`. Returns the number of spins
    /// that changed.
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
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        self.drive_bounds
            .get_or_insert_with(|| model.drive_bounds());
        let before = self.flips;
        self.lane().scan_gibbs(model.couplings(), noise, beta);
        (self.flips - before) as usize
    }

    /// The exact-`tanh` reference Gibbs sweep: exact `tanh` plus one noise
    /// draw on every unsaturated spin, one global saturation short-circuit.
    /// It is the **oracle** the three-tier kernel must replay bit for bit,
    /// and the exact-tanh baseline of the hot-regime benches. Its decision
    /// loop is its own, independent of the lane kernel's scan and tiers.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn sweep_exact_oracle_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
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
                drive.tanh() + noise.symmetric() >= 0.0
            };
            if new_up != (self.spins[i] > 0.0) {
                self.lane().flip(model.couplings(), i);
                changed += 1;
            }
        }
        changed
    }

    /// One Metropolis sweep through the lane kernel, drawing its accept
    /// tests from `noise`. Returns the number of spins that changed.
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
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        let before = self.flips;
        self.lane().metropolis(model.couplings(), noise, beta);
        (self.flips - before) as usize
    }

    /// One greedy sweep through the lane kernel. Returns the number of
    /// spins that changed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn greedy_sweep(&mut self, model: &IsingModel) -> usize {
        assert_eq!(self.spins.len(), model.len(), "state length mismatch");
        self.lane().greedy(model.couplings())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::CLASS_PAD;
    use crate::rng::new_rng;
    use saim_ising::{Couplings, QuboBuilder};

    /// A fresh machine on `seed`'s stream and the noise source that
    /// continues that stream after the init's coin flips.
    fn machine_on(model: &IsingModel, seed: u64) -> (PbitMachine, NoiseSource) {
        let mut rng = new_rng(seed);
        let machine = PbitMachine::new(model, &mut rng);
        (machine, NoiseSource::new(rng))
    }

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
        let (mut machine, mut noise) = machine_on(&model, 9);
        for sweep in 0..200 {
            machine.sweep_buffered(&model, 0.05 * sweep as f64, &mut noise);
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
        let (mut machine, mut noise) = machine_on(&model, 11);
        for _ in 0..50 {
            machine.sweep_buffered(&model, 1.0, &mut noise);
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
        let (mut machine, mut noise) = machine_on(&model, 5);
        let mut ups = 0usize;
        let sweeps = 2000;
        for _ in 0..sweeps {
            machine.sweep_buffered(&model, 0.0, &mut noise);
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
        let (mut machine, mut noise) = machine_on(&model, 3);
        for _ in 0..100 {
            machine.sweep_buffered(&model, 20.0, &mut noise);
        }
        assert_eq!(machine.state().value(0), 1);
    }

    #[test]
    fn greedy_sweep_never_increases_energy() {
        let model = frustrated_model();
        let (mut machine, _) = machine_on(&model, 17);
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
        let (mut machine, mut noise) = machine_on(&model, 13);
        for sweep in 0..100 {
            machine.sweep_buffered(&model, 0.1 * sweep as f64, &mut noise);
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
    fn recompute_after_field_change() {
        let mut model = frustrated_model();
        let (mut machine, mut noise) = machine_on(&model, 21);
        machine.sweep_buffered(&model, 1.0, &mut noise);
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
    fn metropolis_matches_gibbs_equilibrium_on_one_spin() {
        // both chains must converge to P(up) = (1 + tanh(βh)) / 2
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap();
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 0.9;
        let expected = (beta * h).tanh() / 2.0 + 0.5;
        for use_metropolis in [false, true] {
            let (mut machine, mut noise) = machine_on(&model, 55);
            let mut ups = 0usize;
            let sweeps = 40_000;
            for _ in 0..sweeps {
                if use_metropolis {
                    machine.metropolis_sweep_buffered(&model, beta, &mut noise);
                } else {
                    machine.sweep_buffered(&model, beta, &mut noise);
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
        let (mut machine, mut noise) = machine_on(&model, 77);
        for sweep in 0..100 {
            machine.metropolis_sweep_buffered(&model, 0.1 * sweep as f64, &mut noise);
            assert!(
                (machine.energy() - model.energy(&machine.state())).abs() < 1e-9,
                "drift at sweep {sweep}"
            );
        }
    }

    #[test]
    fn metropolis_at_high_beta_descends() {
        let model = frustrated_model();
        let (mut machine, mut noise) = machine_on(&model, 31);
        let start = machine.energy();
        for _ in 0..100 {
            machine.metropolis_sweep_buffered(&model, 50.0, &mut noise);
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
            let (mut a, mut noise_a) = machine_on(&model, 14);
            let (mut b, mut noise_b) = machine_on(&model, 14);
            for sweep in 0..300 {
                let beta = 0.05 * sweep as f64;
                let ca = a.sweep_buffered(&model, beta, &mut noise_a);
                let cb = b.sweep_exact_oracle_buffered(&model, beta, &mut noise_b);
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
        let (mut machine, mut noise) = machine_on(&model, 1);
        machine.sweep_buffered(&model, 1.0, &mut noise);
        let bounds = machine.drive_bounds.clone().expect("built by the sweep");
        assert_eq!(bounds, model.drive_bounds());
        let class = |beta: f64, i: usize| beta * bounds[i] * CLASS_PAD >= SATURATION;
        assert!(class(1.0, 0), "strong spin must keep the sat tests");
        assert!(!class(1.0, 1), "weak spin can never saturate");
        // β = 0: nothing saturates
        assert!(!class(0.0, 0) && !class(0.0, 1));
    }

    #[test]
    fn boltzmann_ratio_on_two_state_system() {
        // One spin, field h: P(up)/P(down) should approach exp(2βh).
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap(); // ising field 0.5 on the spin
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 1.2;
        let (mut machine, mut noise) = machine_on(&model, 33);
        let mut ups = 0usize;
        let sweeps = 40_000;
        for _ in 0..sweeps {
            machine.sweep_buffered(&model, beta, &mut noise);
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
