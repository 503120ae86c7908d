//! Property-based tests for the p-bit machine.

use proptest::prelude::*;
use saim_ising::{BinaryState, QuboBuilder};
use saim_machine::{
    derive_seed, new_rng, BetaSchedule, Dynamics, IsingSolver, NoiseSource, PbitMachine,
    ReplicaBatch, SimulatedAnnealing,
};

/// A small random Ising model built from a QUBO.
fn arb_model() -> impl Strategy<Value = saim_ising::IsingModel> {
    (3usize..8).prop_flat_map(|n| {
        let pairs = proptest::collection::vec(((0..n, 0..n), -2.0..2.0f64), 0..10);
        let linear = proptest::collection::vec(-2.0..2.0f64, n);
        (pairs, linear).prop_map(move |(pairs, linear)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, v).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, v).expect("index in range");
            }
            b.build().to_ising()
        })
    })
}

/// A small random Ising model that may be empty or a single spin — the
/// degenerate shapes the batched engine must survive.
fn arb_model_with_edge_sizes() -> impl Strategy<Value = saim_ising::IsingModel> {
    (0usize..6).prop_flat_map(|n| {
        let pairs = if n >= 2 {
            proptest::collection::vec(((0..n, 0..n), -2.0..2.0f64), 0..8).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        let linear = proptest::collection::vec(-2.0..2.0f64, n);
        (pairs, linear).prop_map(move |(pairs, linear)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, v).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, v).expect("index in range");
            }
            b.build().to_ising()
        })
    })
}

/// A ring QUBO large and sparse enough that `to_ising` stores CSR couplings.
fn arb_csr_model() -> impl Strategy<Value = saim_ising::IsingModel> {
    (64usize..90, proptest::collection::vec(-2.0..2.0f64, 90)).prop_map(|(n, weights)| {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            let w = weights[i % weights.len()];
            if w != 0.0 {
                b.add_pair(i, (i + 1) % n, w).expect("indices in range");
            }
            b.add_linear(i, 0.4 - 0.2 * (i % 3) as f64)
                .expect("index in range");
        }
        b.build().to_ising()
    })
}

/// Asserts the batch-width-invariance contract on `model`: lanes of an R=8
/// batch, lanes of R=1 batches, and serial [`PbitMachine`] replays of the
/// same streams produce identical trajectories and energies sweep by sweep.
fn assert_batch_width_invariance(model: &saim_ising::IsingModel, seed: u64, sweeps: usize) {
    let seeds: Vec<u64> = (0..8).map(|r| derive_seed(seed, r)).collect();
    let mut wide = ReplicaBatch::new(model, &seeds);
    let mut narrow: Vec<ReplicaBatch> = seeds
        .iter()
        .map(|&s| ReplicaBatch::new(model, &[s]))
        .collect();
    let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
        .iter()
        .map(|&s| {
            let mut rng = new_rng(s);
            let machine = PbitMachine::new(model, &mut rng);
            (machine, NoiseSource::new(rng))
        })
        .collect();
    for sweep in 0..sweeps {
        let beta = 0.4 * sweep as f64;
        wide.sweep_uniform(model, beta);
        for (r, (solo, (machine, noise))) in narrow.iter_mut().zip(&mut serial).enumerate() {
            solo.sweep_uniform(model, beta);
            machine.sweep_buffered(model, beta, noise);
            assert_eq!(wide.state(r), solo.state(0), "R=8 vs R=1, lane {r}");
            assert_eq!(wide.state(r), machine.state(), "R=8 vs serial, lane {r}");
            assert_eq!(
                wide.energy(r).to_bits(),
                solo.energy(0).to_bits(),
                "energy R=8 vs R=1, lane {r}"
            );
            assert_eq!(
                wide.energy(r).to_bits(),
                machine.energy().to_bits(),
                "energy R=8 vs serial, lane {r}"
            );
        }
    }
}

/// Serial-oracle replay at one batch width: every lane of a width-`width`
/// batch must track a serial [`PbitMachine`] fed the same stream, sweep by
/// sweep, through an anneal ramp *and* a held deep quench — the held tail
/// keeps β stable, so the settled scan skips most spins and its skips are
/// pinned against the oracle too.
fn assert_oracle_replay_at_width(model: &saim_ising::IsingModel, seed: u64, width: usize) {
    let seeds: Vec<u64> = (0..width as u64).map(|r| derive_seed(seed, r)).collect();
    let mut batch = ReplicaBatch::new(model, &seeds);
    let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
        .iter()
        .map(|&s| {
            let mut rng = new_rng(s);
            let machine = PbitMachine::new(model, &mut rng);
            (machine, NoiseSource::new(rng))
        })
        .collect();
    for sweep in 0..30 {
        let beta = if sweep < 10 { 0.6 * sweep as f64 } else { 40.0 };
        batch.sweep_uniform(model, beta);
        for (r, (machine, noise)) in serial.iter_mut().enumerate() {
            machine.sweep_buffered(model, beta, noise);
            assert_eq!(batch.state(r), machine.state(), "lane {r} of {width}");
            assert_eq!(
                batch.energy(r).to_bits(),
                machine.energy().to_bits(),
                "energy, lane {r} of {width}"
            );
        }
    }
}

proptest! {
    /// Batch-width invariance on dense models, including n = 0 and n = 1:
    /// R = 1, R = 8 and serial replay are trajectory-identical.
    #[test]
    fn batch_width_invariance_on_dense_models(
        model in arb_model_with_edge_sizes(),
        seed in 0u64..500,
    ) {
        assert_batch_width_invariance(&model, seed, 15);
    }

    /// Batch-width invariance on CSR-backed models.
    #[test]
    fn batch_width_invariance_on_csr_models(
        model in arb_csr_model(),
        seed in 0u64..200,
    ) {
        prop_assume!(matches!(model.couplings(), saim_ising::Couplings::Sparse(_)));
        assert_batch_width_invariance(&model, seed, 8);
    }

    /// Oracle replay at widths that are not a multiple of any SIMD/tile
    /// width, on dense models including n = 0 and n = 1.
    #[test]
    fn odd_width_batches_replay_serial_on_dense_models(
        model in arb_model_with_edge_sizes(),
        seed in 0u64..200,
        width_idx in 0usize..4,
    ) {
        let width = [3usize, 5, 7, 17][width_idx];
        assert_oracle_replay_at_width(&model, seed, width);
    }

    /// Oracle replay at odd widths on CSR-backed models.
    #[test]
    fn odd_width_batches_replay_serial_on_csr_models(
        model in arb_csr_model(),
        seed in 0u64..100,
        width_idx in 0usize..4,
    ) {
        prop_assume!(matches!(model.couplings(), saim_ising::Couplings::Sparse(_)));
        let width = [3usize, 5, 7, 17][width_idx];
        assert_oracle_replay_at_width(&model, seed, width);
    }

    /// The batched Metropolis sweep replays the serial machine too.
    #[test]
    fn batched_metropolis_replays_serial(
        model in arb_model(),
        seed in 0u64..200,
    ) {
        let seeds: Vec<u64> = (0..4).map(|r| derive_seed(seed, r)).collect();
        let mut batch = ReplicaBatch::new(&model, &seeds);
        let mut serial: Vec<(PbitMachine, NoiseSource)> = seeds
            .iter()
            .map(|&s| {
                let mut rng = new_rng(s);
                let machine = PbitMachine::new(&model, &mut rng);
                (machine, NoiseSource::new(rng))
            })
            .collect();
        for sweep in 0..12 {
            let beta = 0.3 * sweep as f64;
            batch.metropolis_sweep_uniform(&model, beta);
            for (r, (machine, noise)) in serial.iter_mut().enumerate() {
                machine.metropolis_sweep_buffered(&model, beta, noise);
                prop_assert_eq!(batch.state(r), machine.state(), "lane {}", r);
                prop_assert_eq!(batch.energy(r).to_bits(), machine.energy().to_bits());
            }
        }
    }
}

proptest! {
    /// The incremental energy and local-field books never drift from the
    /// model under either dynamics.
    #[test]
    fn books_never_drift(model in arb_model(), seed in 0u64..1000, beta in 0.0..8.0f64) {
        let mut rng = new_rng(seed);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..30 {
            if sweep % 2 == 0 {
                machine.sweep(&model, beta, &mut rng);
            } else {
                machine.metropolis_sweep(&model, beta, &mut rng);
            }
            prop_assert!((machine.energy() - model.energy(&machine.state())).abs() < 1e-9);
        }
        for i in 0..model.len() {
            let expected = model.local_field(&machine.state(), i);
            prop_assert!((machine.local_field(i) - expected).abs() < 1e-9);
        }
    }

    /// Greedy sweeps are monotone and terminate at a 1-flip local optimum.
    #[test]
    fn greedy_descends_to_local_optimum(model in arb_model(), seed in 0u64..1000) {
        let mut rng = new_rng(seed);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut prev = machine.energy();
        for _ in 0..200 {
            if machine.greedy_sweep(&model) == 0 {
                break;
            }
            prop_assert!(machine.energy() <= prev + 1e-12);
            prev = machine.energy();
        }
        for i in 0..model.len() {
            prop_assert!(model.delta_energy(&machine.state(), i) >= -1e-9);
        }
    }

    /// Solver outcomes are internally consistent for both dynamics, and the
    /// annealed best never beats the brute-force ground state.
    #[test]
    fn solve_outcomes_are_sound(
        model in arb_model(),
        seed in 0u64..500,
        metropolis in proptest::bool::ANY,
    ) {
        let ground = (0u64..(1 << model.len()))
            .map(|m| model.energy(&BinaryState::from_mask(m, model.len()).to_spins()))
            .fold(f64::INFINITY, f64::min);
        let dynamics = if metropolis { Dynamics::Metropolis } else { Dynamics::Gibbs };
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 40, seed)
            .with_dynamics(dynamics);
        let out = sa.solve(&model);
        prop_assert!(out.best_energy >= ground - 1e-9, "below the ground state");
        prop_assert!(out.best_energy <= out.last_energy + 1e-9);
        prop_assert!((model.energy(&out.best) - out.best_energy).abs() < 1e-9);
        prop_assert_eq!(out.mcs, 40);
    }

    /// Every schedule is bounded by its endpoints and total-length invariant.
    #[test]
    fn schedules_are_bounded(
        beta_max in 0.1..50.0f64,
        total in 1usize..500,
        step_frac in 0.0..1.0f64,
    ) {
        let step = ((total - 1) as f64 * step_frac) as usize;
        for schedule in [
            BetaSchedule::linear(beta_max),
            BetaSchedule::geometric(0.05, beta_max.max(0.06)),
            BetaSchedule::constant(beta_max),
        ] {
            let b = schedule.beta_at(step, total);
            prop_assert!(b >= 0.0);
            prop_assert!(b <= schedule.beta_final() + 1e-12);
        }
    }
}
