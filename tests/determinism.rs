//! Determinism guarantees across the whole stack: identical seeds must give
//! bit-identical experiments (the property every golden table and figure in
//! `crates/bench/tests/golden/` relies on), and different seeds must
//! actually diversify.

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_heuristics::ga::{ChuBeasleyGa, GaConfig};
use saim_knapsack::{generate, io};
use saim_machine::{
    derive_seed, BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, IsingSolver,
    ParallelTempering, PtConfig, SimulatedAnnealing,
};

#[test]
fn generators_replay_and_diverge() {
    assert_eq!(
        generate::qkp(40, 0.5, 7).expect("valid"),
        generate::qkp(40, 0.5, 7).expect("valid")
    );
    assert_ne!(
        generate::qkp(40, 0.5, 7).expect("valid"),
        generate::qkp(40, 0.5, 8).expect("valid")
    );
    assert_eq!(
        generate::mkp(30, 4, 0.25, 3).expect("valid"),
        generate::mkp(30, 4, 0.25, 3).expect("valid")
    );
}

#[test]
fn saim_outcome_is_bit_identical_under_fixed_seed() {
    let inst = generate::qkp(30, 0.5, 12).expect("valid");
    let enc = inst.encode().expect("encodes");
    let run = |seed: u64| {
        let config = SaimConfig {
            penalty: enc.penalty_for_alpha(2.0),
            eta: 20.0,
            iterations: 40,
            seed,
        };
        let solver = SimulatedAnnealing::new(BetaSchedule::linear(10.0), 300, seed);
        SaimRunner::new(config).run(&enc, solver)
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a, b);
    // serialized forms are identical too (what a saved trace records)
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes")
    );
    let c = run(6);
    assert_ne!(a.records, c.records, "different seeds must differ");
}

#[test]
fn pt_outcome_is_invariant_in_thread_count() {
    // the round-parallel PT engine must produce bit-identical outcomes for
    // 1, 2 and 8 worker threads (and auto-sizing)
    let inst = generate::qkp(25, 0.5, 14).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(40.0))
        .expect("valid penalty")
        .to_ising();
    let config = |threads: usize| PtConfig {
        replicas: 6,
        sweeps: 130,
        swap_interval: 10,
        threads,
        ..PtConfig::default()
    };
    let serial = ParallelTempering::new(config(1), 77).solve(&model);
    for threads in [2, 8, 0] {
        let parallel = ParallelTempering::new(config(threads), 77).solve(&model);
        assert_eq!(parallel, serial, "threads = {threads}");
    }
}

#[test]
fn pt_parallel_engine_matches_serial_reference_replay() {
    // a from-scratch serial replay of the documented RNG-stream layout and
    // swap schedule — ladder slot k on stream derive(derive(seed, batch), k),
    // the swap phase on stream index R, even pairs on even rounds, no
    // exchange after the final round — must reproduce the engine's parallel
    // outcome exactly, with no engine machinery at all (the PT analogue of
    // the ensemble replica replay)
    use rand::Rng;
    use saim_machine::{new_rng, PbitMachine};

    let inst = generate::qkp(20, 0.5, 5).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(40.0))
        .expect("valid penalty")
        .to_ising();
    let cfg = PtConfig {
        replicas: 5,
        sweeps: 97, // deliberately not a multiple of the swap interval
        swap_interval: 10,
        threads: 8,
        ..PtConfig::default()
    };
    let seed = 123u64;
    let engine = ParallelTempering::new(cfg, seed).solve(&model);

    let ladder = cfg.ladder();
    let r = cfg.replicas;
    let batch_seed = derive_seed(seed, 0);
    let mut machines = Vec::new();
    let mut rngs = Vec::new();
    let mut bests: Vec<(f64, saim_ising::SpinState)> = Vec::new();
    for k in 0..r {
        let mut rng = new_rng(derive_seed(batch_seed, k as u64));
        let machine = PbitMachine::new(&model, &mut rng);
        bests.push((machine.energy(), machine.state()));
        machines.push(machine);
        rngs.push(rng);
    }
    let mut swap_rng = new_rng(derive_seed(batch_seed, r as u64));

    let mut done = 0;
    let mut round = 0usize;
    while done < cfg.sweeps {
        let len = cfg.swap_interval.min(cfg.sweeps - done);
        for k in 0..r {
            for _ in 0..len {
                machines[k].sweep(&model, ladder[k], &mut rngs[k]);
                if machines[k].energy() < bests[k].0 {
                    bests[k] = (machines[k].energy(), machines[k].state());
                }
            }
        }
        done += len;
        if done == cfg.sweeps {
            break; // no exchange follows the final round
        }
        let mut k = round % 2;
        while k + 1 < r {
            let accept_ln =
                (ladder[k] - ladder[k + 1]) * (machines[k].energy() - machines[k + 1].energy());
            if accept_ln >= 0.0 || swap_rng.gen::<f64>() < accept_ln.exp() {
                machines.swap(k, k + 1);
            }
            k += 2;
        }
        round += 1;
    }

    let (mut best_energy, mut best_state) = (f64::INFINITY, None);
    for (e, s) in &bests {
        if *e < best_energy {
            best_energy = *e;
            best_state = Some(s.clone());
        }
    }
    assert_eq!(engine.best_energy, best_energy);
    assert_eq!(engine.best, best_state.expect("at least one slot"));
    assert_eq!(engine.last, machines[r - 1].state());
    assert_eq!(engine.last_energy, machines[r - 1].energy());
    assert_eq!(engine.mcs, (cfg.sweeps * r) as u64);
}

#[test]
fn pt_and_ga_replay_under_fixed_seed() {
    let inst = generate::qkp(20, 0.5, 3).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(40.0))
        .expect("valid penalty")
        .to_ising();
    let cfg = PtConfig {
        replicas: 6,
        sweeps: 120,
        ..PtConfig::default()
    };
    let a = ParallelTempering::new(cfg, 9).solve(&model);
    let b = ParallelTempering::new(cfg, 9).solve(&model);
    assert_eq!(a, b);

    let mkp = generate::mkp(20, 3, 0.5, 4).expect("valid");
    let ga_cfg = GaConfig {
        population: 20,
        generations: 300,
        ..GaConfig::default()
    };
    assert_eq!(
        ChuBeasleyGa::new(ga_cfg, 1).run(&mkp),
        ChuBeasleyGa::new(ga_cfg, 1).run(&mkp)
    );
}

#[test]
fn ensemble_outcome_is_invariant_in_thread_count() {
    // the replica-ensemble engine must produce bit-identical outcomes for
    // 1, 2 and N rayon-style worker threads, and each replica must replay a
    // serial reference run of its derived stream
    let inst = generate::qkp(25, 0.5, 21).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();
    let config = |threads: usize| EnsembleConfig {
        replicas: 6,
        threads,
        batch_width: 0,
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: 150,
        dynamics: Dynamics::Gibbs,
    };
    let serial = EnsembleAnnealer::new(config(1), 77).solve_ensemble(&model);
    for threads in [2, 4, 0] {
        let parallel = EnsembleAnnealer::new(config(threads), 77).solve_ensemble(&model);
        assert_eq!(parallel, serial, "threads = {threads}");
    }
    // serial reference: replica i is exactly one SimulatedAnnealing run of
    // the derived seed, executed with no ensemble machinery at all
    for r in &serial.replicas {
        let reference =
            SimulatedAnnealing::new(BetaSchedule::linear(10.0), 150, r.seed).solve(&model);
        assert_eq!(r.outcome, reference, "replica {}", r.replica);
    }
}

#[test]
fn ensemble_outcome_is_invariant_in_batch_width() {
    // the batched SoA sweep engine must leave every replica's trajectory
    // untouched no matter how many lanes share a batch — R runs grouped
    // 1-wide, 3-wide, 8-wide or 16-wide read bit-identically
    let inst = generate::qkp(22, 0.5, 33).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();
    let config = |batch_width: usize| EnsembleConfig {
        replicas: 6,
        threads: 1,
        batch_width,
        schedule: BetaSchedule::linear(8.0),
        mcs_per_run: 120,
        dynamics: Dynamics::Gibbs,
    };
    let reference = EnsembleAnnealer::new(config(1), 55).solve_ensemble(&model);
    for batch_width in [2, 3, 8, 16, 0] {
        let got = EnsembleAnnealer::new(config(batch_width), 55).solve_ensemble(&model);
        assert_eq!(got, reference, "batch_width = {batch_width}");
    }
    // and the one-lane groups replay the serial SimulatedAnnealing
    for r in &reference.replicas {
        let serial = SimulatedAnnealing::new(BetaSchedule::linear(8.0), 120, r.seed).solve(&model);
        assert_eq!(r.outcome, serial, "replica {}", r.replica);
    }
}

#[test]
fn hot_regime_engines_are_invariant_in_thread_count_and_width() {
    // β ∈ {2, 4, 8}: the hot regime the bracket decision kernel
    // accelerates — exactly what the deep-quench schedules above never
    // exercise. Constant-β ensembles at every batch width and thread
    // count, plus the serial SimulatedAnnealing replica replay, must stay
    // bit-identical.
    let inst = generate::qkp(24, 0.5, 61).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();
    for beta in [2.0, 4.0, 8.0] {
        let config = |threads: usize, batch_width: usize| EnsembleConfig {
            replicas: 5,
            threads,
            batch_width,
            schedule: BetaSchedule::constant(beta),
            mcs_per_run: 120,
            dynamics: Dynamics::Gibbs,
        };
        let reference = EnsembleAnnealer::new(config(1, 1), 19).solve_ensemble(&model);
        for (threads, batch_width) in [(2, 0), (8, 8), (0, 2), (1, 16)] {
            let got =
                EnsembleAnnealer::new(config(threads, batch_width), 19).solve_ensemble(&model);
            assert_eq!(
                got, reference,
                "beta = {beta}, threads = {threads}, width = {batch_width}"
            );
        }
        for r in &reference.replicas {
            let serial =
                SimulatedAnnealing::new(BetaSchedule::constant(beta), 120, r.seed).solve(&model);
            assert_eq!(r.outcome, serial, "beta = {beta}, replica {}", r.replica);
        }
    }
}

#[test]
fn hot_regime_pt_is_invariant_in_thread_count() {
    // a ladder capped at β = 8 keeps every slot in the hot regime for the
    // whole run — the bracket kernel decides nearly every update
    let inst = generate::qkp(22, 0.5, 62).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();
    let config = |threads: usize| PtConfig {
        replicas: 6,
        sweeps: 110,
        swap_interval: 10,
        beta_min: 0.5,
        beta_max: 8.0,
        threads,
    };
    let serial = ParallelTempering::new(config(1), 29).solve(&model);
    for threads in [2, 8, 0] {
        let parallel = ParallelTempering::new(config(threads), 29).solve(&model);
        assert_eq!(parallel, serial, "threads = {threads}");
    }
}

#[test]
fn engines_are_invariant_at_env_selected_thread_count() {
    // CI runs this test in a matrix over SAIM_DETERMINISM_THREADS=1/2/8;
    // whatever the leg, the engines must reproduce the single-thread result
    let threads: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let inst = generate::qkp(20, 0.5, 41).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();

    let ens_config = |threads: usize| EnsembleConfig {
        replicas: 5,
        threads,
        batch_width: 0,
        schedule: BetaSchedule::linear(9.0),
        mcs_per_run: 80,
        dynamics: Dynamics::Gibbs,
    };
    assert_eq!(
        EnsembleAnnealer::new(ens_config(threads), 13).solve_ensemble(&model),
        EnsembleAnnealer::new(ens_config(1), 13).solve_ensemble(&model),
        "ensemble at {threads} threads"
    );

    let pt_config = |threads: usize| PtConfig {
        replicas: 10,
        sweeps: 90,
        swap_interval: 10,
        threads,
        ..PtConfig::default()
    };
    assert_eq!(
        ParallelTempering::new(pt_config(threads), 13).solve(&model),
        ParallelTempering::new(pt_config(1), 13).solve(&model),
        "PT at {threads} threads"
    );

    // hot-regime legs (β ≤ 8) in the same env-selected matrix: the bracket
    // decision kernel must stay thread-count-invariant where it actually
    // fires, not just on the deep-quench schedules above
    let hot_ens = |threads: usize| EnsembleConfig {
        replicas: 5,
        threads,
        batch_width: 0,
        schedule: BetaSchedule::constant(4.0),
        mcs_per_run: 80,
        dynamics: Dynamics::Gibbs,
    };
    assert_eq!(
        EnsembleAnnealer::new(hot_ens(threads), 17).solve_ensemble(&model),
        EnsembleAnnealer::new(hot_ens(1), 17).solve_ensemble(&model),
        "hot ensemble at {threads} threads"
    );
    let hot_pt = |threads: usize| PtConfig {
        replicas: 6,
        sweeps: 70,
        swap_interval: 10,
        beta_min: 0.5,
        beta_max: 8.0,
        threads,
    };
    assert_eq!(
        ParallelTempering::new(hot_pt(threads), 23).solve(&model),
        ParallelTempering::new(hot_pt(1), 23).solve(&model),
        "hot PT at {threads} threads"
    );

    // batch legs in the same env-selected matrix: the lane-major batched
    // sweep at widths 2 and 16 must reproduce the one-lane groups at this
    // thread count, and those the serial annealer, on an anneal ramp and a
    // hot hold alike
    for schedule in [BetaSchedule::linear(9.0), BetaSchedule::constant(4.0)] {
        let batch_ens = |threads: usize, batch_width: usize| EnsembleConfig {
            replicas: 5,
            threads,
            batch_width,
            schedule,
            mcs_per_run: 80,
            dynamics: Dynamics::Gibbs,
        };
        let reference = EnsembleAnnealer::new(batch_ens(1, 1), 37).solve_ensemble(&model);
        for r in &reference.replicas {
            let serial = SimulatedAnnealing::new(schedule, 80, r.seed).solve(&model);
            assert_eq!(r.outcome, serial, "replica {}, {schedule:?}", r.replica);
        }
        for batch_width in [2, 16] {
            assert_eq!(
                EnsembleAnnealer::new(batch_ens(threads, batch_width), 37).solve_ensemble(&model),
                reference,
                "batch width {batch_width} at {threads} threads, {schedule:?}"
            );
        }
    }
}

#[test]
fn saim_ensemble_path_is_invariant_in_thread_count() {
    // the full SAIM outer loop on the ensemble engine: root seed comes from
    // SaimConfig::seed, outcomes must not depend on worker threads
    let inst = generate::qkp(20, 0.5, 9).expect("valid");
    let enc = inst.encode().expect("encodes");
    let config = SaimConfig {
        penalty: enc.penalty_for_alpha(2.0),
        eta: 20.0,
        iterations: 15,
        seed: 31,
    };
    let run = |threads: usize| {
        let ensemble = EnsembleConfig {
            replicas: 4,
            threads,
            batch_width: 0,
            schedule: BetaSchedule::linear(10.0),
            mcs_per_run: 100,
            dynamics: Dynamics::Gibbs,
        };
        SaimRunner::new(config).run(&enc, EnsembleAnnealer::new(ensemble, config.seed))
    };
    let serial = run(1);
    assert_eq!(run(2), serial);
    assert_eq!(run(0), serial);
    assert_eq!(serial.mcs_total, 15 * 4 * 100);
}

/// SAIM's call pattern: one annealer makes consecutive solves while the
/// λ ascent shifts the model's h between them. Each solve must replay a
/// fresh serial machine on the annealer's continued stream: the buffer
/// reset, `n` coin flips from the raw stream, buffered sweeps, and the
/// strict-`<` best rule. The h shift moves the drive bounds, so a cache
/// kept across solves would show here.
#[test]
fn sa_consecutive_solves_under_lambda_steps_replay_a_serial_machine() {
    use saim_core::LagrangianSystem;
    use saim_machine::{NoiseSource, PbitMachine, SolveOutcome};
    const MCS: usize = 120;
    let qkp = generate::qkp(30, 0.5, 77)
        .expect("valid")
        .encode()
        .expect("encodes");
    let mkp = generate::mkp_with_max_weight(20, 5, 0.5, 100, 77)
        .expect("valid")
        .encode()
        .expect("encodes");
    let qkp_sys = LagrangianSystem::new(&qkp, qkp.penalty_for_alpha(2.0)).expect("valid");
    let mkp_sys = LagrangianSystem::new(&mkp, mkp.penalty_for_alpha(5.0)).expect("valid");
    // most items strongly wanted, a few barely, and one loose count
    // constraint: at a held β a lane quenches but for the weak items, so
    // the settled scan skips every strong item and decides only the
    // weak ones
    let biased = {
        let n = 24;
        let mut f = saim_ising::QuboBuilder::new(n);
        for i in 0..n {
            let wanted = if i % 10 == 5 { -1.0 } else { -60.0 - i as f64 };
            f.add_linear(i, wanted).expect("in range");
        }
        let count = saim_core::LinearConstraint::new(vec![1.0; n], -20.0).expect("valid");
        saim_core::BinaryProblem::new(f.build(), vec![count]).expect("valid")
    };
    let biased_sys = LagrangianSystem::new(&biased, 0.05).expect("valid");
    let cases = [
        (&qkp_sys, BetaSchedule::linear(10.0), Dynamics::Gibbs),
        (&qkp_sys, BetaSchedule::linear(10.0), Dynamics::Metropolis),
        (&mkp_sys, BetaSchedule::linear(50.0), Dynamics::Gibbs),
        (&biased_sys, BetaSchedule::constant(2.0), Dynamics::Gibbs),
    ];
    for (sys, schedule, dynamics) in cases {
        let mut sys = sys.clone();
        let mut sa = SimulatedAnnealing::new(schedule, MCS, 5).with_dynamics(dynamics);
        let mut noise = NoiseSource::from_seed(5);
        for step in [0.0, 8.0, 8.0, 1.0] {
            let lambda = vec![step; sys.num_constraints()];
            sys.set_lambda(&lambda).expect("finite");
            let model = sys.model();
            let got = sa.solve(model);

            noise.reset();
            let mut machine = PbitMachine::new(model, noise.rng_mut());
            let (mut best_energy, mut best) = (machine.energy(), machine.state());
            for step in 0..MCS {
                let beta = schedule.beta_at(step, MCS);
                match dynamics {
                    Dynamics::Gibbs => machine.sweep_buffered(model, beta, &mut noise),
                    Dynamics::Metropolis => {
                        machine.metropolis_sweep_buffered(model, beta, &mut noise)
                    }
                };
                if machine.energy() < best_energy {
                    best_energy = machine.energy();
                    best = machine.state();
                }
            }
            let want = SolveOutcome {
                last: machine.state(),
                last_energy: machine.energy(),
                best,
                best_energy,
                mcs: MCS as u64,
            };
            assert_eq!(got, want, "{schedule:?} {dynamics:?} at λ = {lambda:?}");
        }
    }
}

#[test]
fn seed_derivation_isolates_solver_streams() {
    // two experiment components seeded from the same master must not share
    // RNG streams
    let master = 42;
    let s1 = derive_seed(master, 1);
    let s2 = derive_seed(master, 2);
    assert_ne!(s1, s2);
    let inst = generate::qkp(15, 0.5, master).expect("valid");
    let enc = inst.encode().expect("encodes");
    let model = saim_core::penalty_qubo(&enc, 1.0)
        .expect("valid")
        .to_ising();
    let out1 = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 50, s1).solve(&model);
    let out2 = SimulatedAnnealing::new(BetaSchedule::linear(5.0), 50, s2).solve(&model);
    assert_ne!(
        out1.last, out2.last,
        "derived streams should explore differently"
    );
}

#[test]
fn instance_io_roundtrips_preserve_experiment_inputs() {
    // tables regenerate from text instances exactly
    let q = generate::qkp(35, 0.25, 100).expect("valid");
    let q2 = io::read_qkp(&io::write_qkp(&q)).expect("parses");
    assert_eq!(q, q2);
    let enc1 = q.encode().expect("encodes");
    let enc2 = q2.encode().expect("encodes");
    assert_eq!(
        saim_core::ConstrainedProblem::objective(&enc1),
        saim_core::ConstrainedProblem::objective(&enc2)
    );
}

/// One engine's pinned trajectory on one model: the bit patterns of a full
/// run's best and last energies, FNV digests of its best and last states,
/// its sweep count, and the lifetime flip count of a second run stopped by
/// a checkpoint (at the last boundary before its end; after the first sweep
/// for greedy descent, which converges early).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    best_bits: u64,
    last_bits: u64,
    best_digest: u64,
    last_digest: u64,
    mcs: u64,
    flips: u64,
}

fn golden_of(outcome: &saim_machine::SolveOutcome, flips: u64) -> Golden {
    let digest = |s: &saim_ising::SpinState| {
        let bytes: Vec<u8> = s.values().iter().map(|&v| v as u8).collect();
        saim_machine::checkpoint::digest64(&bytes)
    };
    Golden {
        best_bits: outcome.best_energy.to_bits(),
        last_bits: outcome.last_energy.to_bits(),
        best_digest: digest(&outcome.best),
        last_digest: digest(&outcome.last),
        mcs: outcome.mcs,
        flips,
    }
}

/// A controller that checkpoints once `sweeps` sweeps are done.
fn stop_at(sweeps: u64) -> saim_machine::RunController {
    saim_machine::RunController::unlimited()
        .with_poll_interval(1)
        .with_stop_after(sweeps)
}

/// Every engine's trajectory on `model` under a linear schedule to
/// `beta_max`: SA with Gibbs and with Metropolis dynamics and greedy
/// descent (each pinned on its second solve, so the reused machine's
/// re-randomization is covered), a 3-replica ensemble and a 4-slot PT.
fn golden_rows(model: &saim_ising::IsingModel, beta_max: f64, threads: usize) -> [Golden; 5] {
    use saim_machine::checkpoint::GroupState;
    use saim_machine::GreedyDescent;
    const MCS: usize = 200;
    let schedule = BetaSchedule::linear(beta_max);
    let sa = |dynamics: Dynamics| {
        let fresh = || SimulatedAnnealing::new(schedule, MCS, 7).with_dynamics(dynamics);
        let mut full = fresh();
        full.solve(model);
        let outcome = full.solve(model);
        let mut stopped = fresh();
        stopped.solve(model);
        let state = stopped
            .solve_controlled(model, &stop_at(MCS as u64 - 1))
            .state
            .expect("checkpointed");
        golden_of(&outcome, state.machine.flips)
    };
    let descent = {
        let mut full = GreedyDescent::new(11);
        full.solve(model);
        let outcome = full.solve(model);
        let mut stopped = GreedyDescent::new(11);
        stopped.solve(model);
        let state = stopped
            .solve_controlled(model, &stop_at(1))
            .state
            .expect("checkpointed");
        golden_of(&outcome, state.machine.flips)
    };
    let ensemble = {
        let config = EnsembleConfig {
            replicas: 3,
            threads,
            batch_width: 0,
            schedule,
            mcs_per_run: MCS,
            dynamics: Dynamics::Gibbs,
        };
        let outcome = EnsembleAnnealer::new(config, 13).solve(model);
        let state = EnsembleAnnealer::new(config, 13)
            .solve_controlled(model, &stop_at(MCS as u64 - 1))
            .state
            .expect("checkpointed");
        let flips = state
            .groups
            .iter()
            .map(|g| match g {
                GroupState::Batch { lanes, .. } => {
                    lanes.iter().map(|l| l.machine.flips).sum::<u64>()
                }
                other => panic!("unexpected group image {other:?}"),
            })
            .sum();
        golden_of(&outcome, flips)
    };
    let pt = {
        let config = PtConfig {
            replicas: 4,
            sweeps: MCS,
            swap_interval: 10,
            beta_min: 0.1,
            beta_max,
            threads,
        };
        let outcome = ParallelTempering::new(config, 17).solve(model);
        let state = ParallelTempering::new(config, 17)
            .solve_controlled(model, &stop_at((MCS - 10) as u64))
            .state
            .expect("checkpointed");
        let flips = state.lanes.iter().map(|l| l.machine.flips).sum();
        golden_of(&outcome, flips)
    };
    [
        sa(Dynamics::Gibbs),
        sa(Dynamics::Metropolis),
        descent,
        ensemble,
        pt,
    ]
}

#[test]
fn golden_trajectories_match_recorded_constants() {
    // Bit-level pins of every engine's trajectory, recorded once and never
    // regenerated for a refactor: the batch-vs-serial replay tests compare
    // two callers of one lane kernel, so a kernel change that moves both
    // sides passes them; these constants (and bracket_cert's exact-tanh
    // oracle proptests) catch it. Hot penalty-QKP (β 0→10: the bracket
    // kernel decides most updates) and deep penalty-MKP (β 0→50: the
    // settled scan skips most spins), at the matrix's thread count.
    let threads: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let qkp = generate::qkp(40, 0.5, 2026).expect("valid");
    let qkp_enc = qkp.encode().expect("encodes");
    let hot = saim_core::penalty_qubo(&qkp_enc, qkp_enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising();
    let mkp = generate::mkp_with_max_weight(30, 5, 0.5, 100, 2026).expect("valid");
    let mkp_enc = mkp.encode().expect("encodes");
    let deep = saim_core::penalty_qubo(&mkp_enc, mkp_enc.penalty_for_alpha(5.0))
        .expect("valid penalty")
        .to_ising();
    let got = [
        golden_rows(&hot, 10.0, threads),
        golden_rows(&deep, 50.0, threads),
    ];
    assert_eq!(got, GOLDEN, "recorded: {got:#x?}");
}

/// Recorded once, while the serial machine and the batch lanes still ran
/// separate copies of the lane kernel; a change that moves any of them
/// changes a trajectory and must not be absorbed by re-recording.
const GOLDEN: [[Golden; 5]; 2] = [
    // hot penalty-QKP, β 0→10
    [
        // SA Gibbs
        Golden {
            best_bits: 0xc068_f5b7_bfe3_ffcc,
            last_bits: 0xc068_f534_7ef4_c084,
            best_digest: 0x98c6_92e0_805f_a143,
            last_digest: 0x3fc6_429c_eed3_7519,
            mcs: 200,
            flips: 1256,
        },
        // SA Metropolis
        Golden {
            best_bits: 0xc068_f5b7_bfe3_ffd1,
            last_bits: 0xc068_f5b7_bfe3_ffd1,
            best_digest: 0x98c6_92e0_805f_a143,
            last_digest: 0x98c6_92e0_805f_a143,
            mcs: 200,
            flips: 2062,
        },
        // greedy descent
        Golden {
            best_bits: 0xc068_f5b7_bfe3_ffca,
            last_bits: 0xc068_f5b7_bfe3_ffca,
            best_digest: 0x98c6_92e0_805f_a143,
            last_digest: 0x98c6_92e0_805f_a143,
            mcs: 2,
            flips: 50,
        },
        // 3-replica ensemble
        Golden {
            best_bits: 0xc068_f5b7_bfe3_ffd6,
            last_bits: 0xc068_f5b7_bfe3_ffd6,
            best_digest: 0x98c6_92e0_805f_a143,
            last_digest: 0x98c6_92e0_805f_a143,
            mcs: 600,
            flips: 1892,
        },
        // 4-slot PT
        Golden {
            best_bits: 0xc068_f5b7_bfe3_ffd0,
            last_bits: 0xc068_f5b7_bfe3_ffd0,
            best_digest: 0x98c6_92e0_805f_a143,
            last_digest: 0x98c6_92e0_805f_a143,
            mcs: 800,
            flips: 6204,
        },
    ],
    // deep penalty-MKP, β 0→50
    [
        // SA Gibbs
        Golden {
            best_bits: 0xc028_0c05_b152_73b3,
            last_bits: 0xc027_a0d3_c0df_fee9,
            best_digest: 0xe681_bc65_a29f_352d,
            last_digest: 0x3590_0eb8_cf45_4027,
            mcs: 200,
            flips: 6457,
        },
        // SA Metropolis
        Golden {
            best_bits: 0xc028_014d_f86f_bbd7,
            last_bits: 0xc027_c9f8_e200_9bb5,
            best_digest: 0x157d_b793_9bb0_ebab,
            last_digest: 0xe22b_6802_5df9_fe75,
            mcs: 200,
            flips: 10997,
        },
        // greedy descent
        Golden {
            best_bits: 0xc01e_74af_ea9e_722e,
            last_bits: 0xc01e_74af_ea9e_722e,
            best_digest: 0x6157_ef6d_47f4_ffeb,
            last_digest: 0x6157_ef6d_47f4_ffeb,
            mcs: 11,
            flips: 134,
        },
        // 3-replica ensemble
        Golden {
            best_bits: 0xc028_10d9_d4a9_001d,
            last_bits: 0xc027_f49f_7e76_495f,
            best_digest: 0x1079_171b_aeb9_8957,
            last_digest: 0xc930_bf19_824f_fd51,
            mcs: 600,
            flips: 9872,
        },
        // 4-slot PT
        Golden {
            best_bits: 0xc028_0fd7_c28f_c6be,
            last_bits: 0xc028_0496_a549_3310,
            best_digest: 0x677b_11c5_e104_c229,
            last_digest: 0xd62b_aaf7_288d_7e31,
            mcs: 800,
            flips: 21112,
        },
    ],
];
