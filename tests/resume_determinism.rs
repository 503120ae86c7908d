//! Resume determinism: an engine interrupted at an arbitrary sweep (or
//! round) and resumed from its checkpoint must finish bit-identically to a
//! run that was never interrupted — the property that makes the job
//! service's graceful drain safe to use at all. Covers every engine, hot
//! (β ∈ {2, 8}) and deep-quench schedule legs, batch widths 1/4/8, the
//! CI-matrix-selected worker count (`SAIM_DETERMINISM_THREADS` = 1/2/8),
//! the on-disk checkpoint round trip at every width, and fixture
//! checkpoints written by older builds — the spin-major batch layout,
//! one-lane ensemble groups on the serial annealer, and a greedy descent
//! on the serial machine — restoring under the lane-major batch.

use proptest::prelude::*;
use saim_core::ConstrainedProblem;
use saim_knapsack::generate;
use saim_machine::service::{JobSpec, SolverSpec};
use saim_machine::{
    BetaSchedule, Checkpoint, Dynamics, EnsembleAnnealer, EnsembleConfig, GreedyDescent,
    IsingSolver, OutcomeKind, ParallelTempering, PtConfig, RunController, SimulatedAnnealing,
};
use std::path::PathBuf;

/// The CI matrix leg's worker count (defaults to 2 for local runs).
fn env_threads() -> usize {
    std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// A QKP-derived Ising model — the instance family every other determinism
/// suite in this directory uses.
fn qkp_model(n: usize, seed: u64) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, 0.5, seed).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

/// The schedule legs under test: two hot constants (where the bracket
/// decision kernel fires on nearly every update) and a deep quench.
fn legs() -> [BetaSchedule; 3] {
    [
        BetaSchedule::constant(2.0),
        BetaSchedule::constant(8.0),
        BetaSchedule::linear(12.0),
    ]
}

/// A controller that deterministically interrupts after `stop` sweeps.
fn interrupt_at(stop: u64) -> RunController {
    RunController::unlimited()
        .with_stop_after(stop)
        .with_poll_interval(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SA interrupted at a *random* sweep of a random schedule leg resumes
    /// to the exact uninterrupted outcome — states, energies, and the
    /// full-schedule `mcs` count included.
    #[test]
    fn sa_resumes_bit_identically_from_any_sweep(stop in 1u64..120, leg in 0usize..3) {
        let model = qkp_model(20, 77);
        let schedule = legs()[leg];
        let mcs = 120;
        let oracle = SimulatedAnnealing::new(schedule, mcs, 5).solve(&model);

        let cut = SimulatedAnnealing::new(schedule, mcs, 5)
            .solve_controlled(&model, &interrupt_at(stop));
        prop_assert_eq!(cut.status, OutcomeKind::Checkpointed);
        prop_assert_eq!(cut.outcome.mcs, stop);
        let state = cut.state.expect("a checkpointed run carries its state");

        let resumed = SimulatedAnnealing::new(schedule, mcs, 5)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("the state fits the solver it came from");
        prop_assert_eq!(resumed.status, OutcomeKind::Completed);
        prop_assert_eq!(resumed.outcome, oracle);
    }

    /// PT interrupted at a random point lands on a round boundary and
    /// resumes to the exact uninterrupted ladder — on both the default
    /// deep ladder and a hot β ≤ 8 ladder, at the CI-selected thread count.
    #[test]
    // round boundaries land at 10, 20, ..., 90 sweeps; the final (97-sweep)
    // boundary never checkpoints, so stops past 90 could only complete
    fn pt_resumes_bit_identically_from_any_round(stop in 1usize..91, hot in proptest::bool::ANY) {
        let model = qkp_model(18, 14);
        let config = PtConfig {
            replicas: 5,
            sweeps: 97, // deliberately not a multiple of the swap interval
            swap_interval: 10,
            threads: env_threads(),
            beta_max: if hot { 8.0 } else { PtConfig::default().beta_max },
            ..PtConfig::default()
        };
        let oracle = ParallelTempering::new(config, 123).solve(&model);

        let cut = ParallelTempering::new(config, 123)
            .solve_controlled(&model, &interrupt_at(stop as u64));
        prop_assert_eq!(cut.status, OutcomeKind::Checkpointed);
        let state = cut.state.expect("a checkpointed run carries its state");

        let resumed = ParallelTempering::new(config, 123)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("the state fits the solver it came from");
        prop_assert_eq!(resumed.status, OutcomeKind::Completed);
        prop_assert_eq!(resumed.outcome, oracle);
    }
}

#[test]
fn ensemble_resumes_bit_identically_across_widths_and_legs() {
    // every (schedule leg × batch width × interrupt point) cell must land
    // on the same reduced outcome as the uninterrupted run — lane grouping
    // is fixed by the checkpoint, so the width only shapes the interrupt
    let model = qkp_model(20, 41);
    let threads = env_threads();
    for schedule in legs() {
        for batch_width in [1usize, 4, 8] {
            let config = EnsembleConfig {
                replicas: 5,
                threads,
                batch_width,
                schedule,
                mcs_per_run: 120,
                dynamics: Dynamics::Gibbs,
            };
            let oracle = EnsembleAnnealer::new(config, 13).solve(&model);
            for stop in [1u64, 37, 90, 119] {
                let cut =
                    EnsembleAnnealer::new(config, 13).solve_controlled(&model, &interrupt_at(stop));
                assert_eq!(
                    cut.status,
                    OutcomeKind::Checkpointed,
                    "width {batch_width}, stop {stop}"
                );
                let state = cut.state.expect("a checkpointed run carries its state");

                let resumed = EnsembleAnnealer::new(config, 13)
                    .resume_controlled(&model, &state, &RunController::unlimited())
                    .expect("the state fits the ensemble it came from");
                assert_eq!(resumed.status, OutcomeKind::Completed);
                assert_eq!(resumed.outcome, oracle, "width {batch_width}, stop {stop}");
            }
        }
    }
}

#[test]
fn ensemble_checkpoints_resume_at_any_worker_count() {
    // a checkpoint taken under one thread count must finish identically
    // under 1, 2, and 8 resuming workers — group membership travels in the
    // state image, so the pool only changes which thread finishes which lane
    let model = qkp_model(20, 52);
    let config = |threads: usize| EnsembleConfig {
        replicas: 6,
        threads,
        batch_width: 4,
        schedule: BetaSchedule::constant(8.0),
        mcs_per_run: 100,
        dynamics: Dynamics::Gibbs,
    };
    let oracle = EnsembleAnnealer::new(config(1), 29).solve(&model);
    let cut = EnsembleAnnealer::new(config(env_threads()), 29)
        .solve_controlled(&model, &interrupt_at(43));
    assert_eq!(cut.status, OutcomeKind::Checkpointed);
    let state = cut.state.expect("a checkpointed run carries its state");
    for threads in [1usize, 2, 8] {
        let resumed = EnsembleAnnealer::new(config(threads), 29)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("the state fits the ensemble it came from");
        assert_eq!(resumed.outcome, oracle, "resume threads = {threads}");
    }
}

#[test]
fn descent_resumes_bit_identically() {
    // a frustrated chain that takes several greedy sweeps to settle, so
    // interrupts after sweeps 1 and 2 both land mid-descent (a descent that
    // just converged always reports `Completed`, never a checkpoint)
    let mut b = saim_ising::QuboBuilder::new(24);
    for i in 0..24 {
        b.add_linear(i, if i % 2 == 0 { -1.0 } else { 0.75 })
            .expect("valid index");
    }
    for i in 1..24 {
        b.add_pair(i - 1, i, if i % 3 == 0 { 1.5 } else { -0.5 })
            .expect("valid pair");
    }
    let model = b.build().to_ising();
    let oracle = GreedyDescent::new(5).solve(&model);
    assert!(
        oracle.mcs > 2,
        "the model must take several sweeps to settle"
    );

    for stop in [1u64, 2] {
        let cut = GreedyDescent::new(5).solve_controlled(&model, &interrupt_at(stop));
        assert_eq!(cut.status, OutcomeKind::Checkpointed, "stop {stop}");
        let state = cut.state.expect("a checkpointed run carries its state");
        let resumed = GreedyDescent::new(5)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("the state fits the descent it came from");
        assert_eq!(resumed.status, OutcomeKind::Completed);
        assert_eq!(resumed.outcome, oracle, "stop {stop}");
    }
}

#[test]
fn chained_interrupts_still_replay_the_uninterrupted_run() {
    // interrupt → resume → interrupt again → resume: two checkpoint hops
    // must compose to the same bits as zero
    let model = qkp_model(20, 88);
    let schedule = BetaSchedule::constant(2.0);
    let oracle = SimulatedAnnealing::new(schedule, 150, 9).solve(&model);

    let first =
        SimulatedAnnealing::new(schedule, 150, 9).solve_controlled(&model, &interrupt_at(30));
    assert_eq!(first.status, OutcomeKind::Checkpointed);
    let second = SimulatedAnnealing::new(schedule, 150, 9)
        .resume_controlled(
            &model,
            &first.state.expect("first hop checkpoints"),
            &interrupt_at(100),
        )
        .expect("the state fits");
    assert_eq!(second.status, OutcomeKind::Checkpointed);
    assert_eq!(second.outcome.mcs, 100);
    let last = SimulatedAnnealing::new(schedule, 150, 9)
        .resume_controlled(
            &model,
            &second.state.expect("second hop checkpoints"),
            &RunController::unlimited(),
        )
        .expect("the state fits");
    assert_eq!(last.status, OutcomeKind::Completed);
    assert_eq!(last.outcome, oracle);
}

#[test]
fn a_checkpoint_file_resumes_bit_identically_after_the_disk_round_trip() {
    // the full production path: interrupt a spec'd job, persist the
    // checkpoint, load it back, and resume from the *file* — the completed
    // outcome must be canonical-equal to a never-interrupted `run()`, at
    // every batch width the lane-major engine groups replicas into
    let dir = std::env::temp_dir().join(format!("saim-resume-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");

    let inst = generate::qkp(20, 0.5, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    let qubo = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
    for (job, batch_width) in [(0u64, 1usize), (1, 4), (2, 8)] {
        let spec = JobSpec::new(
            job,
            qubo.clone(),
            SolverSpec::Ensemble(EnsembleConfig {
                replicas: 4,
                threads: env_threads(),
                batch_width,
                schedule: BetaSchedule::constant(8.0),
                mcs_per_run: 90,
                dynamics: Dynamics::Gibbs,
            }),
            31,
        )
        .with_instance_digest(inst.digest());
        let oracle = spec.run();

        let cut = spec.run_controlled(&interrupt_at(40));
        assert_eq!(cut.outcome.outcome_kind, OutcomeKind::Checkpointed);
        let checkpoint = *cut
            .checkpoint
            .expect("the interrupted run carries a checkpoint");
        let path: PathBuf = dir.join(format!("job-{job:06}.ckpt"));
        checkpoint.save(&path).expect("saves");

        let loaded = Checkpoint::load(&path).expect("an untouched file loads");
        assert_eq!(loaded, checkpoint);
        let resumed = loaded
            .spec
            .resume_controlled(&loaded.engine, &RunController::unlimited())
            .expect("the checkpoint fits its embedded spec");
        assert_eq!(resumed.outcome.outcome_kind, OutcomeKind::Completed);
        assert_eq!(
            resumed.outcome.canonical(),
            oracle.canonical(),
            "batch width {batch_width}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spin_major_era_checkpoint_restores_under_the_lane_major_layout() {
    // Three fixtures written by older builds:
    //
    // - `spin_major_ensemble_w4.ckpt`, by the spin-major (n × W plane)
    //   build of the batch engine, a width-4 ensemble job interrupted at
    //   sweep 40. Checkpoints
    //   store per-lane *serial machine* images, not plane slabs, so the
    //   lane-major engine must scatter them into its own layout — a layout
    //   change is not a checkpoint format bump.
    // - `serial_group_ensemble_w1.ckpt`, by a build that ran one-lane
    //   ensemble groups on the serial annealer, interrupted at sweep 40:
    //   three replicas at
    //   `batch_width: 1`, every group a `GroupState::Serial` image, which
    //   resumes as a one-lane batch built from the annealer's books,
    //   stream and best.
    // - `descent_stop3.ckpt`, by a build whose greedy descent swept a
    //   serial machine: a `SolverSpec::Descent` job on a 40-item QKP,
    //   stopped after sweep 3 of 6.
    //
    // All must finish bit-identically to the embedded spec's
    // uninterrupted run.
    for fixture in [
        "spin_major_ensemble_w4.ckpt",
        "serial_group_ensemble_w1.ckpt",
        "descent_stop3.ckpt",
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        let loaded = Checkpoint::load(&path).expect("the fixture still loads");
        let oracle = loaded.spec.run();
        let resumed = loaded
            .spec
            .resume_controlled(&loaded.engine, &RunController::unlimited())
            .expect("the fixture fits its embedded spec");
        assert_eq!(
            resumed.outcome.outcome_kind,
            OutcomeKind::Completed,
            "{fixture}"
        );
        assert_eq!(resumed.outcome.canonical(), oracle.canonical(), "{fixture}");
    }
}

#[test]
fn a_fresh_descent_stopped_at_sweep_3_saves_the_fixture_bytes() {
    // the lane-kernel descent writes the same `DescentState` the serial
    // machine's descent wrote: format, books, flip count and stream position
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/descent_stop3.ckpt");
    let spec = Checkpoint::load(&path).expect("the fixture loads").spec;
    let cut = spec.run_controlled(&interrupt_at(3));
    assert_eq!(cut.outcome.outcome_kind, OutcomeKind::Checkpointed);
    let dir = std::env::temp_dir().join(format!("saim-descent-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    let fresh = dir.join("descent_stop3.ckpt");
    cut.checkpoint
        .expect("the interrupted run carries a checkpoint")
        .save(&fresh)
        .expect("saves");
    let (want, got) = (std::fs::read(&path), std::fs::read(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(want.expect("fixture reads") == got.expect("fresh file reads"));
}
