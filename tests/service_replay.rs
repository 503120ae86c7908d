//! Job-pool determinism: every outcome streamed through the front-end's
//! worker fleet must be **bit-identical** to the direct engine call with
//! the same seed — for any worker count or submission interleaving. The
//! pool adds scheduling, never randomness.
//!
//! CI runs this suite in the same 1/2/8-thread matrix as
//! `tests/determinism.rs` (`SAIM_DETERMINISM_THREADS` selects the
//! env-matrix leg's worker count).

use saim_core::ConstrainedProblem;
use saim_knapsack::generate;
use saim_machine::frontend::{Frontend, FrontendConfig, Response};
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{
    derive_seed, BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, GreedyDescent,
    IsingSolver, ParallelTempering, PtConfig,
};
use std::time::Duration;

/// The three solver kinds the service schedules, deliberately mixing
/// explicit and auto-sized (`threads: 0`) inner threading — worker threads
/// run auto-sized engines inline, the caller's thread fans them out, and
/// both must read identically.
fn solver_kinds() -> [SolverSpec; 3] {
    [
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 3,
            threads: 0,
            batch_width: 0,
            schedule: BetaSchedule::linear(9.0),
            mcs_per_run: 80,
            dynamics: Dynamics::Gibbs,
        }),
        SolverSpec::Pt(PtConfig {
            replicas: 4,
            sweeps: 70,
            swap_interval: 10,
            threads: 1,
            ..PtConfig::default()
        }),
        SolverSpec::Descent { max_sweeps: 400 },
    ]
}

/// Nine jobs: three QKP instances × the three solver kinds, each job with
/// its own SplitMix-derived seed and its instance's digest.
fn mixed_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (slot, n) in [18usize, 22, 26].into_iter().enumerate() {
        let inst = generate::qkp(n, 0.5, 40 + slot as u64).expect("valid parameters");
        let enc = inst.encode().expect("encodes");
        let qubo =
            saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
        for (kind, solver) in solver_kinds().into_iter().enumerate() {
            let job = (slot * 3 + kind) as u64;
            specs.push(
                JobSpec::new(job, qubo.clone(), solver, derive_seed(7, job))
                    .with_instance_digest(inst.digest()),
            );
        }
    }
    specs
}

/// Submits `specs` in order to an in-process front-end with `workers`
/// workers on one client session and collects every outcome **in
/// completion order**, unwrapping the frame layer — no job in these suites
/// fails. Outcomes are re-associated with their specs by the echoed job id.
fn run_through_fleet(workers: usize, specs: &[JobSpec]) -> Vec<JobOutcome> {
    let frontend = Frontend::start(FrontendConfig {
        workers,
        ..FrontendConfig::default()
    });
    let client = frontend.connect();
    for spec in specs {
        client.submit(spec.clone(), 0, None);
    }
    let mut outcomes = Vec::with_capacity(specs.len());
    while outcomes.len() < specs.len() {
        match client.recv_timeout(Duration::from_secs(60)) {
            Some(Response::Accepted { .. }) => {}
            Some(Response::Outcome { outcome }) => outcomes.push(outcome),
            other => panic!("expected an outcome frame, got {other:?}"),
        }
    }
    assert_eq!(client.try_recv(), None, "no frame beyond one per job");
    outcomes
}

/// [`run_through_fleet`] folded back into job-id order (ids are `0..n`).
fn outcomes_by_job(workers: usize, specs: &[JobSpec]) -> Vec<JobOutcome> {
    let mut outcomes = run_through_fleet(workers, specs);
    outcomes.sort_by_key(|o| o.job);
    outcomes
}

/// The direct-call oracle: the engine invocation each [`SolverSpec`]
/// variant documents, with no service machinery at all.
fn direct_outcome(spec: &JobSpec) -> JobOutcome {
    let model = spec.model.to_ising();
    let solved = match &spec.solver {
        SolverSpec::Ensemble(config) => EnsembleAnnealer::new(*config, spec.seed).solve(&model),
        SolverSpec::Pt(config) => ParallelTempering::new(*config, spec.seed).solve(&model),
        SolverSpec::Descent { max_sweeps } => GreedyDescent::new(spec.seed)
            .with_max_sweeps(*max_sweeps)
            .solve(&model),
    };
    JobOutcome::new(spec, &solved, Duration::ZERO)
}

#[test]
fn service_outcomes_replay_direct_engine_calls_for_any_worker_count() {
    let specs = mixed_specs();
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    for workers in [1usize, 2, 8] {
        let outcomes = outcomes_by_job(workers, &specs);
        assert_eq!(outcomes.len(), oracle.len());
        for (got, want) in outcomes.iter().zip(&oracle) {
            assert_eq!(
                got.canonical(),
                want.canonical(),
                "workers = {workers}, job {}",
                want.job
            );
            // byte-identical on the wire, too — what a result store
            // would actually compare
            assert_eq!(got.canonical().to_json(), want.canonical().to_json());
        }
    }
}

#[test]
fn submission_interleaving_never_changes_outcomes() {
    let specs = mixed_specs();
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    // two distinct submission orders: reversed, and inside-out interleaved
    let reversed: Vec<usize> = (0..specs.len()).rev().collect();
    let mut interleaved = Vec::new();
    let (mut lo, mut hi) = (0usize, specs.len() - 1);
    while lo < hi {
        interleaved.push(lo);
        interleaved.push(hi);
        lo += 1;
        hi -= 1;
    }
    if lo == hi {
        interleaved.push(lo);
    }
    for order in [reversed, interleaved] {
        let shuffled: Vec<JobSpec> = order.iter().map(|&i| specs[i].clone()).collect();
        // consume in completion order and re-associate through the echoed
        // job id — the streaming path a network client uses
        let outcomes = run_through_fleet(4, &shuffled);
        assert_eq!(outcomes.len(), specs.len());
        for outcome in outcomes {
            let got = outcome.canonical();
            let want = oracle[got.job as usize].canonical();
            assert_eq!(got, want, "job {}", got.job);
            assert_eq!(got.to_json(), want.to_json());
        }
    }
}

/// Hot-regime solver kinds (β ≤ 8 throughout): ensemble and PT runs that
/// never leave the regime the bracket decision kernel accelerates, plus a
/// descent control.
fn hot_solver_kinds() -> [SolverSpec; 3] {
    [
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 3,
            threads: 0,
            batch_width: 0,
            schedule: BetaSchedule::constant(4.0),
            mcs_per_run: 70,
            dynamics: Dynamics::Gibbs,
        }),
        SolverSpec::Pt(PtConfig {
            replicas: 4,
            sweeps: 60,
            swap_interval: 10,
            beta_min: 0.5,
            beta_max: 8.0,
            threads: 1,
        }),
        SolverSpec::Descent { max_sweeps: 300 },
    ]
}

#[test]
fn hot_regime_jobs_replay_direct_engine_calls() {
    // the hot-regime leg of the replay contract, in the same env-selected
    // worker matrix as the deep-quench suite: β ∈ {2, 4, 8} jobs streamed
    // through the fleet must match the direct engine calls bit for bit
    let env_workers: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let mut specs = Vec::new();
    for (slot, beta) in [2.0f64, 4.0, 8.0].into_iter().enumerate() {
        let inst = generate::qkp(20 + 2 * slot, 0.5, 70 + slot as u64).expect("valid parameters");
        let enc = inst.encode().expect("encodes");
        let qubo =
            saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
        for (kind, solver) in hot_solver_kinds().into_iter().enumerate() {
            let solver = match solver {
                SolverSpec::Ensemble(config) => SolverSpec::Ensemble(EnsembleConfig {
                    schedule: BetaSchedule::constant(beta),
                    ..config
                }),
                other => other,
            };
            let job = (slot * 3 + kind) as u64;
            specs.push(
                JobSpec::new(job, qubo.clone(), solver, derive_seed(11, job))
                    .with_instance_digest(inst.digest()),
            );
        }
    }
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    for workers in [1usize, env_workers] {
        let outcomes = outcomes_by_job(workers, &specs);
        assert_eq!(outcomes.len(), oracle.len());
        for (got, want) in outcomes.iter().zip(&oracle) {
            assert_eq!(
                got.canonical(),
                want.canonical(),
                "workers = {workers}, job {}",
                want.job
            );
            assert_eq!(got.canonical().to_json(), want.canonical().to_json());
        }
    }
}

#[test]
fn service_is_invariant_at_env_selected_worker_count() {
    // CI runs this test in a matrix over SAIM_DETERMINISM_THREADS=1/2/8;
    // whatever the leg, the fleet must reproduce the one-worker stream
    let workers: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let specs = mixed_specs();
    let run = |workers: usize| {
        outcomes_by_job(workers, &specs)
            .into_iter()
            .map(|o| o.canonical())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(workers), run(1), "workers = {workers}");
}

#[test]
fn zero_and_single_job_streams_through_the_fleet() {
    assert!(run_through_fleet(2, &[]).is_empty());

    let spec = &mixed_specs()[0];
    let single = run_through_fleet(2, std::slice::from_ref(spec));
    assert_eq!(single.len(), 1);
    assert_eq!(single[0].job, spec.job);
    assert_eq!(single[0].canonical(), direct_outcome(spec).canonical());
    assert_eq!(
        single[0].canonical().to_json(),
        direct_outcome(spec).canonical().to_json()
    );
}
