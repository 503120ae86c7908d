//! Perf snapshot — sweep, ensemble and PT scaling → `BENCH_sweep.json`.
//!
//! Measures the numbers every scaling PR is judged against and writes them
//! to a JSON snapshot so future PRs have a trajectory to compare:
//!
//! 1. single-thread Gibbs-sweep throughput (spin-updates/s) of one lane on
//!    block-buffered noise, the one noise path, on dense QKP models (the
//!    n = 200 row is the acceptance gate),
//! 2. batched lane-major sweep throughput vs batch width R on the n = 213
//!    dense row — aggregate Mupd/s of one `ReplicaBatch` against R
//!    independent serial machines; every lane runs the serial machine's
//!    own scan, so the ratio reads about 1.0 and tracks the batch's
//!    per-lane overhead,
//! 3. hot-regime (β ≤ 8) sweep throughput of the three-tier bracket kernel
//!    against the retained exact-tanh oracle, serial and width-8 batched —
//!    the PR 5 target is ≥ 2× serial on the n = 213 rows (see
//!    `HotPoint::speedup_vs_exact` for what the snapshot host records),
//! 4. ensemble wall-clock vs replica count on all cores — the parallel
//!    efficiency of the replica engine (1.0 = perfect linear scaling),
//! 5. parallel-tempering wall-clock on an 8-temperature ladder, all cores
//!    vs pinned to one thread — the round-parallel PT engine's speedup, and
//! 6. job-pool throughput (jobs/s) through an in-process front-end
//!    (`Frontend::start` + `connect`) on a fixed mixed-instance workload —
//!    ensemble, PT and descent jobs over several model sizes — as the
//!    worker count grows: the multi-instance scheduler's scaling.
//!
//! The snapshot records the detected core count, git revision and a unix
//! timestamp so trajectory points from different machines stay comparable.
//! When a previous snapshot exists at the output path, per-row throughput
//! deltas against it are printed and embedded (`previous_rev`, `delta_pct`)
//! so the perf trajectory is self-recording.
//!
//! ```text
//! cargo run -p saim-bench --release --bin bench_sweep             # print + write
//! cargo run -p saim-bench --release --bin bench_sweep -- --out path.json
//! ```

use saim_bench::snapshot::PrevSnapshot;
use saim_core::{penalty_qubo, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::frontend::{Frontend, FrontendConfig, Response};
use saim_machine::service::{JobSpec, SolverSpec};
use saim_machine::{
    derive_seed, new_rng, parallel, BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig,
    IsingSolver, NoiseSource, OutcomeKind, ParallelTempering, PbitMachine, PtConfig, ReplicaBatch,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct SweepPoint {
    n: usize,
    density: f64,
    sweeps_timed: usize,
    /// Spin updates per second, single thread (n spins per sweep).
    updates_per_sec: f64,
    ns_per_sweep: f64,
    /// Percent change of `updates_per_sec` vs the previous snapshot's row
    /// with the same `n` (absent without a previous snapshot).
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct BatchPoint {
    n: usize,
    density: f64,
    /// Inverse temperature of the comparison (see [`BATCH_BETA`]).
    beta: f64,
    /// Replica lanes per structure-of-arrays batch.
    width: usize,
    sweeps_timed: usize,
    /// Aggregate spin updates per second of the batched engine
    /// (`n × width` updates per sweep), single thread.
    updates_per_sec: f64,
    /// Aggregate updates/s of `width` independent serial machines swept
    /// back-to-back on the same streams, single thread.
    serial_updates_per_sec: f64,
    /// batched / serial aggregate throughput. A batch lane sweeps exactly
    /// as a serial machine does (the lane kernel's plain scan, one-pass
    /// flip propagation) and lanes share no coupling pass, so this reads
    /// about 1.0: it measures the batch's per-lane overhead, not a
    /// speed-up.
    speedup_vs_serial: f64,
    /// Percent change of `updates_per_sec` vs the previous snapshot's row
    /// with the same `width`.
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct HotPoint {
    n: usize,
    density: f64,
    /// Inverse temperature of the row — the hot regime is β ≤ 8, where the
    /// weakly-coupled slack bits of the knapsack encoding never saturate
    /// and the pre-bracket kernel paid an exact tanh per update.
    beta: f64,
    sweeps_timed: usize,
    /// Serial three-tier bracket-kernel throughput (spin updates/s).
    updates_per_sec: f64,
    /// The retained exact-tanh oracle kernel on an identical machine and
    /// stream — the pre-PR baseline, measured on this host.
    exact_updates_per_sec: f64,
    /// bracket / exact serial throughput. The PR 5 target was ≥ 2× on the
    /// β ≤ 8, n = 213 rows; the snapshot host records it on the β = 5 and
    /// β = 8 rows, with the flip-propagation-heavy β = 2 row within noise
    /// of it (~1.9× — propagation cost is shared with the baseline and
    /// bounds the ratio there).
    speedup_vs_exact: f64,
    /// Lanes of the batched comparison row.
    batch_width: usize,
    /// Aggregate updates/s of one width-`batch_width` batch at this β.
    batch_updates_per_sec: f64,
    /// Batched aggregate throughput over the exact serial baseline (both
    /// are single-thread aggregate rates). In the hot regime the batch is
    /// propagation-bound — every lane's flips each walk a full coupling
    /// row — so this tracks the serial bracket speedup.
    batch_speedup_vs_exact: f64,
    /// Percent change of `updates_per_sec` vs the previous snapshot's row
    /// with the same `beta` (absent before schema 5).
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct EnsemblePoint {
    replicas: usize,
    /// Wall-clock of one ensemble solve on all cores, seconds.
    all_cores_sec: f64,
    /// Wall-clock of the same work pinned to one thread, seconds.
    one_thread_sec: f64,
    /// one_thread / all_cores: how sublinear the wall-clock is in R.
    speedup: f64,
    /// speedup / min(replicas, cores): 1.0 = perfect scaling.
    parallel_efficiency: f64,
    /// Percent change of `speedup` vs the previous snapshot's row with the
    /// same `replicas`.
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct PtPoint {
    n: usize,
    replicas: usize,
    sweeps: usize,
    /// Wall-clock of one PT solve with ladder rounds on all cores, seconds.
    all_cores_sec: f64,
    /// Wall-clock of the same solve pinned to one thread, seconds.
    one_thread_sec: f64,
    /// one_thread / all_cores — the acceptance gate wants ≥ 2 on multi-core.
    speedup: f64,
    /// speedup / min(replicas, cores): 1.0 = perfect scaling.
    parallel_efficiency: f64,
    /// Percent change of `speedup` vs the previous snapshot's row with the
    /// same `n`.
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct ServicePoint {
    /// Worker threads of the front-end's job pool (jobs themselves run
    /// 1-threaded, so this axis isolates the scheduler's job-level
    /// parallelism).
    workers: usize,
    /// Jobs in the fixed mixed workload.
    jobs: usize,
    /// Wall-clock of submit-all until the last outcome arrives, seconds.
    wall_sec: f64,
    jobs_per_sec: f64,
    /// one-worker wall / this wall — the scheduler's scaling in workers.
    speedup_vs_one_worker: f64,
    /// Percent change of `jobs_per_sec` vs the previous snapshot's row with
    /// the same `workers`.
    delta_pct: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Snapshot {
    /// Snapshot schema version. Changelog: v5 adds the `hot` section
    /// (hot-regime bracket-kernel throughput vs the exact-tanh oracle) and
    /// the self-recording trajectory fields (`previous_rev` + per-row
    /// `delta_pct` vs the prior snapshot at the output path); v4 added the
    /// `service` section (job-pool throughput vs worker count on a mixed
    /// instance workload, timed through an in-process front-end since the
    /// job service was folded into it); v3 added `batch`; v2 added `pt` and
    /// the cores/git_rev/timestamp provenance fields.
    schema: u32,
    /// Detected worker-thread count (what `threads: 0` resolves to).
    cores: usize,
    /// `git rev-parse --short HEAD` of the tree that produced the snapshot.
    git_rev: String,
    /// `git_rev` of the previous snapshot the `delta_pct` fields compare
    /// against (absent when no previous snapshot was found).
    previous_rev: Option<String>,
    /// Seconds since the unix epoch at snapshot time.
    unix_timestamp: u64,
    sweep: Vec<SweepPoint>,
    batch: Vec<BatchPoint>,
    hot: Vec<HotPoint>,
    ensemble: Vec<EnsemblePoint>,
    pt: Vec<PtPoint>,
    service: Vec<ServicePoint>,
}

/// Formats a delta for the console trajectory line.
fn fmt_delta(delta: Option<f64>) -> String {
    delta.map_or_else(String::new, |d| format!("  Δ {d:+.1}% vs prev"))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn qkp_model(n: usize, density: f64) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, density, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

fn time_sweeps(n: usize, density: f64) -> SweepPoint {
    let model = qkp_model(n, density);
    let mut rng = new_rng(1);
    let mut machine = PbitMachine::new(&model, &mut rng);
    let mut noise = NoiseSource::new(rng);
    // warm the books and caches
    for _ in 0..50 {
        machine.sweep_buffered(&model, 5.0, &mut noise);
    }
    // scale the timed work to the model size so every row takes ~a second
    let sweeps = (2_000_000_usize / n.max(1)).clamp(200, 50_000);
    let start = Instant::now();
    for _ in 0..sweeps {
        machine.sweep_buffered(&model, 5.0, &mut noise);
    }
    let secs = start.elapsed().as_secs_f64();
    SweepPoint {
        n: model.len(),
        density,
        sweeps_timed: sweeps,
        updates_per_sec: (sweeps * model.len()) as f64 / secs,
        ns_per_sweep: secs * 1e9 / sweeps as f64,
        delta_pct: None,
    }
}

/// β of the batched-sweep comparison: a deep-quench cold sweep, where
/// almost every spin is saturated and the sweep cost is the settled scan
/// plus the few flips of the low-order slack bits (their couplings are
/// too weak to ever saturate, so they coin-flip at any β). Batch and
/// serial run the same lane scan here as in the hot regime (β ≲ 8 on
/// this model, tracked by the `sweep` section at β = 5), so the row
/// measures only the batch's per-lane overhead.
const BATCH_BETA: f64 = 50.0;

/// Batched vs serial aggregate sweep throughput at one batch width, single
/// thread, on warmed books, at [`BATCH_BETA`].
fn time_batch(n: usize, density: f64, width: usize) -> BatchPoint {
    let model = qkp_model(n, density);
    let seeds: Vec<u64> = (0..width as u64).map(|r| derive_seed(1, r)).collect();
    let sweeps = (8_000_000_usize / (model.len().max(1) * width)).clamp(200, 50_000);

    // best of seven timed repetitions per engine, batch and serial
    // interleaved round by round: the snapshot machine is a shared VM, the
    // minimum is the standard noise-robust estimator, and interleaving
    // keeps a slow host phase from skewing the recorded ratio by landing
    // entirely on one engine's block
    let mut batch = ReplicaBatch::new(&model, &seeds);
    for _ in 0..200 {
        batch.sweep_uniform(&model, BATCH_BETA);
    }
    let mut machines: Vec<(PbitMachine, NoiseSource)> = seeds
        .iter()
        .map(|&seed| {
            let mut rng = new_rng(seed);
            let machine = PbitMachine::new(&model, &mut rng);
            (machine, NoiseSource::new(rng))
        })
        .collect();
    for _ in 0..200 {
        for (machine, noise) in &mut machines {
            machine.sweep_buffered(&model, BATCH_BETA, noise);
        }
    }

    let mut batch_secs = f64::INFINITY;
    let mut serial_secs = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..sweeps {
            batch.sweep_uniform(&model, BATCH_BETA);
        }
        batch_secs = batch_secs.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for _ in 0..sweeps {
            for (machine, noise) in &mut machines {
                machine.sweep_buffered(&model, BATCH_BETA, noise);
            }
        }
        serial_secs = serial_secs.min(start.elapsed().as_secs_f64());
    }

    let aggregate = (sweeps * model.len() * width) as f64;
    let updates_per_sec = aggregate / batch_secs;
    let serial_updates_per_sec = aggregate / serial_secs;
    BatchPoint {
        n: model.len(),
        density,
        beta: BATCH_BETA,
        width,
        sweeps_timed: sweeps,
        updates_per_sec,
        serial_updates_per_sec,
        speedup_vs_serial: updates_per_sec / serial_updates_per_sec.max(1e-12),
        delta_pct: None,
    }
}

/// Hot-regime row: the three-tier bracket kernel against the exact-tanh
/// oracle on identical machines and streams, serial and width-8 batched,
/// single thread, warmed books, block-buffered noise (the annealers'
/// production draw path). Below the saturation regime the two kernels draw
/// the same noise and make the same decisions (the oracle replay proptests
/// pin that); only the cost per decision differs. Bracket and oracle
/// repetitions are interleaved so slow phases of a shared host hit both
/// kernels alike and the recorded ratio stays fair.
fn time_hot(n: usize, density: f64, beta: f64) -> HotPoint {
    const WIDTH: usize = 8;
    let model = qkp_model(n, density);
    let sweeps = (2_000_000_usize / model.len().max(1)).clamp(200, 50_000);

    let mut rng = new_rng(1);
    let mut bracket_machine = PbitMachine::new(&model, &mut rng);
    let mut bracket_noise = NoiseSource::new(rng);
    let mut rng = new_rng(1);
    let mut exact_machine = PbitMachine::new(&model, &mut rng);
    let mut exact_noise = NoiseSource::new(rng);
    for _ in 0..100 {
        bracket_machine.sweep_buffered(&model, beta, &mut bracket_noise);
        exact_machine.sweep_exact_oracle_buffered(&model, beta, &mut exact_noise);
    }
    let mut bracket_secs = f64::INFINITY;
    let mut exact_secs = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..sweeps {
            bracket_machine.sweep_buffered(&model, beta, &mut bracket_noise);
        }
        bracket_secs = bracket_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..sweeps {
            exact_machine.sweep_exact_oracle_buffered(&model, beta, &mut exact_noise);
        }
        exact_secs = exact_secs.min(start.elapsed().as_secs_f64());
    }

    // width-8 batch, bracket kernel
    let seeds: Vec<u64> = (0..WIDTH as u64).map(|r| derive_seed(1, r)).collect();
    let mut batch = ReplicaBatch::new(&model, &seeds);
    let batch_sweeps = (sweeps / WIDTH).max(100);
    for _ in 0..50 {
        batch.sweep_uniform(&model, beta);
    }
    let mut batch_secs = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..batch_sweeps {
            batch.sweep_uniform(&model, beta);
        }
        batch_secs = batch_secs.min(start.elapsed().as_secs_f64());
    }

    let updates = (sweeps * model.len()) as f64;
    let updates_per_sec = updates / bracket_secs;
    let exact_updates_per_sec = updates / exact_secs;
    let batch_updates_per_sec = (batch_sweeps * model.len() * WIDTH) as f64 / batch_secs;
    HotPoint {
        n: model.len(),
        density,
        beta,
        sweeps_timed: sweeps,
        updates_per_sec,
        exact_updates_per_sec,
        speedup_vs_exact: updates_per_sec / exact_updates_per_sec.max(1e-12),
        batch_width: WIDTH,
        batch_updates_per_sec,
        batch_speedup_vs_exact: batch_updates_per_sec / exact_updates_per_sec.max(1e-12),
        delta_pct: None,
    }
}

fn time_ensemble(replicas: usize) -> EnsemblePoint {
    let model = qkp_model(100, 0.5);
    let config = |threads: usize| EnsembleConfig {
        replicas,
        threads,
        batch_width: 0,
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: 200,
        dynamics: Dynamics::Gibbs,
    };
    let time = |threads: usize| {
        let mut engine = EnsembleAnnealer::new(config(threads), 1);
        let start = Instant::now();
        let _ = engine.solve(&model);
        start.elapsed().as_secs_f64()
    };
    // warm up thread stacks and allocator, then measure
    let _ = time(0);
    let all_cores_sec = time(0);
    let one_thread_sec = time(1);
    let speedup = one_thread_sec / all_cores_sec.max(1e-12);
    EnsemblePoint {
        replicas,
        all_cores_sec,
        one_thread_sec,
        speedup,
        parallel_efficiency: speedup / replicas.min(parallel::available_threads()) as f64,
        delta_pct: None,
    }
}

fn time_pt(n: usize) -> PtPoint {
    let model = qkp_model(n, 0.5);
    let replicas = 8;
    let sweeps = 400;
    let config = |threads: usize| PtConfig {
        replicas,
        sweeps,
        beta_min: 0.05,
        beta_max: 10.0,
        swap_interval: 10,
        threads,
    };
    let time = |threads: usize| {
        let mut pt = ParallelTempering::new(config(threads), 1);
        let start = Instant::now();
        let _ = pt.solve(&model);
        start.elapsed().as_secs_f64()
    };
    // warm up thread stacks and allocator, then measure
    let _ = time(0);
    let all_cores_sec = time(0);
    let one_thread_sec = time(1);
    let speedup = one_thread_sec / all_cores_sec.max(1e-12);
    PtPoint {
        n: model.len(),
        replicas,
        sweeps,
        all_cores_sec,
        one_thread_sec,
        speedup,
        parallel_efficiency: speedup / replicas.min(parallel::available_threads()) as f64,
        delta_pct: None,
    }
}

fn time_service(workers: usize, one_worker_sec: Option<f64>) -> ServicePoint {
    // the shared mixed workload: 24 ensemble/PT/descent jobs over three
    // model sizes, every job pinned to one thread so the axis under test
    // is the scheduler's job-level parallelism alone
    let workload = service_mix(&[40, 60, 80], 24, 4, 250);
    let jobs = workload.len();
    let run = || {
        let frontend = Frontend::start(FrontendConfig {
            workers,
            ..FrontendConfig::default()
        });
        let client = frontend.connect();
        let start = Instant::now();
        for spec in workload.iter().cloned() {
            client.submit(spec, 0, None);
        }
        let mut completed = 0;
        while completed < jobs {
            match client.recv() {
                Some(Response::Accepted { .. }) => {}
                Some(Response::Outcome { outcome })
                    if outcome.outcome_kind == OutcomeKind::Completed =>
                {
                    completed += 1;
                }
                other => panic!("a service job did not complete: {other:?}"),
            }
        }
        start.elapsed().as_secs_f64()
    };
    // warm up thread stacks and allocator, then take the best of three
    let _ = run();
    let wall_sec = (0..3).map(|_| run()).fold(f64::INFINITY, f64::min);
    ServicePoint {
        workers,
        jobs,
        wall_sec,
        jobs_per_sec: jobs as f64 / wall_sec.max(1e-12),
        speedup_vs_one_worker: one_worker_sec.map_or(1.0, |one| one / wall_sec.max(1e-12)),
        delta_pct: None,
    }
}

/// A fixed mixed job-pool workload: `jobs` specs cycling through QKP
/// models of the given sizes and the three solver kinds — an ensemble of
/// `replicas` runs of `sweeps` MCS, a PT ladder of `replicas + 2` slots,
/// and greedy descent — every job pinned to one thread (the unit of
/// parallelism under test is the *job*) with its own derived seed and
/// instance digest.
fn service_mix(model_sizes: &[usize], jobs: u64, replicas: usize, sweeps: usize) -> Vec<JobSpec> {
    let payloads: Vec<(saim_ising::Qubo, u64)> = model_sizes
        .iter()
        .map(|&n| {
            let inst = generate::qkp(n, 0.5, 7).expect("valid parameters");
            let enc = inst.encode().expect("encodes");
            let qubo = penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
            (qubo, inst.digest())
        })
        .collect();
    let solvers = [
        SolverSpec::Ensemble(EnsembleConfig {
            replicas,
            threads: 1,
            batch_width: 0,
            schedule: BetaSchedule::linear(10.0),
            mcs_per_run: sweeps,
            dynamics: Dynamics::Gibbs,
        }),
        SolverSpec::Pt(PtConfig {
            replicas: replicas + 2,
            sweeps,
            swap_interval: 10,
            threads: 1,
            ..PtConfig::default()
        }),
        SolverSpec::Descent {
            max_sweeps: sweeps * 8,
        },
    ];
    (0..jobs)
        .map(|job| {
            let (model, digest) = payloads[(job as usize) % payloads.len()].clone();
            let solver = solvers[(job as usize / payloads.len()) % solvers.len()].clone();
            JobSpec::new(job, model, solver, derive_seed(1, job)).with_instance_digest(digest)
        })
        .collect()
}

fn main() {
    let mut out_path = String::from("BENCH_sweep.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().expect("--out needs a path");
        }
    }

    let prev = PrevSnapshot::load(&out_path);
    let previous_rev = prev.as_ref().and_then(PrevSnapshot::rev);
    println!(
        "perf snapshot: sweep throughput + batch scaling + hot-regime kernel + ensemble/PT/service scaling\n"
    );
    if let Some(rev) = &previous_rev {
        println!("deltas vs previous snapshot (rev {rev})\n");
    }
    let sweep: Vec<SweepPoint> = [(50, 0.5), (100, 0.5), (200, 0.5), (300, 0.5)]
        .into_iter()
        .map(|(n, d)| {
            let mut p = time_sweeps(n, d);
            p.delta_pct = prev.as_ref().and_then(|prev| {
                prev.delta_pct(
                    "sweep",
                    "n",
                    p.n as f64,
                    "updates_per_sec",
                    p.updates_per_sec,
                )
            });
            println!(
                "sweep  n={:4} d={:.2}: {:9.0} ns/sweep  {:6.2} Mupd/s{}",
                p.n,
                p.density,
                p.ns_per_sweep,
                p.updates_per_sec / 1e6,
                fmt_delta(p.delta_pct)
            );
            p
        })
        .collect();

    println!();
    let batch: Vec<BatchPoint> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|width| {
            let mut p = time_batch(200, 0.5, width);
            p.delta_pct = prev.as_ref().and_then(|prev| {
                prev.delta_pct(
                    "batch",
                    "width",
                    p.width as f64,
                    "updates_per_sec",
                    p.updates_per_sec,
                )
            });
            println!(
                "batch  n={:4} R={:2}: {:7.2} Mupd/s batched, {:7.2} Mupd/s serial, {:.2}x{}",
                p.n,
                p.width,
                p.updates_per_sec / 1e6,
                p.serial_updates_per_sec / 1e6,
                p.speedup_vs_serial,
                fmt_delta(p.delta_pct)
            );
            p
        })
        .collect();

    println!();
    let hot: Vec<HotPoint> = [2.0f64, 5.0, 8.0]
        .into_iter()
        .map(|beta| {
            let mut p = time_hot(200, 0.5, beta);
            p.delta_pct = prev.as_ref().and_then(|prev| {
                prev.delta_pct("hot", "beta", p.beta, "updates_per_sec", p.updates_per_sec)
            });
            println!(
                "hot    n={:4} beta={:4.1}: {:7.2} Mupd/s bracket vs {:7.2} exact ({:.2}x), \
                 batch R={} {:7.2} Mupd/s ({:.2}x){}",
                p.n,
                p.beta,
                p.updates_per_sec / 1e6,
                p.exact_updates_per_sec / 1e6,
                p.speedup_vs_exact,
                p.batch_width,
                p.batch_updates_per_sec / 1e6,
                p.batch_speedup_vs_exact,
                fmt_delta(p.delta_pct)
            );
            p
        })
        .collect();

    println!();
    let ensemble: Vec<EnsemblePoint> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|r| {
            let mut p = time_ensemble(r);
            p.delta_pct = prev.as_ref().and_then(|prev| {
                prev.delta_pct("ensemble", "replicas", p.replicas as f64, "speedup", p.speedup)
            });
            println!(
                "ensemble R={:2}: all-cores {:7.1} ms, 1-thread {:7.1} ms, speedup {:.2}x, efficiency {:.2}{}",
                p.replicas,
                p.all_cores_sec * 1e3,
                p.one_thread_sec * 1e3,
                p.speedup,
                p.parallel_efficiency,
                fmt_delta(p.delta_pct)
            );
            p
        })
        .collect();

    println!();
    let pt: Vec<PtPoint> = [100usize, 200]
        .into_iter()
        .map(|n| {
            let mut p = time_pt(n);
            p.delta_pct = prev
                .as_ref()
                .and_then(|prev| prev.delta_pct("pt", "n", p.n as f64, "speedup", p.speedup));
            println!(
                "pt     n={:4} R={}: all-cores {:7.1} ms, 1-thread {:7.1} ms, speedup {:.2}x, efficiency {:.2}{}",
                p.n,
                p.replicas,
                p.all_cores_sec * 1e3,
                p.one_thread_sec * 1e3,
                p.speedup,
                p.parallel_efficiency,
                fmt_delta(p.delta_pct)
            );
            p
        })
        .collect();

    println!();
    let mut service: Vec<ServicePoint> = Vec::new();
    // a fixed 1/2/4 axis (comparable across snapshot machines) plus the
    // detected core count when it lies outside it; on few-core hosts the
    // larger rows simply document that extra workers don't help there
    let worker_axis = {
        let cores = parallel::available_threads();
        let mut axis = vec![1usize, 2, 4];
        if !axis.contains(&cores) {
            axis.push(cores);
        }
        axis
    };
    for workers in worker_axis {
        let one = service.first().map(|p: &ServicePoint| p.wall_sec);
        let mut p = time_service(workers, one);
        p.delta_pct = prev.as_ref().and_then(|prev| {
            prev.delta_pct(
                "service",
                "workers",
                p.workers as f64,
                "jobs_per_sec",
                p.jobs_per_sec,
            )
        });
        println!(
            "service W={:2}: {:6} jobs in {:7.1} ms, {:7.1} jobs/s, speedup {:.2}x{}",
            p.workers,
            p.jobs,
            p.wall_sec * 1e3,
            p.jobs_per_sec,
            p.speedup_vs_one_worker,
            fmt_delta(p.delta_pct)
        );
        service.push(p);
    }

    let snapshot = Snapshot {
        schema: 5,
        cores: parallel::available_threads(),
        git_rev: git_rev(),
        previous_rev,
        unix_timestamp: unix_timestamp(),
        sweep,
        batch,
        hot,
        ensemble,
        pt,
        service,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serializes");
    std::fs::write(&out_path, json + "\n").expect("snapshot file writes");
    println!(
        "\nwrote {out_path} ({} cores, rev {})",
        snapshot.cores, snapshot.git_rev
    );
}
