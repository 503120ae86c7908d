//! `bench_e2e` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload qkp_unique --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each workload runs two legs on inputs generated from `--seed`:
//!
//! - **SAIM time-to-target** ([`saim_leg`]): `SaimRunner::run` with a Table I
//!   preset on generated knapsack instances, one attempt per instance, until
//!   a feasible sample reaches a fixed fraction of a deterministic reference.
//! - **Open-loop serving** ([`serve_leg`]): seeded Poisson arrivals of solve
//!   jobs through the router to two backends over loopback TCP, at three
//!   fixed rates and up a rate ladder.
//!
//! | workload | SAIM leg | serving leg |
//! |---|---|---|
//! | `qkp_unique` | QKP n ∈ {100, 200, 300}, β 0→10 (80 % of sweeps hot) | every job a fresh model |
//! | `mkp_repeat` | MKP n = 30, m = 5, β 0→50 (84 % of sweeps deep) | models from a pool of 4 |
//!
//! With `--trace 0` the run prints every end-to-end metric; with `--trace 1`
//! it runs the same inputs untraced and then traced, each for half the
//! time, and prints every per-layer metric, each with the end-to-end metric
//! it should move, plus the tracing overhead (traced minus untraced). Spans
//! are written to `bench_e2e/out/`. Either way the outputs are checked
//! (outside the timed windows): every SAIM best is re-scored from its raw
//! state on the un-encoded instance, and every served outcome must equal a
//! direct `spec.run()`. Any mismatch makes the run exit non-zero.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Every run also appends a provenance
//! record to `bench_e2e/out/history.ndjson`.

mod metrics;
mod provenance;
mod saim_leg;
mod serve_leg;
mod stats;
mod trace;

use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Times each set-up is repeated in an untraced run; medians are reported.
/// Starting a fleet takes milliseconds, so it is repeated more often.
const SAIM_SETUP_REPS: usize = 9;
const FLEET_SETUP_REPS: usize = 31;

/// A workload: one SAIM family and one model-reuse pattern for serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    QkpUnique,
    MkpRepeat,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "qkp_unique" => Some(Workload::QkpUnique),
            "mkp_repeat" => Some(Workload::MkpRepeat),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QkpUnique => "qkp_unique",
            Workload::MkpRepeat => "mkp_repeat",
        }
    }

    /// Sizes both legs to about `seconds` of measurement.
    fn plans(self, seconds: f64) -> (saim_leg::Plan, serve_leg::Plan) {
        let saim_s = seconds * SAIM_SHARE;
        let serve_s = seconds - saim_s;
        let saim = match self {
            Workload::QkpUnique => saim_leg::Plan {
                family: saim_leg::Family::Qkp,
                sizes: vec![100, 200, 300],
                attempts: attempts_for(saim_s, QKP_ATTEMPT_S, 3),
                budget_iters: 600,
                target: 0.98,
                bb_nodes: 500,
                fixed_streams: false,
            },
            Workload::MkpRepeat => saim_leg::Plan {
                family: saim_leg::Family::Mkp,
                sizes: vec![30],
                attempts: attempts_for(saim_s, MKP_ATTEMPT_S, 1),
                budget_iters: 1500,
                target: 0.98,
                bb_nodes: 1_000_000,
                // only about 17 attempts fit, each taking 420 to 1020
                // iterations to its first feasible sample depending on its
                // streams: with seeded streams the median sweep count spread
                // by 10-20 % (quartiles over median) from seed to seed, so
                // every run attempts the same streams
                fixed_streams: true,
            },
        };
        let serve = serve_leg::Plan {
            pool: match self {
                Workload::QkpUnique => None,
                Workload::MkpRepeat => Some(4),
            },
            fixed_rates: [10.0, 20.0, 30.0],
            fixed_step_s: FIXED_SHARES.map(|share| serve_s * 0.7 * share),
            // 12 % steps from 15 to 231 jobs/s; bisection runs five of them
            ladder: (-6..=18).map(|k| 30.0 * 1.12f64.powi(k)).collect(),
            ladder_step_s: serve_s * 0.3 / 5.0,
            tail_limit_ms: 100.0,
            lag_limit_ms: 10.0,
        };
        (saim, serve)
    }
}

/// Shares of the fixed-rate serving time given to the low, mid and high
/// rates: the medians that carry a bound (low, mid) get the most jobs.
const FIXED_SHARES: [f64; 3] = [0.45, 0.3, 0.25];

/// Share of the measured time the SAIM leg is sized to.
const SAIM_SHARE: f64 = 0.5;
/// Typical wall time of one attempt, used only to size the attempt count.
const QKP_ATTEMPT_S: f64 = 0.3;
const MKP_ATTEMPT_S: f64 = 1.2;
/// Fewest attempts a run makes: enough for a tail with ten attempts beyond
/// it and one below.
const MIN_ATTEMPTS: usize = stats::TAIL_BEYOND + 2;

/// Attempts for `seconds`, a whole number of `cycle`s so that every run has
/// the same instance-size mix.
fn attempts_for(seconds: f64, per_attempt: f64, cycle: usize) -> usize {
    let n = ((seconds / per_attempt).round() as usize).max(MIN_ATTEMPTS);
    n.div_ceil(cycle) * cycle
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (qkp_unique | mkp_repeat)")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// One measured pass over both legs.
struct Pass {
    attempts: Vec<saim_leg::Attempt>,
    leg: serve_leg::Leg,
}

fn run_pass(
    seed: u64,
    saim: &saim_leg::Plan,
    serve: &serve_leg::Plan,
    prepared: &[saim_leg::Prepared],
    models: &serve_leg::Models,
    fleet: (serve_leg::Fleet, serve_leg::Client),
    tracer: Option<&Tracer>,
) -> Pass {
    let attempts = saim_leg::run(saim, prepared, seed, tracer);
    progress("SAIM leg done");
    let leg = serve_leg::run(serve, models, seed, fleet.0, fleet.1);
    Pass { attempts, leg }
}

fn end_to_end(setup_s: f64, pass: &Pass) -> Values {
    let s = saim_leg::summarize(&pass.attempts);
    let v = serve_leg::summarize(&pass.leg);
    let mut m = Values::new();
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", pass.leg.peak_rss_mb);
    m.insert("mcs_to_target_p50", s.mcs_to_target_p50);
    m.insert("tts_ok_share", s.ok_share);
    m.insert("p50_ms.low", v.p50_ms[0]);
    m.insert("p50_ms.mid", v.p50_ms[1]);
    m.insert("serve_ok_share", v.ok_share);
    m
}

/// The end-to-end figures too noisy to bound (see [`metrics::PER_LAYER`]).
fn unbounded(pass: &Pass) -> Values {
    let s = saim_leg::summarize(&pass.attempts);
    let v = serve_leg::summarize(&pass.leg);
    let mut m = Values::new();
    m.insert("tts_p50_s", s.tts_p50_s);
    m.insert("tts_tail_s", s.tts_tail.value);
    m.insert("p50_ms.high", v.p50_ms[2]);
    m.insert("tail_ms.low", v.tail[0].value);
    m.insert("tail_ms.mid", v.tail[1].value);
    m.insert("tail_ms.high", v.tail[2].value);
    m.insert("max_rate_jobs_s", v.max_rate_jobs_s);
    m
}

fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    prepared: &[saim_leg::Prepared],
    seed: u64,
    tracer: &Tracer,
) -> Values {
    let mut m = Values::new();
    saim_leg::layers(prepared, &traced.attempts, seed, tracer, &mut m);
    serve_leg::layers(&traced.leg, tracer, &mut m);
    m.extend(unbounded(untraced));
    let figures = |pass: &Pass| {
        let mut m = end_to_end(0.0, pass);
        m.extend(unbounded(pass));
        m
    };
    let (before, after) = (figures(untraced), figures(traced));
    // a difference of two infinite medians (all attempts missed) is unknown
    // and reported as infinite rather than as no overhead
    let overhead = |k: &str| {
        let d = after[k] - before[k];
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    };
    m.insert("trace.overhead.tts_p50_s", overhead("tts_p50_s"));
    m.insert("trace.overhead.p50_ms.mid", overhead("p50_ms.mid"));
    m
}

/// Prints a human-readable report of one pass (before the result line).
fn print_pass(label: &str, pass: &Pass, prepared: &[saim_leg::Prepared]) {
    let s = saim_leg::summarize(&pass.attempts);
    let certified = prepared.iter().filter(|p| p.reference.certified).count();
    println!(
        "[{label}] SAIM: {} attempts, {} reached target, references certified {certified}/{}",
        pass.attempts.len(),
        pass.attempts.iter().filter(|a| a.reached.is_some()).count(),
        prepared.len()
    );
    println!(
        "[{label}]   tts p50 {:.4} s, tail p{:.1} {:.4} s ({} beyond of {}), mcs p50 {}",
        s.tts_p50_s,
        s.tts_tail.percentile,
        s.tts_tail.value,
        s.tts_tail.beyond,
        s.tts_tail.count,
        s.mcs_to_target_p50
    );
    for r in &pass.leg.rungs {
        println!(
            "[{label}] serve {:>5.0} jobs/s: {:>4} jobs, p50 {:>8.3} ms, tail p{:.1} {:>8.3} ms ({} beyond), \
             lag p99 {:.3} ms, misses {}, {:.1} settled/s, backlog {}, {}",
            r.rate,
            r.jobs.len(),
            r.p50_ms,
            r.tail.percentile,
            r.tail.value,
            r.tail.beyond,
            r.lag_p99_ms,
            r.misses,
            r.throughput,
            if r.backlog_growing { "growing" } else { "steady" },
            if r.passed { "pass" } else { "FAIL" }
        );
    }
}

fn print_metrics(defs: &[metrics::Def], values: &Values) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!(
                "  {:<30} {:>16.6} {:<7} {:<6} {}",
                d.name, v, d.unit, d.better, d.about
            );
        }
    }
}

/// Reports a phase boundary on standard error, with the time since start
/// and the peak resident memory so far.
fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!(
        "bench_e2e: [{:7.2} s, peak {:6.1} MB] {what}",
        start.elapsed().as_secs_f64(),
        provenance::peak_rss_mb()
    );
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one run measured.
struct Measured {
    defs: &'static [metrics::Def],
    values: Values,
    /// Correctness-gate failures; any makes the run fail.
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    tracer: Option<Tracer>,
    /// The untraced run's unbounded end-to-end figures, for the report.
    unbounded: Option<Values>,
}

/// Sets up, runs the untraced pass (and with `args.trace` the traced one),
/// and checks every output. `run_dir` holds the fleets' journals.
fn measure(
    args: &Args,
    saim_plan: &saim_leg::Plan,
    serve_plan: &serve_leg::Plan,
    run_dir: &Path,
) -> Measured {
    // set-up, measured: SAIM instances, then the fleet (repeated untraced)
    let reps = |n: usize| if args.trace { 1 } else { n };
    let mut saim_setup = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..reps(SAIM_SETUP_REPS) {
        let t = Instant::now();
        instances = saim_leg::setup(saim_plan);
        saim_setup.push(t.elapsed().as_secs_f64());
    }
    progress(&format!("SAIM set-up done ({} instances)", instances.len()));
    let prepared = saim_leg::prepare(saim_plan, instances);
    progress("references done");
    let models = serve_leg::Models::new(serve_plan);
    let mut fleet_setup = Vec::new();
    let mut fleet = None;
    for rep in 0..reps(FLEET_SETUP_REPS) {
        let (f, c, s) = serve_leg::start_fleet(&run_dir.join(format!("fleet-{rep}")), false);
        fleet_setup.push(s);
        if let Some((old_fleet, old_client)) = fleet.replace((f, c)) {
            drop(old_client);
            old_fleet.stop();
        }
    }
    let setup_s = stats::median(&saim_setup) + stats::median(&fleet_setup);
    progress("fleet set-up done");

    let fleet = fleet.expect("a fleet was started");
    let untraced = run_pass(
        args.seed, saim_plan, serve_plan, &prepared, &models, fleet, None,
    );
    progress("untraced pass done");
    print_pass("untraced", &untraced, &prepared);
    let mut errors = saim_leg::verify(&prepared, &untraced.attempts);
    errors.extend(serve_leg::verify(&untraced.leg));
    let served = serve_leg::summarize(&untraced.leg);
    let mut attempted = untraced.attempts.len() + served.jobs;
    let mut failed = served.errors;

    if !args.trace {
        return Measured {
            defs: END_TO_END,
            values: end_to_end(setup_s, &untraced),
            errors,
            attempted,
            failed,
            tracer: None,
            unbounded: Some(unbounded(&untraced)),
        };
    }
    let tracer = Tracer::new();
    let fleet = serve_leg::start_fleet(&run_dir.join("fleet-traced"), true);
    let traced = run_pass(
        args.seed,
        saim_plan,
        serve_plan,
        &prepared,
        &models,
        (fleet.0, fleet.1),
        Some(&tracer),
    );
    progress("traced pass done");
    print_pass("traced", &traced, &prepared);
    errors.extend(saim_leg::verify(&prepared, &traced.attempts));
    errors.extend(serve_leg::verify(&traced.leg));
    let served = serve_leg::summarize(&traced.leg);
    attempted += traced.attempts.len() + served.jobs;
    failed += served.errors;
    Measured {
        defs: PER_LAYER,
        values: per_layer(&untraced, &traced, &prepared, args.seed, &tracer),
        errors,
        attempted,
        failed,
        tracer: Some(tracer),
        unbounded: None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    progress("start");
    let out = out_dir();
    let run_dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("output directory is creatable");
    let pass_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (saim_plan, serve_plan) = args.workload.plans(pass_seconds);
    let mut m = measure(&args, &saim_plan, &serve_plan, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);

    if let Some(tracer) = &m.tracer {
        let spans = out.join(format!(
            "trace-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        match tracer.dump(&spans) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), spans.display()),
            Err(e) => eprintln!(
                "bench_e2e: could not write spans to {}: {e}",
                spans.display()
            ),
        }
    }
    if let Err(e) = metrics::check_complete(m.defs, &m.values) {
        m.errors.push(e);
    }
    for e in &m.errors {
        eprintln!("bench_e2e: MISMATCH: {e}");
    }
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("{kind} metrics ({}):", args.workload.name());
    print_metrics(m.defs, &m.values);
    if let Some(extra) = &m.unbounded {
        println!("also measured, without a bound (the traced run reports them):");
        print_metrics(PER_LAYER, extra);
    }
    let history = out.join("history.ndjson");
    let record = provenance::append(
        &history,
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        &m.values,
    );
    if let Err(e) = record {
        eprintln!("bench_e2e: could not append the history record: {e}");
    }
    let correct = m.errors.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, m.attempted, m.failed, m.defs, &m.values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both workloads at a toy size, traced and untraced: every metric the
    /// run owes is measured and the correctness gate passes.
    #[test]
    fn every_metric_is_present_on_every_workload() {
        for workload in [Workload::QkpUnique, Workload::MkpRepeat] {
            let (mut saim, mut serve) = workload.plans(1.0);
            saim.attempts = 2;
            saim.sizes = vec![30];
            saim.budget_iters = 40;
            serve.fixed_rates = [40.0, 80.0, 120.0];
            serve.fixed_step_s = [0.4; 3];
            serve.ladder_step_s = 0.1;
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                };
                let run_dir = out_dir().join(format!("test-{}-{trace}", workload.name()));
                let m = measure(&args, &saim, &serve, &run_dir);
                let _ = std::fs::remove_dir_all(&run_dir);
                assert!(m.errors.is_empty(), "{:?}", m.errors);
                let defs = if trace { PER_LAYER } else { END_TO_END };
                metrics::check_complete(defs, &m.values).expect("every metric measured");
                assert!(m.attempted > 0);
            }
        }
    }
}
