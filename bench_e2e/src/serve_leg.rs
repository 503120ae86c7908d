//! The serving leg: an open-loop Poisson schedule of solve jobs through
//! `Cluster::serve` (the router) over loopback TCP to two `Frontend::serve`
//! backends with one worker each — the code `saim-router` and `saim-server`
//! run, in this process.
//!
//! Every rung of the rate ladder is generated from the seed and serialized
//! to request lines before its clock starts. One thread writes the lines on
//! one client connection at their due times; a second thread reads the
//! responses on the same connection. A job's latency runs from its due time
//! to the read of its outcome; a job that is refused, fails, is shed or
//! never settles is a miss and counts as an infinite latency.
//!
//! In the traced pass each backend link is wrapped in a [`TracedLink`],
//! which stamps the router's send and poll of every job, so a job's time
//! splits into routing, backend (queue + solve) and settlement.

use crate::metrics::Values;
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use saim_core::ConstrainedProblem;
use saim_ising::Qubo;
use saim_knapsack::generate;
use saim_machine::cluster::{
    BackendLink, Cluster, ClusterConfig, ClusterReport, LinkError, TcpLink,
};
use saim_machine::frontend::{Frontend, FrontendConfig, Request, Response};
use saim_machine::parallel::parallel_map_indexed;
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{derive_seed, BetaSchedule, Dynamics, EnsembleConfig, OutcomeKind, PtConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// QKP item counts of served models. Fresh models take the large size on
/// every third triple of jobs and the small one otherwise, so the latency
/// median sits inside one size's cluster instead of between two.
const MODEL_SIZES: [usize; 2] = [50, 100];

fn model_size(job: u64) -> usize {
    MODEL_SIZES[usize::from((job / 3).is_multiple_of(3))]
}

/// Threads that build schedules and check outcomes between rungs.
const PREP_THREADS: usize = 2;
/// Backend shards behind the router.
const BACKENDS: usize = 2;
/// How long a rung may take to settle after its last due time.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// What the leg runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `None`: every job carries a fresh model. `Some(k)`: models are drawn
    /// from a pool of `k` instances.
    pub pool: Option<usize>,
    /// The fixed `low`, `mid` and `high` offered rates, jobs/s.
    pub fixed_rates: [f64; 3],
    /// Seconds of arrivals at each fixed rate.
    pub fixed_step_s: [f64; 3],
    /// The capacity ladder, ascending. It is searched by bisection, which
    /// assumes every rung below a passing one passes too.
    pub ladder: Vec<f64>,
    /// Seconds of arrivals per ladder rung.
    pub ladder_step_s: f64,
    /// A rung passes when its tail latency is at most this.
    pub tail_limit_ms: f64,
    /// A rung whose generator ran later than this at p99 is invalid.
    pub lag_limit_ms: f64,
}

/// One scheduled job, serialized before the clock starts.
struct Scheduled {
    due: Duration,
    line: Vec<u8>,
    spec: JobSpec,
}

/// The three solver kinds of the mix, in rotation.
fn solver_mix(k: u64) -> SolverSpec {
    match k % 3 {
        0 => SolverSpec::Descent { max_sweeps: 1600 },
        1 => SolverSpec::Ensemble(EnsembleConfig {
            replicas: 4,
            threads: 1,
            batch_width: 0,
            schedule: BetaSchedule::linear(10.0),
            mcs_per_run: 200,
            dynamics: Dynamics::Gibbs,
        }),
        _ => SolverSpec::Pt(PtConfig {
            replicas: 4,
            sweeps: 100,
            swap_interval: 10,
            threads: 1,
            ..PtConfig::default()
        }),
    }
}

/// A served model: the QKP penalty QUBO at the QKP preset's α, and the
/// instance digest the router places by.
fn model(n: usize, seed: u64) -> (Qubo, u64) {
    let inst = generate::qkp(n, 0.5, seed).expect("valid QKP parameters");
    let enc = inst.encode().expect("QKP instance encodes");
    let qubo = saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("the preset penalty is valid");
    (qubo, inst.digest())
}

/// SplitMix64: the schedule's own deterministic stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Seed of the repeated-model pool. The pool is the same in every run, so
/// its rendezvous placement (and the skew it causes) is a property of the
/// workload rather than of the run's seed; the seed still draws arrivals,
/// job seeds and which pool model each job carries. This seed's four digests
/// prefer the two backends 3:1 (the large model and two small ones on one):
/// skewed, as repeated digests make placement, without idling a backend.
const POOL_SEED: u64 = 4;

/// Model pool shared by every rung of a repeated-model plan: one large
/// model and the rest small, about the size mix of fresh models.
pub struct Models {
    pool: Vec<(Qubo, u64)>,
}

impl Models {
    pub fn new(plan: &Plan) -> Models {
        let pool = (0..plan.pool.unwrap_or(0))
            .map(|i| {
                model(
                    MODEL_SIZES[usize::from(i == 0)],
                    derive_seed(POOL_SEED, i as u64),
                )
            })
            .collect();
        Models { pool }
    }
}

/// Builds rung `rung`'s schedule: `count` Poisson arrivals at `rate`,
/// conditioned on the count (the arrival times are scaled so the next one
/// would fall at exactly `count / rate` seconds), job ids from `first_job`.
fn schedule(
    models: &Models,
    seed: u64,
    rung: usize,
    rate: f64,
    count: usize,
    first_job: u64,
) -> Vec<Scheduled> {
    let mut stream = Stream(derive_seed(seed, 5_000_000 + rung as u64));
    let mut t = 0.0;
    let mut arrivals: Vec<(f64, usize)> = (0..count)
        .map(|_| {
            t += -stream.unit().ln();
            let pick = (stream.next() % models.pool.len().max(1) as u64) as usize;
            (t, pick)
        })
        .collect();
    let scale = count as f64 / rate / (t - stream.unit().ln());
    for a in &mut arrivals {
        a.0 *= scale;
    }
    parallel_map_indexed(arrivals.len(), PREP_THREADS, |i| {
        let (due, pick) = arrivals[i];
        let due = Duration::from_secs_f64(due);
        let job = first_job + i as u64;
        let (qubo, digest) = if models.pool.is_empty() {
            model(model_size(job), derive_seed(seed, 6_000_000 + job))
        } else {
            models.pool[pick].clone()
        };
        let spec = JobSpec::new(
            job,
            qubo,
            solver_mix(job),
            derive_seed(seed, 8_000_000 + job),
        )
        .with_instance_digest(digest);
        let mut line = Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        }
        .to_line()
        .into_bytes();
        line.push(b'\n');
        Scheduled { due, line, spec }
    })
}

// ------------------------------------------------------------ traced link

/// A link-side observation.
#[derive(Debug, Clone, Copy)]
pub enum LinkEvent {
    Sent {
        job: u64,
        backend: usize,
        at: Instant,
    },
    Received {
        job: u64,
        at: Instant,
        solve_ns: u64,
    },
    Overloaded,
}

/// What the traced links share with the load generator.
#[derive(Default)]
pub struct LinkLog {
    /// Spec seed → client job id (the router rewrites job ids to its own).
    seed_to_job: Mutex<HashMap<u64, u64>>,
    gid_to_job: Mutex<HashMap<u64, u64>>,
    events: Mutex<Vec<LinkEvent>>,
}

impl LinkLog {
    fn push(&self, event: LinkEvent) {
        self.events
            .lock()
            .expect("link log lock is never poisoned")
            .push(event);
    }
}

/// Bench-side `BackendLink` wrapper around `TcpLink`: stamps the router's
/// send and poll of every job.
struct TracedLink {
    inner: TcpLink,
    backend: usize,
    log: Arc<LinkLog>,
}

impl BackendLink for TracedLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        let at = Instant::now();
        if let Request::Submit { spec, .. } = request {
            let job = self
                .log
                .seed_to_job
                .lock()
                .expect("never poisoned")
                .get(&spec.seed)
                .copied();
            if let Some(job) = job {
                self.log
                    .gid_to_job
                    .lock()
                    .expect("never poisoned")
                    .insert(spec.job, job);
                self.log.push(LinkEvent::Sent {
                    job,
                    backend: self.backend,
                    at,
                });
            }
        }
        self.inner.send(request)
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        let response = self.inner.poll(timeout)?;
        let at = Instant::now();
        match &response {
            Some(Response::Outcome { outcome }) => {
                let job = self
                    .log
                    .gid_to_job
                    .lock()
                    .expect("never poisoned")
                    .get(&outcome.job)
                    .copied();
                if let Some(job) = job {
                    self.log.push(LinkEvent::Received {
                        job,
                        at,
                        solve_ns: outcome.elapsed_ns,
                    });
                }
            }
            Some(Response::Overloaded { .. }) => self.log.push(LinkEvent::Overloaded),
            _ => {}
        }
        Ok(response)
    }
}

// ------------------------------------------------------------------ fleet

/// Two backends and a router, all serving loopback TCP.
pub struct Fleet {
    backends: Vec<(Frontend, JoinHandle<()>)>,
    cluster: Cluster,
    cluster_serve: JoinHandle<()>,
    /// The router's initial session; it owns journal-recovered jobs.
    _recovery: saim_machine::cluster::RouterHandle,
    addr: String,
    dir: PathBuf,
    journal: PathBuf,
    pub log: Option<Arc<LinkLog>>,
}

fn listen() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback port binds");
    let addr = listener
        .local_addr()
        .expect("bound socket has an address")
        .to_string();
    (listener, addr)
}

impl Fleet {
    /// Starts the fleet; `dir` (fresh) holds the journal and drain files.
    pub fn start(dir: &Path, traced: bool) -> Fleet {
        std::fs::create_dir_all(dir).expect("fleet directory is creatable");
        let log = traced.then(|| Arc::new(LinkLog::default()));
        let mut backends = Vec::new();
        let mut links: Vec<Box<dyn BackendLink>> = Vec::new();
        for b in 0..BACKENDS {
            let frontend = Frontend::start(FrontendConfig {
                workers: 1,
                ..FrontendConfig::default()
            });
            let (listener, addr) = listen();
            let serve = frontend.serve(listener);
            let inner = TcpLink::connect(&addr).expect("backend accepts");
            links.push(match &log {
                Some(log) => Box::new(TracedLink {
                    inner,
                    backend: b,
                    log: Arc::clone(log),
                }),
                None => Box::new(inner),
            });
            backends.push((frontend, serve));
        }
        let journal = dir.join("journal.ndjson");
        let (cluster, recovery) = Cluster::start(
            ClusterConfig {
                journal: Some(journal.clone()),
                ..ClusterConfig::default()
            },
            links,
        )
        .expect("a fresh journal opens");
        let (listener, addr) = listen();
        let cluster_serve = cluster.serve(listener);
        Fleet {
            backends,
            cluster,
            cluster_serve,
            _recovery: recovery,
            addr,
            dir: dir.to_path_buf(),
            journal,
            log,
        }
    }

    /// Stops the router and the backends and joins their serving threads.
    /// Returns the router's final counters and the journal's size in bytes.
    pub fn stop(self) -> (ClusterReport, u64) {
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        let report = self.cluster.shutdown();
        let _ = self.cluster_serve.join();
        for (b, (frontend, serve)) in self.backends.into_iter().enumerate() {
            frontend
                .shutdown_to(&self.dir.join(format!("drain-{b}")))
                .expect("drain directory is writable");
            let _ = serve.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        (report, journal_bytes)
    }
}

/// One client connection to the router: a writer and a line reader.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(fleet: &Fleet) -> Client {
        let stream = TcpStream::connect(&fleet.addr).expect("router accepts");
        stream.set_nodelay(true).expect("loopback socket option");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("loopback socket option");
        let writer = stream.try_clone().expect("socket clones");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }
}

/// A tiny job for the set-up handshake.
fn warmup_spec() -> JobSpec {
    let (qubo, digest) = model(10, 1);
    JobSpec::new(u64::MAX, qubo, SolverSpec::Descent { max_sweeps: 50 }, 1)
        .with_instance_digest(digest)
}

/// Starts a fleet and connects a client; returns them with the seconds
/// from start until the router accepted a first job. The job is then
/// settled so the fleet starts the run idle.
pub fn start_fleet(dir: &Path, traced: bool) -> (Fleet, Client, f64) {
    let t = Instant::now();
    let fleet = Fleet::start(dir, traced);
    let mut client = Client::connect(&fleet);
    let mut line = Request::Submit {
        spec: warmup_spec(),
        priority: 0,
        deadline_ms: None,
    }
    .to_line()
    .into_bytes();
    line.push(b'\n');
    client.writer.write_all(&line).expect("router reads");
    let mut setup_s = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "fleet did not settle its warm-up job"
        );
        match read_response(&mut client.reader) {
            Some(Response::Accepted { .. }) => setup_s = Some(t.elapsed().as_secs_f64()),
            Some(Response::Outcome { .. }) => break,
            Some(other) => panic!("warm-up job was not served: {other:?}"),
            None => {}
        }
    }
    (
        fleet,
        client,
        setup_s.expect("accepted precedes the outcome"),
    )
}

// ------------------------------------------------------------------ rungs

/// What happened to one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub job: u64,
    pub due: Instant,
    pub written: Instant,
    pub read: Option<Instant>,
    pub outcome: Option<JobOutcome>,
    pub line_bytes: usize,
}

impl JobRecord {
    fn ok(&self) -> bool {
        self.outcome
            .as_ref()
            .is_some_and(|o| o.outcome_kind == OutcomeKind::Completed)
    }

    /// Milliseconds from due time to outcome; infinite for a miss.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok(), self.read) {
            (true, Some(read)) => read.duration_since(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }
}

/// One rung's result.
pub struct Rung {
    pub rate: f64,
    pub jobs: Vec<JobRecord>,
    pub p50_ms: f64,
    pub tail: Tail,
    pub lag_p99_ms: f64,
    pub misses: usize,
    /// Responses that refused or failed a job.
    pub errors: usize,
    /// Seconds from the rung's start to its last outcome.
    pub busy_s: f64,
    /// Settled jobs per second of `busy_s`.
    pub throughput: f64,
    pub backlog_growing: bool,
    pub passed: bool,
    /// Correctness-gate failures.
    pub mismatches: Vec<String>,
    /// The first jobs' specs and outcomes, for the codec timings.
    pub codec_sample: Vec<(JobSpec, Option<JobOutcome>)>,
}

/// Runs one rung on the client connection.
fn run_rung(
    plan: &Plan,
    client: &mut Client,
    log: Option<&LinkLog>,
    rate: f64,
    jobs: Vec<Scheduled>,
) -> Rung {
    if let Some(log) = log {
        let mut map = log.seed_to_job.lock().expect("never poisoned");
        for j in &jobs {
            map.insert(j.spec.seed, j.spec.job);
        }
    }
    let index: HashMap<u64, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.spec.job, i))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let last_due = jobs.last().map_or(Duration::ZERO, |j| j.due);
    let drain_deadline = start + last_due + DRAIN_TIMEOUT;
    let writer = &mut client.writer;
    let reader = &mut client.reader;
    let (written, (reads, errors)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut written = Vec::with_capacity(jobs.len());
            for j in &jobs {
                let due = start + j.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                writer.write_all(&j.line).expect("router reads its client");
                written.push(at);
            }
            written
        });
        let receiver = s.spawn(|| {
            let mut reads: Vec<Option<(Instant, JobOutcome)>> = vec![None; jobs.len()];
            let mut settled = 0;
            let mut errors = 0;
            while settled < jobs.len() && Instant::now() < drain_deadline {
                let Some(response) = read_response(reader) else {
                    continue;
                };
                let at = Instant::now();
                match response {
                    Response::Accepted { .. } => {}
                    Response::Outcome { outcome } => {
                        if let Some(&i) = index.get(&outcome.job) {
                            if reads[i].is_none() {
                                settled += 1;
                            }
                            reads[i] = Some((at, outcome));
                        }
                    }
                    Response::Failure { job, .. } => {
                        errors += 1;
                        if index.contains_key(&job) {
                            settled += 1;
                        }
                    }
                    Response::Rejected { .. } | Response::Overloaded { .. } => errors += 1,
                    Response::Stats { .. } => {}
                }
            }
            (reads, errors)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let records: Vec<JobRecord> = jobs
        .iter()
        .zip(written)
        .zip(reads)
        .map(|((j, written), read)| JobRecord {
            job: j.spec.job,
            due: start + j.due,
            written,
            read: read.as_ref().map(|r| r.0),
            outcome: read.map(|r| r.1),
            line_bytes: j.line.len(),
        })
        .collect();
    let last_read = records.iter().filter_map(|j| j.read).max().unwrap_or(start);
    let busy_s = last_read.duration_since(start).as_secs_f64();
    let mut rung = summarize_rung(plan, rate, records, errors, busy_s);
    // the correctness gate, outside the timed window; specs are not kept
    let differs = parallel_map_indexed(jobs.len(), PREP_THREADS, |i| {
        rung.jobs[i].outcome.as_ref().is_some_and(|outcome| {
            outcome.outcome_kind == OutcomeKind::Completed
                && outcome.canonical() != jobs[i].spec.run().canonical()
        })
    });
    for (j, _) in jobs.iter().zip(differs).filter(|(_, d)| *d) {
        rung.mismatches.push(format!(
            "job {}: served outcome differs from a direct run of its spec",
            j.spec.job
        ));
    }
    rung.codec_sample = jobs
        .into_iter()
        .zip(&rung.jobs)
        .take(CODEC_SAMPLE)
        .map(|(j, r)| (j.spec, r.outcome.clone()))
        .collect();
    rung
}

/// Jobs per rung whose frames the traced pass re-times through the codec.
const CODEC_SAMPLE: usize = 20;

/// Next response on a client connection, or `None` when nothing arrived
/// within its read timeout.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => panic!("the router closed the client connection"),
        Ok(_) => Some(Response::from_line(line.trim_end()).expect("router frames parse")),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            None
        }
        Err(e) => panic!("client read failed: {e}"),
    }
}

fn summarize_rung(
    plan: &Plan,
    rate: f64,
    jobs: Vec<JobRecord>,
    errors: usize,
    busy_s: f64,
) -> Rung {
    let latencies: Vec<f64> = jobs.iter().map(JobRecord::latency_ms).collect();
    let lags: Vec<f64> = jobs
        .iter()
        .map(|j| j.written.saturating_duration_since(j.due).as_secs_f64() * 1e3)
        .collect();
    let misses = jobs.iter().filter(|j| !j.ok()).count();
    let throughput = (jobs.len() - misses) as f64 / busy_s.max(1e-9);
    // a backlog grows when the last quarter of arrivals waits much longer
    // than the first
    let quarter = (jobs.len() / 4).max(1);
    let backlog_growing = jobs.len() >= 8
        && stats::mean(&latencies[jobs.len() - quarter..])
            > stats::mean(&latencies[..quarter]) + plan.tail_limit_ms / 2.0;
    let tail = stats::tail(&latencies);
    let lag_p99_ms = stats::percentile(&lags, 99.0);
    let passed = misses == 0
        && tail.value <= plan.tail_limit_ms
        && !backlog_growing
        && lag_p99_ms <= plan.lag_limit_ms;
    Rung {
        rate,
        p50_ms: stats::median(&latencies),
        tail,
        lag_p99_ms,
        misses,
        errors,
        busy_s,
        throughput,
        backlog_growing,
        passed,
        jobs,
        mismatches: Vec::new(),
        codec_sample: Vec::new(),
    }
}

/// The leg's result.
pub struct Leg {
    /// Every rung run, in ladder order; the first three are low, mid, high.
    pub rungs: Vec<Rung>,
    pub report: ClusterReport,
    pub journal_bytes: u64,
    pub events: Vec<LinkEvent>,
    /// Peak resident memory of the process, MB, when the fixed rates were
    /// done: everything run so far is sized by the plan and the seed alone.
    pub peak_rss_mb: f64,
}

/// Sub-rungs each fixed rate is split into. The three rates take turns, so
/// a slow spell of the machine falls on all of them alike.
const FIXED_CYCLES: usize = 6;

/// Joins one fixed rate's sub-rungs into one rung.
fn merge(plan: &Plan, rate: f64, parts: Vec<Rung>) -> Rung {
    let errors = parts.iter().map(|r| r.errors).sum();
    let busy_s = parts.iter().map(|r| r.busy_s).sum();
    let mut mismatches = Vec::new();
    let mut codec_sample = Vec::new();
    let mut jobs = Vec::new();
    for part in parts {
        mismatches.extend(part.mismatches);
        codec_sample.extend(part.codec_sample);
        jobs.extend(part.jobs);
    }
    Rung {
        mismatches,
        codec_sample,
        ..summarize_rung(plan, rate, jobs, errors, busy_s)
    }
}

/// Runs the fixed rates (interleaved) and the ladder search on a started
/// fleet, then stops the fleet.
pub fn run(plan: &Plan, models: &Models, seed: u64, fleet: Fleet, mut client: Client) -> Leg {
    let mut next_job = 0;
    let mut step = |rung: usize, rate: f64, seconds: f64| {
        let count = (rate * seconds).round().max(1.0) as usize;
        let jobs = schedule(models, seed, rung, rate, count, next_job);
        next_job += jobs.len() as u64;
        run_rung(plan, &mut client, fleet.log.as_deref(), rate, jobs)
    };
    let mut parts: [Vec<Rung>; 3] = Default::default();
    for cycle in 0..FIXED_CYCLES {
        for (i, &rate) in plan.fixed_rates.iter().enumerate() {
            let seconds = plan.fixed_step_s[i] / FIXED_CYCLES as f64;
            parts[i].push(step(cycle * 3 + i, rate, seconds));
        }
    }
    let mut rungs: Vec<Rung> = parts
        .into_iter()
        .zip(plan.fixed_rates)
        .map(|(p, rate)| merge(plan, rate, p))
        .collect();
    // the ladder search's job count follows the machine's speed, and its
    // rungs hold the most frames, so memory is read before it
    let peak_rss_mb = crate::provenance::peak_rss_mb();
    // bisect for the highest passing rung, between virtual rungs that
    // pass below the ladder and fail above it
    let (mut lo, mut hi) = (0, plan.ladder.len() + 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rung = step(100 + mid, plan.ladder[mid - 1], plan.ladder_step_s);
        if rung.passed {
            lo = mid;
        } else {
            hi = mid;
        }
        rungs.push(rung);
    }
    let log = fleet.log.clone();
    drop(client);
    let (report, journal_bytes) = fleet.stop();
    let events = log.map_or_else(Vec::new, |log| {
        std::mem::take(&mut *log.events.lock().expect("never poisoned"))
    });
    Leg {
        rungs,
        report,
        journal_bytes,
        events,
        peak_rss_mb,
    }
}

/// End-to-end figures of the leg.
pub struct Summary {
    pub p50_ms: [f64; 3],
    pub tail: [Tail; 3],
    pub max_rate_jobs_s: f64,
    pub ok_share: f64,
    pub jobs: usize,
    pub errors: usize,
}

pub fn summarize(leg: &Leg) -> Summary {
    let fixed = &leg.rungs[..3];
    let max_rate_jobs_s = leg.rungs[3..]
        .iter()
        .filter(|r| r.passed)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(0.0, |r| r.throughput);
    let jobs: usize = leg.rungs.iter().map(|r| r.jobs.len()).sum();
    let misses: usize = leg.rungs.iter().map(|r| r.misses).sum();
    Summary {
        p50_ms: [fixed[0].p50_ms, fixed[1].p50_ms, fixed[2].p50_ms],
        tail: [fixed[0].tail, fixed[1].tail, fixed[2].tail],
        max_rate_jobs_s,
        ok_share: (jobs - misses) as f64 / jobs as f64,
        jobs,
        errors: leg.rungs.iter().map(|r| r.errors).sum(),
    }
}

/// Adds the traced leg's per-layer metrics to `m`: each job's latency split
/// at the traced links' stamps (pooled over the fixed-rate rungs, whose
/// spans are recorded), and the codec timed on the leg's own frames.
pub fn layers(leg: &Leg, tracer: &Tracer, m: &mut Values) {
    let mut sent: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut received: HashMap<u64, (Instant, u64)> = HashMap::new();
    let mut per_backend = [0usize; BACKENDS];
    let mut overloaded = 0;
    for e in &leg.events {
        match *e {
            LinkEvent::Sent { job, backend, at } => {
                sent.entry(job).or_insert((at, backend));
                per_backend[backend] += 1;
            }
            LinkEvent::Received { job, at, solve_ns } => {
                received.entry(job).or_insert((at, solve_ns));
            }
            LinkEvent::Overloaded => overloaded += 1,
        }
    }
    let (mut route, mut backend, mut solve, mut queue, mut settle) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    for job in leg.rungs[..3].iter().flat_map(|r| &r.jobs) {
        let trace = job.job + 1;
        let root = tracer.record(
            trace,
            0,
            "client.job",
            job.due,
            job.read.unwrap_or(job.written),
            job.line_bytes as f64,
        );
        tracer.record(trace, root, "gen.lag", job.due, job.written, 0.0);
        let (Some(&(s, b)), Some(&(r, solve_ns)), Some(read)) =
            (sent.get(&job.job), received.get(&job.job), job.read)
        else {
            continue;
        };
        tracer.record(trace, root, "cluster.route", job.written, s, b as f64);
        let be = tracer.record(trace, root, "frontend.backend", s, r, b as f64);
        let solve_start = r
            .checked_sub(Duration::from_nanos(solve_ns))
            .unwrap_or(s)
            .max(s);
        tracer.record(trace, be, "job.solve", solve_start, r, 0.0);
        tracer.record(trace, root, "cluster.settle", r, read, 0.0);
        route.push(ms(job.written, s));
        backend.push(ms(s, r));
        solve.push(solve_ns as f64 / 1e6);
        queue.push(ms(s, r) - solve_ns as f64 / 1e6);
        settle.push(ms(r, read));
    }

    // codec, on the leg's own frames, outside any timed window
    let (mut enc, mut dec, mut out_dec) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, outcome) in leg.rungs.iter().flat_map(|r| &r.codec_sample) {
        let request = Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        };
        let t = Instant::now();
        let line = std::hint::black_box(request.to_line());
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(Request::from_line(&line).expect("own frames parse"));
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(outcome) = outcome {
            let line = Response::Outcome {
                outcome: outcome.clone(),
            }
            .to_line();
            let t = Instant::now();
            std::hint::black_box(Response::from_line(&line).expect("own frames parse"));
            out_dec.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let bytes: Vec<f64> = leg
        .rungs
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.line_bytes as f64)
        .collect();
    m.insert("codec.submit_bytes", stats::mean(&bytes));
    m.insert("codec.submit_encode_us", stats::median(&enc));
    m.insert("codec.submit_decode_us", stats::median(&dec));
    m.insert("codec.outcome_decode_us", stats::median(&out_dec));
    m.insert("frontend.backend_ms", stats::median(&backend));
    m.insert("job.solve_ms", stats::median(&solve));
    m.insert("frontend.queue_ms", stats::median(&queue));
    m.insert("frontend.overloaded", overloaded as f64);
    m.insert("cluster.route_ms", stats::median(&route));
    m.insert("cluster.settle_ms", stats::median(&settle));
    let jobs: usize = leg.rungs.iter().map(|r| r.jobs.len()).sum();
    m.insert(
        "cluster.journal_bytes_per_job",
        leg.journal_bytes as f64 / jobs.max(1) as f64,
    );
    let max = *per_backend.iter().max().expect("backends exist") as f64;
    let min = *per_backend.iter().min().expect("backends exist") as f64;
    m.insert("cluster.placement_skew", max / min.max(1.0));
    m.insert("cluster.reroutes", leg.report.reroutes as f64);
    let lags: Vec<f64> = leg.rungs[..3].iter().map(|r| r.lag_p99_ms).collect();
    m.insert("gen.lag_p99_ms", lags.iter().copied().fold(0.0, f64::max));
}

/// The correctness gate's findings: every settled outcome's canonical form
/// was compared with a direct `spec.run()` after its rung; one line per
/// mismatch.
pub fn verify(leg: &Leg) -> Vec<String> {
    let mut errors: Vec<String> = leg
        .rungs
        .iter()
        .flat_map(|r| r.mismatches.clone())
        .collect();
    if leg.report.outcome_mismatches != 0 {
        errors.push(format!(
            "router counted {} outcome mismatches",
            leg.report.outcome_mismatches
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_ising::SpinState;

    fn plan() -> Plan {
        Plan {
            pool: None,
            fixed_rates: [1.0, 2.0, 3.0],
            fixed_step_s: [1.0; 3],
            ladder: vec![4.0],
            ladder_step_s: 1.0,
            tail_limit_ms: 1e6,
            lag_limit_ms: 1e6,
        }
    }

    /// `ok` jobs with latencies 1, 2, … ms, then `missed` jobs that never
    /// settled.
    fn jobs(ok: usize, missed: usize) -> Vec<JobRecord> {
        let t0 = Instant::now();
        let outcome = JobOutcome {
            schema: saim_machine::service::SCHEMA_VERSION,
            job: 0,
            instance_digest: 0,
            outcome_kind: OutcomeKind::Completed,
            best_energy: 0.0,
            last_energy: 0.0,
            mcs: 1,
            elapsed_ns: 1,
            best: SpinState::all_up(1),
            last: SpinState::all_up(1),
        };
        (0..ok + missed)
            .map(|i| JobRecord {
                job: i as u64,
                due: t0,
                written: t0,
                read: (i < ok).then(|| t0 + Duration::from_millis(i as u64 + 1)),
                outcome: (i < ok).then(|| outcome.clone()),
                line_bytes: 1,
            })
            .collect()
    }

    #[test]
    fn misses_are_infinite_latencies_and_fail_the_rung() {
        let rung = summarize_rung(&plan(), 1.0, jobs(20, 10), 0, 1.0);
        // ten misses fill exactly the ten samples beyond the tail
        assert_eq!(rung.tail.value, 20.0);
        assert_eq!((rung.tail.beyond, rung.tail.count), (10, 30));
        assert_eq!(rung.misses, 10);
        assert!(!rung.passed, "a miss counts as over the limit");
        let rung = summarize_rung(&plan(), 1.0, jobs(20, 11), 0, 1.0);
        assert_eq!(rung.tail.value, f64::INFINITY);
        let rung = summarize_rung(&plan(), 1.0, jobs(30, 0), 0, 1.0);
        assert!(rung.passed);
        assert_eq!(rung.p50_ms, 15.5);
    }

    #[test]
    fn schedules_are_seeded_and_hold_their_count_and_rate() {
        let models = Models::new(&Plan {
            pool: Some(4),
            ..plan()
        });
        let a = schedule(&models, 7, 0, 50.0, 40, 0);
        let b = schedule(&models, 7, 0, 50.0, 40, 0);
        assert_eq!(a.len(), 40);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.line == y.line));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.last().expect("jobs").due < Duration::from_secs_f64(40.0 / 50.0));
        let c = schedule(&models, 8, 0, 50.0, 40, 0);
        assert!(a.iter().zip(&c).any(|(x, y)| x.due != y.due));
    }
}
