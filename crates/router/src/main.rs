//! `saim-router` — the sharding NDJSON router binary over
//! [`saim_machine::cluster`].
//!
//! Like `saim-server`, this binary is a thin shell: placement, health
//! tracking, failover, and exactly-once settlement all live in the
//! library's [`Cluster`], where they are unit-tested without sockets. The
//! binary adds deployment glue:
//!
//! - a TCP listener speaking the same schema-versioned NDJSON protocol as
//!   `saim-server` — clients need no changes to talk to a sharded fleet,
//! - `--backend ADDR` (repeatable) naming the `saim-server` shards to
//!   route over,
//! - `--journal PATH` for the write-ahead intent journal that makes job
//!   settlement exactly-once across router restarts,
//! - a stdin admin channel — `shutdown` stops routing and exits (closing
//!   stdin does the same); `stats` prints router counters as JSON,
//! - `--replicas` / `--hedge-ms` / `--hedge-cap` — the hedged k-replica
//!   routing policy ([`ReplicationPolicy`]): how many backends each job is
//!   placed on, the speculation-delay floor, and the fleet-wide budget of
//!   live extra replicas,
//! - `--smoke` — a self-contained loopback self-test used by CI: route
//!   jobs over a real socket across two in-process shards, kill one
//!   mid-stream, and verify every job still settles exactly once with an
//!   outcome bit-identical to a direct in-process run, verify a malformed
//!   frame and a shape-lie model earn typed rejections, then verify a
//!   fully-down fleet sheds with `overloaded` instead of hanging; a second
//!   phase re-runs the fleet with `k = 2` hedged routing and one stalled
//!   shard and verifies speculation alone (no breaker verdict) settles
//!   every job exactly once; a third routes a job through [`TcpLink`], the
//!   deployment transport, to a loopback `saim-server` backend.
//!
//! Run `saim-router --help` for the flag list.

use std::collections::HashMap;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saim_ising::QuboBuilder;
use saim_machine::cluster::{
    BackendLink, BackendState, Cluster, ClusterConfig, FaultyLink, ManagedBackend,
    ReplicationPolicy, TcpLink,
};
use saim_machine::frontend::faults::BackendFaultPlan;
use saim_machine::frontend::{Frontend, FrontendConfig, NdjsonClient, Request, Response};
use saim_machine::service::{JobSpec, SolverSpec};

const USAGE: &str = "\
saim-router: sharding NDJSON router over saim-server backends

USAGE:
    saim-router [OPTIONS]

OPTIONS:
    --listen ADDR       TCP address to serve clients (default 127.0.0.1:7900)
    --backend ADDR      a saim-server shard to route over (repeatable;
                        at least one required)
    --window N          per-backend in-flight window (default 8)
    --probe-ms N        backend health-probe interval in ms (default 25)
    --journal PATH      write-ahead intent journal for exactly-once
                        settlement across router restarts
    --replicas K        backends per job including the primary (default 1;
                        2+ hedges a speculative replica against the tail)
    --hedge-ms N        floor on the speculation delay before a hedge
                        replica fires, in ms (default 50; the effective
                        delay is max of this and the primary's settle EMA)
    --hedge-cap N       fleet-wide cap on live hedge replicas (default 4;
                        due hedges over the cap defer, never drop)
    --smoke             run a loopback failover + hedging self-test and
                        exit (CI hook)
    --help              print this text

ADMIN (stdin):
    shutdown            stop routing and exit; closing stdin does the same
    stats               print router counters as JSON
";

struct Options {
    listen: String,
    backends: Vec<String>,
    window: usize,
    probe_ms: u64,
    journal: Option<PathBuf>,
    replicas: usize,
    hedge_ms: u64,
    hedge_cap: usize,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        let replication = ReplicationPolicy::default();
        Options {
            listen: "127.0.0.1:7900".into(),
            backends: Vec::new(),
            window: 8,
            probe_ms: 25,
            journal: None,
            replicas: replication.k,
            hedge_ms: replication.hedge_delay_ms,
            hedge_cap: replication.max_extra_load,
            smoke: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--backend" => opts.backends.push(value("--backend")?),
            "--window" => {
                let n: usize = value("--window")?
                    .parse()
                    .map_err(|_| "--window needs an integer".to_string())?;
                if n == 0 {
                    return Err("--window must be positive".into());
                }
                opts.window = n;
            }
            "--probe-ms" => {
                let n: u64 = value("--probe-ms")?
                    .parse()
                    .map_err(|_| "--probe-ms needs an integer".to_string())?;
                if n == 0 {
                    return Err("--probe-ms must be positive".into());
                }
                opts.probe_ms = n;
            }
            "--journal" => opts.journal = Some(PathBuf::from(value("--journal")?)),
            "--replicas" => {
                let k: usize = value("--replicas")?
                    .parse()
                    .map_err(|_| "--replicas needs an integer".to_string())?;
                if k == 0 {
                    return Err("--replicas must be at least 1".into());
                }
                opts.replicas = k;
            }
            "--hedge-ms" => {
                opts.hedge_ms = value("--hedge-ms")?
                    .parse()
                    .map_err(|_| "--hedge-ms needs an integer".to_string())?;
            }
            "--hedge-cap" => {
                opts.hedge_cap = value("--hedge-cap")?
                    .parse()
                    .map_err(|_| "--hedge-cap needs an integer".to_string())?;
            }
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn config_of(opts: &Options) -> ClusterConfig {
    ClusterConfig {
        window: opts.window,
        probe_interval: Duration::from_millis(opts.probe_ms),
        journal: opts.journal.clone(),
        replication: ReplicationPolicy {
            k: opts.replicas,
            hedge_delay_ms: opts.hedge_ms,
            max_extra_load: opts.hedge_cap,
        },
        ..ClusterConfig::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("saim-router: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.smoke {
        run_smoke(&opts)
    } else {
        run_router(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("saim-router: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Routing mode: serve clients over the given backends until `shutdown`
/// (or stdin EOF).
fn run_router(opts: &Options) -> Result<(), String> {
    if opts.backends.is_empty() {
        return Err("at least one --backend is required".into());
    }
    let mut links: Vec<Box<dyn BackendLink>> = Vec::new();
    for addr in &opts.backends {
        let link =
            TcpLink::connect(addr).map_err(|e| format!("cannot reach backend {addr}: {e}"))?;
        links.push(Box::new(link));
    }
    let (cluster, _recovery) =
        Cluster::start(config_of(opts), links).map_err(|e| format!("journal: {e}"))?;
    for anomaly in cluster.recovery_anomalies() {
        eprintln!("saim-router: journal recovery: {anomaly}");
    }
    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("cannot bind {}: {e}", opts.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "saim-router: listening on {addr}, routing over {} backends",
        opts.backends.len()
    );
    let serving = cluster.serve(listener);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match line.trim() {
            "" => {}
            "shutdown" => break,
            "stats" => {
                let stats = serde_json::to_string(&cluster.stats())
                    .expect("stats serialize to finite JSON");
                println!("{stats}");
            }
            other => {
                let error = Response::Rejected {
                    code: "unknown_admin".into(),
                    error: format!("unknown admin command {other:?} (try `shutdown` or `stats`)"),
                };
                println!("{}", error.to_line());
            }
        }
    }
    let report = cluster.shutdown();
    let _ = serving.join();
    eprintln!(
        "saim-router: stopped ({} settled, {} unsettled journaled, {} reroutes, {} duplicates dropped)",
        report.fleet.completed + report.fleet.failed + report.fleet.cancelled + report.fleet.expired,
        report.unsettled,
        report.reroutes,
        report.duplicates_dropped
    );
    Ok(())
}

/// A small deterministic instance for the smoke jobs.
fn smoke_spec(job: u64) -> JobSpec {
    let mut b = QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    b.add_pair(0, 1, 0.5).expect("indices in range");
    JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 64 }, job)
        .with_instance_digest(0x5A1A_0000 + job)
}

/// The CI smoke test: two in-process shards behind a real TCP listener,
/// one killed mid-stream; every job must settle exactly once and
/// bit-identical to the direct-run oracle, malformed and shape-lie frames
/// must earn typed rejections, and a fully-down fleet must shed with
/// `overloaded`.
fn run_smoke(opts: &Options) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("saim-router-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let plan = Arc::new(BackendFaultPlan::new());
    let backend_config = FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    };
    let mut shards: Vec<ManagedBackend> = (0..2)
        .map(|b| ManagedBackend::start(backend_config.clone(), scratch.join(format!("drain-{b}"))))
        .collect();
    let links: Vec<Box<dyn BackendLink>> = shards
        .iter_mut()
        .enumerate()
        .map(|(b, shard)| {
            Box::new(FaultyLink::new(shard.link(), Arc::clone(&plan), b)) as Box<dyn BackendLink>
        })
        .collect();
    let config = ClusterConfig {
        window: opts.window,
        probe_interval: Duration::from_millis(10),
        journal: Some(scratch.join("journal.ndjson")),
        ..ClusterConfig::default()
    };
    let (cluster, _recovery) =
        Cluster::start(config, links).map_err(|e| format!("journal: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let serving = cluster.serve(listener);

    let specs: Vec<JobSpec> = (1..=8).map(smoke_spec).collect();
    let mut client = NdjsonClient::connect(&addr.to_string()).map_err(|e| e.to_string())?;
    client
        .send(&Request::Hello { weight: 1 })
        .map_err(|e| e.to_string())?;
    for spec in &specs {
        client
            .send(&Request::Submit {
                spec: spec.clone(),
                priority: 0,
                deadline_ms: None,
            })
            .map_err(|e| e.to_string())?;
    }
    // kill shard 0 while the stream is in flight: its unsettled jobs must
    // fail over to shard 1 and still settle exactly once
    plan.kill(0);
    client
        .set_read_timeout(Duration::from_secs(30))
        .map_err(|e| e.to_string())?;
    let mut accepted = 0usize;
    let mut outcomes = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while outcomes.len() < specs.len() {
        if Instant::now() >= deadline {
            return Err("smoke timed out waiting for outcomes".into());
        }
        match client.recv().map_err(|e| e.to_string())? {
            Response::Accepted { .. } => accepted += 1,
            Response::Outcome { outcome } => {
                if outcomes.insert(outcome.job, outcome).is_some() {
                    return Err("duplicate terminal frame delivered".into());
                }
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    if accepted != specs.len() {
        return Err(format!(
            "expected {} acceptances, saw {accepted}",
            specs.len()
        ));
    }
    for spec in &specs {
        let oracle = spec.run().canonical();
        let got = outcomes
            .get(&spec.job)
            .ok_or_else(|| format!("job {} never settled", spec.job))?;
        if got.canonical() != oracle {
            return Err(format!("job {} outcome diverged from direct run", spec.job));
        }
    }

    // a malformed frame earns a typed rejection, same as saim-server
    client
        .send_raw(b"{malformed\n")
        .map_err(|e| e.to_string())?;
    match client.recv().map_err(|e| e.to_string())? {
        Response::Rejected { code, .. } if code == "json" => {}
        other => return Err(format!("expected a typed json rejection, got {other:?}")),
    }

    // a model that lies about its shape is rejected at ingest, before any
    // shard sees it, and the same connection then serves the honest frame
    let after = smoke_spec(9);
    let line = Request::Submit {
        spec: after.clone(),
        priority: 0,
        deadline_ms: None,
    }
    .to_line();
    let lie = line.replacen("\"n\":6,", "\"n\":3,", 1);
    for frame in [lie, line] {
        client
            .send_raw(format!("{frame}\n").as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let mut next = || client.recv().map_err(|e| e.to_string());
    match (next()?, next()?, next()?) {
        (
            Response::Rejected { code, .. },
            Response::Accepted { job: 9 },
            Response::Outcome { outcome },
        ) if code == "malformed" && outcome.canonical() == after.run().canonical() => {}
        other => return Err(format!("expected malformed, then the job; got {other:?}")),
    }

    // kill the surviving shard too: the router must shed, never hang
    plan.kill(1);
    let both_down = Instant::now() + Duration::from_secs(30);
    loop {
        if Instant::now() >= both_down {
            return Err("router never marked both shards down".into());
        }
        if cluster
            .backend_states()
            .iter()
            .all(|s| *s == BackendState::Down)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    client
        .send(&Request::Submit {
            spec: smoke_spec(99),
            priority: 0,
            deadline_ms: None,
        })
        .map_err(|e| e.to_string())?;
    match client.recv().map_err(|e| e.to_string())? {
        Response::Overloaded { .. } => {}
        other => return Err(format!("expected an overloaded shed, got {other:?}")),
    }

    let report = cluster.shutdown();
    let _ = serving.join();
    if report.unsettled != 0 {
        return Err(format!("{} jobs left unsettled", report.unsettled));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "smoke ok: 8 jobs exactly-once and bit-identical across a shard kill \
         ({} reroutes), malformed and shape-lie frames rejected, fully-down fleet sheds",
        report.reroutes
    );
    run_smoke_hedging()?;
    run_smoke_tcp()
}

/// The hedging smoke phase: k = 2 speculative routing over a two-shard
/// fleet with one shard stalled (it receives work but its responses never
/// arrive). The probe interval is deliberately long, so the breaker cannot
/// fail the stalled shard over within the test window — every job placed
/// there can only settle through its hedge replica. Asserts exactly-once
/// settlement, bit-identity with the direct-run oracle, a wall clock
/// bounded well under the first probe verdict, and live hedge counters.
fn run_smoke_hedging() -> Result<(), String> {
    let scratch =
        std::env::temp_dir().join(format!("saim-router-smoke-hedge-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let plan = Arc::new(BackendFaultPlan::new());
    plan.stall(0);
    let backend_config = FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    };
    let mut shards: Vec<ManagedBackend> = (0..2)
        .map(|b| ManagedBackend::start(backend_config.clone(), scratch.join(format!("drain-{b}"))))
        .collect();
    let links: Vec<Box<dyn BackendLink>> = shards
        .iter_mut()
        .enumerate()
        .map(|(b, shard)| {
            Box::new(FaultyLink::new(shard.link(), Arc::clone(&plan), b)) as Box<dyn BackendLink>
        })
        .collect();
    let config = ClusterConfig {
        probe_interval: Duration::from_secs(5),
        replication: ReplicationPolicy {
            k: 2,
            hedge_delay_ms: 25,
            max_extra_load: 8,
        },
        journal: Some(scratch.join("journal.ndjson")),
        ..ClusterConfig::default()
    };
    let (cluster, _recovery) =
        Cluster::start(config, links).map_err(|e| format!("journal: {e}"))?;
    let handle = cluster.connect();
    let specs: Vec<JobSpec> = (1..=8).map(smoke_spec).collect();
    let started = Instant::now();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let mut outcomes = HashMap::new();
    let deadline = started + Duration::from_secs(4);
    while outcomes.len() < specs.len() {
        if Instant::now() >= deadline {
            return Err(format!(
                "hedging smoke stalled with {}/{} outcomes — speculation never \
                 rescued the stalled shard's jobs",
                outcomes.len(),
                specs.len()
            ));
        }
        match handle.recv_timeout(Duration::from_millis(200)) {
            Some(Response::Outcome { outcome }) => {
                if outcomes.insert(outcome.job, outcome).is_some() {
                    return Err("duplicate terminal frame delivered".into());
                }
            }
            Some(Response::Accepted { .. }) | None => {}
            Some(other) => return Err(format!("unexpected frame {other:?}")),
        }
    }
    let settled_in = started.elapsed();
    for spec in &specs {
        let oracle = spec.run().canonical();
        let got = outcomes
            .get(&spec.job)
            .ok_or_else(|| format!("job {} never settled", spec.job))?;
        if got.canonical() != oracle {
            return Err(format!("job {} outcome diverged from direct run", spec.job));
        }
    }
    let stats = cluster.stats();
    if stats.hedges.fired == 0 {
        return Err("no hedge replicas fired against the stalled shard".into());
    }
    if stats.hedges.won == 0 {
        return Err("no settlement was won by a hedge replica".into());
    }
    if stats.hedges.won + stats.hedges.wasted != stats.hedges.fired {
        return Err(format!(
            "hedge accounting leaked: fired {} != won {} + wasted {}",
            stats.hedges.fired, stats.hedges.won, stats.hedges.wasted
        ));
    }
    if stats.outcome_mismatches != 0 {
        return Err(format!(
            "{} outcome mismatches on a deterministic fleet",
            stats.outcome_mismatches
        ));
    }
    let report = cluster.shutdown();
    if report.unsettled != 0 {
        return Err(format!("{} jobs left unsettled", report.unsettled));
    }
    plan.heal(0);
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "smoke ok: hedged k=2 routing settled {} jobs exactly-once and \
         bit-identical in {}ms against a stalled shard ({} hedges fired, \
         {} won, {} wasted, {} cancels)",
        specs.len(),
        settled_in.as_millis(),
        stats.hedges.fired,
        stats.hedges.won,
        stats.hedges.wasted,
        stats.hedges.cancelled
    );
    Ok(())
}

/// The transport smoke phase: one loopback `Frontend::serve` backend
/// reached over [`TcpLink`], as `run_router` reaches its `--backend`s; a
/// job routed through it must settle bit-identical to the direct run.
fn run_smoke_tcp() -> Result<(), String> {
    let scratch =
        std::env::temp_dir().join(format!("saim-router-smoke-tcp-{}", std::process::id()));
    let backend = Frontend::start(FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let serving = backend.serve(listener);
    let link = TcpLink::connect(&addr.to_string()).map_err(|e| e.to_string())?;
    let (cluster, _recovery) = Cluster::start(ClusterConfig::default(), vec![Box::new(link)])
        .map_err(|e| format!("journal: {e}"))?;
    let handle = cluster.connect();
    let spec = smoke_spec(1);
    handle.submit(spec.clone(), 0, None);
    let deadline = Instant::now() + Duration::from_secs(30);
    let outcome = loop {
        if Instant::now() >= deadline {
            return Err("tcp smoke timed out waiting for the outcome".into());
        }
        match handle.recv_timeout(Duration::from_millis(200)) {
            Some(Response::Outcome { outcome }) => break outcome,
            Some(Response::Accepted { .. }) | None => {}
            Some(other) => return Err(format!("unexpected frame {other:?}")),
        }
    };
    if outcome.canonical() != spec.run().canonical() {
        return Err("job routed over TcpLink diverged from direct run".into());
    }
    let report = cluster.shutdown();
    backend
        .shutdown_to(&scratch)
        .map_err(|e| format!("backend drain: {e}"))?;
    let _ = serving.join();
    let _ = std::fs::remove_dir_all(&scratch);
    if report.fleet.completed != 1 || report.unsettled != 0 {
        return Err(format!("expected one settled job, got {report:?}"));
    }
    println!("smoke ok: a job routed over TcpLink to a loopback backend settled bit-identical");
    Ok(())
}
