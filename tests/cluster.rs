//! Loopback integration tests of the sharded cluster router: in-process
//! `saim-server` fleets behind `saim_machine::cluster`, with every backend
//! fault scripted through `frontend::faults::BackendFaultPlan` (kill,
//! partition + delayed heal, duplicate-outcome replay) and worker holds
//! scripted through each backend's own `FaultPlan`. The `TcpLink` legs
//! route over real sockets instead: to `Frontend::serve` backends, and to
//! fake backends that split or never end a frame.
//!
//! The headline invariant is **exactly-once settlement**: K submitted jobs
//! observe exactly K terminal frames, each bit-identical to the direct
//! `spec.run()` oracle, across backend kills, drain/`--resume` restarts,
//! partitions that heal late, and at-least-once transports that replay
//! outcomes. CI runs this suite in the same 1/2/8-thread matrix as
//! `tests/determinism.rs` (`SAIM_DETERMINISM_THREADS`).

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use saim_ising::QuboBuilder;
use saim_machine::cluster::journal::COMPACT_FLOOR_BYTES;
use saim_machine::cluster::{
    BackendLink, BackendState, Cluster, ClusterConfig, FaultyLink, LinkError, LinkWaker,
    ManagedBackend, ReplicationPolicy, RouterHandle, TcpLink, TOMBSTONE_HORIZON,
};
use saim_machine::frontend::{
    faults::{BackendFaultPlan, FaultPlan},
    Frontend, FrontendConfig, NdjsonClient, Request, Response,
};
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{ClientStats, EnsembleConfig, OutcomeKind, PtConfig};

fn env_workers() -> usize {
    std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// A fast deterministic job; distinct digests spread jobs across shards.
fn quick_spec(job: u64, seed: u64) -> JobSpec {
    let mut b = QuboBuilder::new(5);
    for i in 0..5 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    b.add_pair(0, 1, 0.5).expect("indices in range");
    JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 40 }, seed)
        .with_instance_digest(job.wrapping_mul(0x9E37_79B9) ^ 0xC1u64)
}

/// A unique scratch directory under the system tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("saim-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn backend_config(faults: Option<Arc<FaultPlan>>) -> FrontendConfig {
    FrontendConfig {
        workers: env_workers(),
        faults,
        ..FrontendConfig::default()
    }
}

fn fast_probes() -> ClusterConfig {
    ClusterConfig {
        probe_interval: Duration::from_millis(10),
        ..ClusterConfig::default()
    }
}

/// A k = 2 hedged-routing config. The probe interval doubles as the
/// experiment control: make it long and the breaker cannot rescue anything
/// inside the test window, so any fast settlement is speculation's doing.
fn hedged_config(probe: Duration, hedge_delay_ms: u64, cap: usize) -> ClusterConfig {
    ClusterConfig {
        probe_interval: probe,
        replication: ReplicationPolicy {
            k: 2,
            hedge_delay_ms,
            max_extra_load: cap,
        },
        ..ClusterConfig::default()
    }
}

/// Collects exactly `n` outcome frames from a router handle, panicking on
/// duplicates, failures, or a stall.
fn collect_outcomes(handle: &RouterHandle, n: usize) -> HashMap<u64, JobOutcome> {
    let mut outcomes = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while outcomes.len() < n {
        assert!(
            Instant::now() < deadline,
            "timed out with {}/{n} outcomes settled",
            outcomes.len()
        );
        match handle.recv_timeout(Duration::from_millis(200)) {
            Some(Response::Outcome { outcome }) => {
                let job = outcome.job;
                assert!(
                    outcomes.insert(job, outcome).is_none(),
                    "job {job} delivered a second terminal frame"
                );
            }
            Some(Response::Accepted { .. }) | None => {}
            Some(other) => panic!("unexpected frame {other:?}"),
        }
    }
    outcomes
}

fn assert_oracle(outcomes: &HashMap<u64, JobOutcome>, specs: &[JobSpec]) {
    for spec in specs {
        let oracle = spec.run().canonical();
        let got = outcomes
            .get(&spec.job)
            .unwrap_or_else(|| panic!("job {} never settled", spec.job));
        assert_eq!(
            got.canonical(),
            oracle,
            "job {} diverged from the direct-run oracle",
            spec.job
        );
    }
}

fn wait_for<F: FnMut() -> bool>(mut ready: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole proof, over a real TCP socket: K jobs across a backend
/// kill, failover, and a drain/`--resume` restart observe exactly K
/// terminal frames, each bit-identical to the direct-run oracle — and the
/// restarted shard's recovery stream (re-delivering the work that was
/// already failed over) is absorbed by settlement dedup, after which the
/// shard walks the half-open probe ritual back to `Up`.
#[test]
fn kills_and_restarts_settle_k_jobs_exactly_once_over_tcp() {
    let hold0 = Arc::new(FaultPlan::new());
    let plan = Arc::new(BackendFaultPlan::new());
    // arm the hold before the workers spawn: shard 0's share of the stream
    // is then guaranteed to be unsettled when the kill lands
    hold0.hold_workers();
    let mut b0 = ManagedBackend::start(
        backend_config(Some(Arc::clone(&hold0))),
        scratch_dir("kill-b0"),
    );
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("kill-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let serving = cluster.serve(listener);
    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 90 + j)).collect();
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    client.send(&Request::Hello { weight: 1 }).expect("hello");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    for spec in &specs {
        client
            .send(&Request::Submit {
                spec: spec.clone(),
                priority: 0,
                deadline_ms: None,
            })
            .expect("submit");
    }
    // both shards must own part of the stream for the kill to mean anything
    wait_for(
        || cluster.stats().fleet.accepted == 8,
        "all submits admitted",
    );
    std::thread::sleep(Duration::from_millis(50)); // let the pumps forward
    plan.kill(0);
    wait_for(
        || cluster.backend_states()[0] == BackendState::Down,
        "shard 0 marked down",
    );
    assert!(
        cluster.stats().reroutes > 0,
        "the kill should have forced failovers (placement constants put \
         no jobs on shard 0 — adjust the digests)"
    );

    let mut outcomes = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut accepted = 0;
    while outcomes.len() < specs.len() {
        assert!(Instant::now() < deadline, "outcomes stalled");
        match client.recv().expect("frame") {
            Response::Accepted { .. } => accepted += 1,
            Response::Outcome { outcome } => {
                let job = outcome.job;
                assert!(
                    outcomes.insert(job, outcome).is_none(),
                    "job {job} delivered twice"
                );
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(accepted, specs.len(), "one acceptance per job");
    assert_oracle(&outcomes, &specs);

    // restart the killed shard from its drain directory: the resumed jobs'
    // outcomes re-enter through the recovery link and must all be dropped
    // as duplicates, then the probe ritual re-admits the shard
    let rerouted = cluster.stats().reroutes;
    b0.drain().expect("drain shard 0");
    let link = b0.restart().expect("resume shard 0");
    // the restarted shard gets a fresh, fault-free plan — the old one still
    // has its kill switch thrown
    let healthy = Arc::new(BackendFaultPlan::new());
    cluster.attach_backend(0, Box::new(FaultyLink::new(link, healthy, 0)));
    wait_for(
        || cluster.backend_states()[0] == BackendState::Up,
        "shard 0 re-admitted",
    );
    wait_for(
        || cluster.stats().duplicates_dropped >= rerouted,
        "recovery stream deduplicated",
    );

    // the recovered shard takes new work again
    let extra = quick_spec(100, 7);
    client
        .send(&Request::Submit {
            spec: extra.clone(),
            priority: 0,
            deadline_ms: None,
        })
        .expect("submit");
    let mut tail = HashMap::new();
    loop {
        match client.recv().expect("frame") {
            Response::Accepted { .. } => {}
            Response::Outcome { outcome } => {
                tail.insert(outcome.job, outcome);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_oracle(&tail, &[extra]);

    let report = cluster.shutdown();
    let _ = serving.join();
    assert_eq!(report.fleet.completed, 9, "every job settled exactly once");
    assert_eq!(
        report.duplicates_past_horizon, 0,
        "every recovered duplicate met its tombstone"
    );
    assert_eq!(report.unsettled, 0);
    b0.drain().expect("final drain shard 0");
    b1.drain().expect("final drain shard 1");
}

/// A partition (responses held, backend still computing) trips the breaker
/// and fails the shard's jobs over; the delayed heal then delivers exactly
/// the late duplicate outcomes settlement dedup must drop, and the healed
/// shard walks `Down → HalfOpen → Up`.
#[test]
fn partition_heal_late_duplicates_are_dropped() {
    let hold0 = Arc::new(FaultPlan::new());
    let plan = Arc::new(BackendFaultPlan::new());
    hold0.hold_workers(); // armed before the workers spawn
    let mut b0 = ManagedBackend::start(
        backend_config(Some(Arc::clone(&hold0))),
        scratch_dir("stall-b0"),
    );
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("stall-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let handle = cluster.connect();
    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 30 + j)).collect();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    wait_for(
        || cluster.stats().fleet.accepted == 8,
        "all submits admitted",
    );
    std::thread::sleep(Duration::from_millis(50));
    plan.stall(0);
    wait_for(
        || cluster.backend_states()[0] == BackendState::Down,
        "partitioned shard marked down",
    );
    let rerouted = cluster.stats().reroutes;
    assert!(rerouted > 0, "partition should have forced failovers");

    // the failed-over stream settles on the healthy shard
    let outcomes = collect_outcomes(&handle, specs.len());
    assert_oracle(&outcomes, &specs);

    // meanwhile the partitioned shard finishes its copies into the held
    // buffer; healing releases them late, in order — all duplicates now
    hold0.release_workers();
    std::thread::sleep(Duration::from_millis(100));
    plan.heal(0);
    wait_for(
        || cluster.stats().duplicates_dropped >= rerouted,
        "late outcomes deduplicated",
    );
    wait_for(
        || cluster.backend_states()[0] == BackendState::Up,
        "healed shard re-admitted",
    );

    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 8);
    assert_eq!(report.unsettled, 0);
    assert_eq!(
        report.duplicates_past_horizon, 0,
        "every late duplicate met its tombstone"
    );
    b0.drain().expect("drain shard 0");
    b1.drain().expect("drain shard 1");
}

/// An at-least-once transport that replays every outcome twice still
/// settles each job exactly once.
#[test]
fn duplicate_outcome_replay_settles_each_job_once() {
    let plan = Arc::new(BackendFaultPlan::new());
    plan.duplicate_outcomes(0);
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("dup-b0"));
    let links: Vec<Box<dyn BackendLink>> =
        vec![Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0))];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let handle = cluster.connect();

    let specs: Vec<JobSpec> = (1..=6).map(|j| quick_spec(j, 70 + j)).collect();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let outcomes = collect_outcomes(&handle, specs.len());
    assert_oracle(&outcomes, &specs);
    wait_for(
        || cluster.stats().duplicates_dropped >= specs.len() as u64,
        "every replayed outcome dropped",
    );
    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 6);
    assert_eq!(report.unsettled, 0);
    b0.drain().expect("drain");
}

/// With every shard down the router sheds with `overloaded` — it never
/// hangs and never silently drops a submit.
#[test]
fn fully_down_fleet_sheds_with_overloaded() {
    let plan = Arc::new(BackendFaultPlan::new());
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("shed-b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("shed-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let handle = cluster.connect();

    plan.kill(0);
    plan.kill(1);
    wait_for(
        || {
            cluster
                .backend_states()
                .iter()
                .all(|s| *s == BackendState::Down)
        },
        "both shards down",
    );
    handle.submit(quick_spec(1, 5), 0, None);
    match handle.recv_timeout(Duration::from_secs(10)) {
        Some(Response::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected an overloaded shed, got {other:?}"),
    }
    let report = cluster.shutdown();
    assert_eq!(report.fleet.rejected, 1);
    assert_eq!(report.fleet.accepted, 0);
    b0.drain().expect("drain");
    b1.drain().expect("drain");
}

/// The hedging tentpole: with one shard stalled (it receives work but its
/// responses never arrive) and the probe interval too long for any breaker
/// verdict, k = 2 speculation alone must settle every job exactly once,
/// bit-identical, well before the first probe could even be missed.
#[test]
fn hedged_replicas_rescue_a_stalled_shard_before_any_probe_verdict() {
    let plan = Arc::new(BackendFaultPlan::new());
    plan.stall(0);
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("hedge-b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("hedge-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) =
        Cluster::start(hedged_config(Duration::from_secs(5), 25, 8), links).expect("no journal");
    let handle = cluster.connect();

    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 40 + j)).collect();
    let started = Instant::now();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let outcomes = collect_outcomes(&handle, specs.len());
    let settled_in = started.elapsed();
    assert_oracle(&outcomes, &specs);
    assert!(
        settled_in < Duration::from_secs(4),
        "all jobs settled in {settled_in:?} — inside the first probe \
         interval, so speculation (not failover) did the rescue"
    );

    let stats = cluster.stats();
    assert!(
        stats.hedges.fired > 0,
        "the stalled shard's jobs must have fired hedges (placement \
         constants put no jobs on shard 0 — adjust the seeds)"
    );
    assert!(stats.hedges.won > 0, "a hedge replica won a settlement");
    assert_eq!(
        stats.hedges.won + stats.hedges.wasted,
        stats.hedges.fired,
        "every fired hedge is binned as won or wasted once all jobs settle"
    );
    assert_eq!(stats.outcome_mismatches, 0);
    assert_eq!(stats.reroutes, 0, "no breaker verdict was ever reached");

    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 8);
    assert_eq!(report.unsettled, 0);
    plan.heal(0);
    b0.drain().expect("drain shard 0");
    b1.drain().expect("drain shard 1");
}

/// The speculation control: on a healthy fleet whose jobs settle far
/// faster than the hedge delay, k = 2 never fires a single replica — the
/// deadline-aware delay makes hedging free when the fleet is fast.
#[test]
fn healthy_fleet_fires_no_hedges() {
    let plan = Arc::new(BackendFaultPlan::new());
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("nohedge-b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("nohedge-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) =
        Cluster::start(hedged_config(Duration::from_millis(10), 500, 8), links)
            .expect("no journal");
    let handle = cluster.connect();

    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 50 + j)).collect();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let outcomes = collect_outcomes(&handle, specs.len());
    assert_oracle(&outcomes, &specs);

    let stats = cluster.stats();
    assert_eq!(
        stats.hedges.fired, 0,
        "every job settled inside the hedge delay, so no replica ever fired"
    );
    assert_eq!(stats.hedges.suppressed, 0);
    assert_eq!(stats.duplicates_dropped, 0);

    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 8);
    assert_eq!(report.unsettled, 0);
    b0.drain().expect("drain shard 0");
    b1.drain().expect("drain shard 1");
}

/// A zero extra-load budget suppresses every due hedge (counted, never
/// fired), degrading k = 2 to pure breaker-driven failover — which must
/// still settle every job exactly once.
#[test]
fn zero_hedge_budget_suppresses_speculation_and_fails_over() {
    let plan = Arc::new(BackendFaultPlan::new());
    plan.stall(0);
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("cap0-b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("cap0-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) =
        Cluster::start(hedged_config(Duration::from_millis(50), 25, 0), links).expect("no journal");
    let handle = cluster.connect();

    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 40 + j)).collect();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let outcomes = collect_outcomes(&handle, specs.len());
    assert_oracle(&outcomes, &specs);

    let stats = cluster.stats();
    assert_eq!(stats.hedges.fired, 0, "a zero budget never fires a hedge");
    assert_eq!(stats.hedges.won, 0);
    assert!(
        stats.hedges.suppressed > 0,
        "the stalled shard's due hedges were deferred, visibly"
    );
    assert!(
        stats.reroutes > 0,
        "with speculation off, only the breaker could have rescued the \
         stalled shard's jobs"
    );

    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 8);
    assert_eq!(report.unsettled, 0);
    plan.heal(0);
    b0.drain().expect("drain shard 0");
    b1.drain().expect("drain shard 1");
}

/// The determinism alarm: a stalled shard that also corrupts its outcomes
/// (the wrong-seed script) loses every settlement race; when the
/// partition heals, its late corrupted outcomes must be dropped as
/// duplicates AND counted as outcome mismatches — a correctness signal,
/// never a second terminal frame.
#[test]
fn corrupt_late_loser_raises_the_outcome_mismatch_alarm() {
    let plan = Arc::new(BackendFaultPlan::new());
    plan.stall(0);
    plan.corrupt_outcomes(0);
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("mismatch-b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch_dir("mismatch-b1"));
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0)),
        Box::new(FaultyLink::new(b1.link(), Arc::clone(&plan), 1)),
    ];
    let (cluster, _recovery) =
        Cluster::start(hedged_config(Duration::from_secs(5), 25, 8), links).expect("no journal");
    let handle = cluster.connect();

    let specs: Vec<JobSpec> = (1..=8).map(|j| quick_spec(j, 40 + j)).collect();
    for spec in &specs {
        handle.submit(spec.clone(), 0, None);
    }
    let outcomes = collect_outcomes(&handle, specs.len());
    // every winner came from the healthy shard, so the corruption never
    // reaches a client
    assert_oracle(&outcomes, &specs);
    assert_eq!(cluster.stats().outcome_mismatches, 0);

    // heal the partition: the stalled shard's corrupted completions arrive
    // late, lose the dedup race, and trip the alarm
    plan.heal(0);
    wait_for(
        || cluster.stats().outcome_mismatches >= 1,
        "the late corrupted outcome to trip the mismatch alarm",
    );
    wait_for(
        || cluster.stats().duplicates_dropped >= 1,
        "the late outcome also counted as a dropped duplicate",
    );
    // no second terminal frame reaches the client — only stray acks drain
    while let Some(frame) = handle.recv_timeout(Duration::from_millis(200)) {
        assert!(
            matches!(frame, Response::Accepted { .. }),
            "a dropped duplicate must never surface as {frame:?}"
        );
    }

    let report = cluster.shutdown();
    assert!(report.outcome_mismatches >= 1);
    assert_eq!(report.fleet.completed, 8, "settled exactly once each");
    assert_eq!(report.unsettled, 0);
    assert_eq!(
        report.duplicates_past_horizon, 0,
        "the alarm saw every late outcome"
    );
    b0.drain().expect("drain shard 0");
    b1.drain().expect("drain shard 1");
}

/// With every shard stalled-Down (pumps alive, probes unanswered) the shed
/// hint is derived from the probe cadence — the soonest instant capacity
/// can reappear — rather than the flat configured constant.
#[test]
fn stalled_fleet_sheds_with_a_probe_derived_retry_hint() {
    let plan = Arc::new(BackendFaultPlan::new());
    plan.stall(0);
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("hint-b0"));
    let links: Vec<Box<dyn BackendLink>> =
        vec![Box::new(FaultyLink::new(b0.link(), Arc::clone(&plan), 0))];
    let config = ClusterConfig {
        probe_interval: Duration::from_millis(400),
        // a deliberately huge flat fallback: any hint at or under the probe
        // interval proves it was derived, not configured
        retry_after_ms: 60_000,
        ..ClusterConfig::default()
    };
    let (cluster, _recovery) = Cluster::start(config, links).expect("no journal");
    let handle = cluster.connect();

    wait_for(
        || cluster.backend_states()[0] == BackendState::Down,
        "the stalled shard to trip the breaker",
    );
    handle.submit(quick_spec(1, 5), 0, None);
    match handle.recv_timeout(Duration::from_secs(10)) {
        Some(Response::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1);
            assert!(
                retry_after_ms <= 400,
                "hint {retry_after_ms}ms exceeds the probe cadence — the \
                 flat fallback leaked through"
            );
        }
        other => panic!("expected an overloaded shed, got {other:?}"),
    }
    let report = cluster.shutdown();
    assert_eq!(report.fleet.rejected, 1);
    plan.heal(0);
    b0.drain().expect("drain");
}

/// The router-restart half of exactly-once: jobs journaled but unsettled
/// when the router dies are re-admitted by the next incarnation from the
/// write-ahead journal, complete bit-identically through the restarted
/// backend, and the journal ends fully settled.
#[test]
fn router_restart_replays_journal_and_settles_drained_jobs_bit_identically() {
    let scratch = scratch_dir("journal");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let journal_path = scratch.join("intents.ndjson");
    let hold = Arc::new(FaultPlan::new());
    hold.hold_workers(); // armed before the workers spawn: nothing settles
    let mut backend = ManagedBackend::start(
        backend_config(Some(Arc::clone(&hold))),
        scratch.join("drain"),
    );
    let config = ClusterConfig {
        journal: Some(journal_path.clone()),
        ..fast_probes()
    };
    let specs: Vec<JobSpec> = (1..=6).map(|j| quick_spec(j, 50 + j)).collect();

    // first incarnation: admit everything, settle nothing
    let first_unsettled = {
        let links: Vec<Box<dyn BackendLink>> = vec![backend.link()];
        let (cluster, _recovery) = Cluster::start(config.clone(), links).expect("fresh journal");
        let handle = cluster.connect();
        for spec in &specs {
            handle.submit(spec.clone(), 0, None);
        }
        wait_for(|| cluster.stats().fleet.accepted == 6, "submits admitted");
        std::thread::sleep(Duration::from_millis(100)); // let forwards land
        cluster.shutdown().unsettled
    };
    assert_eq!(first_unsettled, 6, "nothing settled before the crash");
    backend.drain().expect("backend drains its share");

    // second incarnation: journal replay re-admits the jobs, owned by the
    // recovery handle; the restarted backend both resumes its drained copy
    // and receives the re-routed fresh copy — dedup keeps exactly one
    let link = backend.restart().expect("backend resumes");
    let (cluster, recovery) = Cluster::start(config, vec![link]).expect("journal replays");
    assert!(cluster.recovery_anomalies().is_empty(), "clean journal");
    let outcomes = collect_outcomes(&recovery, specs.len());
    assert_oracle(&outcomes, &specs);
    let report = cluster.shutdown();
    assert_eq!(report.fleet.accepted, 6, "recovered jobs re-admitted");
    assert_eq!(report.fleet.completed, 6, "each settled exactly once");
    assert_eq!(report.unsettled, 0);
    drop(recovery);
    backend.drain().expect("final drain");

    // a third open proves the journal closed the loop: every routed gid
    // has its settled record, nothing left to re-route
    let (_journal, replay) =
        saim_machine::cluster::journal::Journal::open(&journal_path).expect("reopen");
    assert!(replay.unsettled.is_empty(), "no orphaned intents");
    assert_eq!(replay.settled, 6);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Cancels route through the cluster: a job already forwarded to a shard
/// is cancelled there and settles exactly once as cancelled; an unknown id
/// earns the typed rejection.
#[test]
fn cancel_settles_exactly_once_through_the_cluster() {
    let hold = Arc::new(FaultPlan::new());
    hold.hold_workers(); // armed before the workers spawn
    let mut backend = ManagedBackend::start(
        backend_config(Some(Arc::clone(&hold))),
        scratch_dir("cancel"),
    );
    let links: Vec<Box<dyn BackendLink>> = vec![backend.link()];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let handle = cluster.connect();

    let spec = quick_spec(7, 77);
    handle.submit(spec.clone(), 0, None);
    wait_for(|| cluster.stats().fleet.accepted == 1, "submit admitted");
    std::thread::sleep(Duration::from_millis(50)); // let the forward land
                                                   // workers stay held: the hub cancels the still-queued job directly, so
                                                   // the terminal frame must be Cancelled, never Completed
    handle.send(Request::Cancel { job: 7 });

    let mut cancelled = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    while cancelled.is_none() {
        assert!(Instant::now() < deadline, "cancel never settled");
        match handle.recv_timeout(Duration::from_millis(200)) {
            Some(Response::Outcome { outcome }) => cancelled = Some(outcome),
            Some(Response::Accepted { .. }) | None => {}
            Some(other) => panic!("unexpected frame {other:?}"),
        }
    }
    let outcome = cancelled.expect("settled");
    assert_eq!(outcome.job, 7);
    assert_eq!(outcome.outcome_kind, OutcomeKind::Cancelled);

    // a second cancel of the now-settled job is the typed unknown-job error
    handle.send(Request::Cancel { job: 7 });
    match handle.recv_timeout(Duration::from_secs(10)) {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "unknown_job"),
        other => panic!("expected unknown_job, got {other:?}"),
    }
    let report = cluster.shutdown();
    assert_eq!(report.fleet.cancelled, 1);
    assert_eq!(report.unsettled, 0);
    backend.drain().expect("drain");
}

/// A router that serves for a day must not grow with the jobs it served:
/// over 10 000 settlements with the journal on, the jobs the router tracks
/// (live plus tombstones) and the journal file both level off after
/// warm-up, online compaction keeps the gid fence, and every outcome still
/// matches the direct-run oracle.
#[test]
fn ten_thousand_settlements_keep_router_state_and_journal_flat() {
    const ROUNDS: u64 = 50;
    const PER_ROUND: u64 = 200;
    let scratch = scratch_dir("bounded");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let journal_path = scratch.join("intents.ndjson");
    let mut b0 = ManagedBackend::start(backend_config(None), scratch.join("b0"));
    let mut b1 = ManagedBackend::start(backend_config(None), scratch.join("b1"));
    let config = ClusterConfig {
        journal: Some(journal_path.clone()),
        // this test checks state bounds, not failover: with a probe a
        // minute apart, no scheduling stall of a loaded debug build can
        // miss `DOWN_AFTER_MISSES` probes in a row and fail jobs over
        probe_interval: Duration::from_secs(60),
        ..ClusterConfig::default()
    };
    let (cluster, _recovery) =
        Cluster::start(config, vec![b0.link(), b1.link()]).expect("fresh journal");
    let handle = cluster.connect();
    let mut samples = Vec::new();
    for round in 0..ROUNDS {
        let specs: Vec<JobSpec> = (0..PER_ROUND)
            .map(|i| {
                let job = round * PER_ROUND + i + 1;
                quick_spec(job, 7_000 + job)
            })
            .collect();
        for spec in &specs {
            handle.submit(spec.clone(), 0, None);
        }
        assert_oracle(&collect_outcomes(&handle, specs.len()), &specs);
        let stats = cluster.stats();
        let journal_bytes = std::fs::metadata(&journal_path)
            .expect("journal exists")
            .len();
        samples.push((stats, journal_bytes));
    }
    // warm-up: the tombstone horizon fills and the journal first compacts
    let warm = ((TOMBSTONE_HORIZON as u64).div_ceil(PER_ROUND) + 1) as usize;
    for (round, (stats, journal_bytes)) in samples.iter().enumerate().skip(warm) {
        assert_eq!(stats.unsettled, 0, "round {round}");
        assert_eq!(
            stats.tombstones, TOMBSTONE_HORIZON as u64,
            "round {round}: tracked jobs must level off at the horizon"
        );
        // between compactions the file grows to the floor, or to
        // `COMPACT_MULTIPLE` times the last rewrite (at most one round's
        // live `routed` records, a fraction of the floor for these specs)
        assert!(
            *journal_bytes <= 2 * COMPACT_FLOOR_BYTES,
            "round {round}: journal grew to {journal_bytes} bytes"
        );
    }
    let (first, last) = (&samples[warm].0, &samples[samples.len() - 1].0);
    assert!(
        last.compactions > first.compactions,
        "the journal kept compacting after warm-up"
    );
    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, ROUNDS * PER_ROUND);
    assert_eq!(report.reroutes, 0, "{report:?}");
    assert_eq!(report.duplicates_dropped, 0, "{report:?}");
    b0.drain().expect("drain");
    b1.drain().expect("drain");
    // the compacted journal replays to nothing owed, fenced past every gid
    let (_journal, replay) =
        saim_machine::cluster::journal::Journal::open(&journal_path).expect("reopen");
    assert!(replay.unsettled.is_empty());
    assert!(replay.anomalies.is_empty(), "{:?}", replay.anomalies);
    assert!(replay.next_gid > ROUNDS * PER_ROUND);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Runs a fixed sequential k = 1 workload against a journaling router and
/// returns the exact journal bytes it produced. Submitting each job only
/// after the previous one settles pins the record order.
fn journal_bytes_for_k1_sequence() -> Vec<u8> {
    let scratch = scratch_dir("journal-bytes");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let journal_path = scratch.join("intents.ndjson");
    let mut backend = ManagedBackend::start(
        FrontendConfig {
            workers: 1, // fixed: the fixture must not vary with the thread matrix
            ..FrontendConfig::default()
        },
        scratch.join("shard"),
    );
    let config = ClusterConfig {
        journal: Some(journal_path.clone()),
        ..fast_probes()
    };
    let links: Vec<Box<dyn BackendLink>> = vec![backend.link()];
    let (cluster, _recovery) = Cluster::start(config, links).expect("fresh journal");
    let handle = cluster.connect();
    for job in 1..=3u64 {
        let spec = quick_spec(job, 60 + job);
        handle.submit(spec.clone(), 0, None);
        let outcomes = collect_outcomes(&handle, 1);
        assert_oracle(&outcomes, &[spec]);
    }
    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 3);
    assert_eq!(report.unsettled, 0);
    backend.drain().expect("drain");
    let bytes = std::fs::read(&journal_path).expect("journal bytes");
    let _ = std::fs::remove_dir_all(&scratch);
    bytes
}

/// The replication upgrade's compatibility contract: under the default
/// `ReplicationPolicy` (k = 1) the router must behave — journal bytes
/// included — exactly as it did before hedging existed. The committed
/// fixture holds the journal an unreplicated router wrote for this same
/// workload; regenerate it with `SAIM_BLESS_JOURNAL=1` only for a
/// deliberate, reviewed format change.
#[test]
fn default_policy_journal_is_byte_identical_to_the_pre_hedging_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pr8_journal.ndjson"
    );
    let bytes = journal_bytes_for_k1_sequence();
    if std::env::var_os("SAIM_BLESS_JOURNAL").is_some() {
        std::fs::write(fixture, &bytes).expect("bless fixture");
        return;
    }
    let expected = std::fs::read(fixture).expect("committed pr8 journal fixture");
    assert_eq!(
        bytes,
        expected,
        "k = 1 journal bytes diverged from the pre-hedging fixture:\n--- got\n{}\n--- want\n{}",
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&expected)
    );
}

/// A fake backend: on its first connection it writes `chunks` with `gap`
/// between them, then keeps the connection open until the peer hangs up.
fn scripted_backend(chunks: Vec<Vec<u8>>, gap: Duration) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("router connects");
        for (i, chunk) in chunks.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(gap);
            }
            if stream.write_all(chunk).is_err() {
                return;
            }
        }
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    addr
}

/// Polls `link` in 10 ms slices until it yields a frame or dies.
fn poll_until_frame_or_death(link: &mut TcpLink) -> Result<Response, LinkError> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "the link stayed quiet");
        if let Some(frame) = link.poll(Duration::from_millis(10))? {
            return Ok(frame);
        }
    }
}

/// A backend frame that straddles several poll timeouts still arrives
/// whole: a healthy but slow backend must not be marked dead.
#[test]
fn tcp_link_keeps_a_frame_split_across_poll_timeouts() {
    let frame = Response::Stats {
        client: ClientStats::default(),
        fleet: ClientStats::default(),
        queue_depth: 2,
        eta_ms: 9,
    };
    let bytes = format!("{}\n", frame.to_line()).into_bytes();
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    let addr = scripted_backend(
        vec![head.to_vec(), tail.to_vec()],
        Duration::from_millis(60),
    );
    let mut link = TcpLink::connect(&addr).expect("connect");
    match poll_until_frame_or_death(&mut link) {
        Ok(got) => assert_eq!(got, frame),
        Err(e) => panic!("a split frame from a healthy backend killed the link: {e}"),
    }
}

/// A backend line that never ends is cut off at the protocol's 1 MiB frame
/// cap and kills the link, instead of growing the router's buffer forever.
#[test]
fn tcp_link_reports_an_endless_backend_line_dead() {
    let addr = scripted_backend(vec![vec![b'x'; 2 << 20]], Duration::ZERO);
    let mut link = TcpLink::connect(&addr).expect("connect");
    match poll_until_frame_or_death(&mut link) {
        Err(e) => assert!(e.0.contains("exceeds"), "unexpected death: {e}"),
        Ok(frame) => panic!("an endless line parsed as {frame:?}"),
    }
}

/// A loopback TCP relay in front of one backend; `cut` closes both of its
/// sockets, as the death of the backend's process would.
struct Relay {
    addr: String,
    sockets: Arc<Mutex<Vec<TcpStream>>>,
}

impl Relay {
    fn start(upstream: String) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let sockets = Arc::new(Mutex::new(Vec::new()));
        let registry = Arc::clone(&sockets);
        std::thread::spawn(move || {
            let (down, _) = listener.accept().expect("router connects");
            let up = TcpStream::connect(&upstream).expect("backend listens");
            let clone = |s: &TcpStream| s.try_clone().expect("socket clones");
            for s in [&down, &up] {
                s.set_nodelay(true).expect("nodelay");
            }
            registry
                .lock()
                .expect("relay lock")
                .extend([clone(&down), clone(&up)]);
            for (mut from, mut to) in [(clone(&down), clone(&up)), (up, down)] {
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Both);
                });
            }
        });
        Relay { addr, sockets }
    }

    fn cut(&self) {
        for socket in self.sockets.lock().expect("relay lock").iter() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

/// A cheap job of one of the three solver kinds, by `job % 3`.
fn mixed_spec(job: u64) -> JobSpec {
    let solver = match job % 3 {
        0 => SolverSpec::Descent { max_sweeps: 40 },
        1 => SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            mcs_per_run: 60,
            ..EnsembleConfig::default()
        }),
        _ => SolverSpec::Pt(PtConfig {
            replicas: 3,
            sweeps: 40,
            threads: 1,
            ..PtConfig::default()
        }),
    };
    JobSpec {
        solver,
        ..quick_spec(job, 300 + job)
    }
}

/// The deployment transport end to end: two `Frontend::serve` backends
/// behind the router over `TcpLink`. A mixed stream settles exactly once
/// and bit-identically on both; then backend 0's connection dies, the
/// router marks it down, and later jobs settle on backend 1.
#[test]
fn tcp_links_route_a_mixed_stream_and_fail_over_a_dead_backend() {
    let start_backend = || {
        let frontend = Frontend::start(backend_config(None));
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let serving = frontend.serve(listener);
        (frontend, addr, serving)
    };
    let (f0, addr0, serving0) = start_backend();
    let (f1, addr1, serving1) = start_backend();
    let relay = Relay::start(addr0);
    let links: Vec<Box<dyn BackendLink>> = vec![
        Box::new(TcpLink::connect(&relay.addr).expect("relay accepts")),
        Box::new(TcpLink::connect(&addr1).expect("backend 1 accepts")),
    ];
    let (cluster, _recovery) = Cluster::start(fast_probes(), links).expect("no journal");
    let handle = cluster.connect();

    let first: Vec<JobSpec> = (1..=9).map(mixed_spec).collect();
    for spec in &first {
        handle.submit(spec.clone(), 0, None);
    }
    assert_oracle(&collect_outcomes(&handle, first.len()), &first);
    let on_b1 = f1.fleet_stats().completed;
    assert!(
        f0.fleet_stats().completed > 0 && on_b1 > 0,
        "both backends must carry part of the stream"
    );

    relay.cut();
    wait_for(
        || cluster.backend_states()[0] == BackendState::Down,
        "backend 0 marked down",
    );
    let rest: Vec<JobSpec> = (10..=15).map(mixed_spec).collect();
    for spec in &rest {
        handle.submit(spec.clone(), 0, None);
    }
    assert_oracle(&collect_outcomes(&handle, rest.len()), &rest);
    assert_eq!(
        f1.fleet_stats().completed - on_b1,
        rest.len() as u64,
        "every later job settled on backend 1"
    );

    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 15, "settled exactly once each");
    assert_eq!(report.unsettled, 0);
    assert_eq!(report.duplicates_dropped, 0);
    for (frontend, serving, tag) in [(f0, serving0, "tcp-b0"), (f1, serving1, "tcp-b1")] {
        frontend.shutdown_to(&scratch_dir(tag)).expect("drain");
        serving.join().expect("serve thread");
    }
}

/// Counts a link's polls and forwards its waker.
struct CountingLink {
    inner: Box<dyn BackendLink>,
    polls: Arc<AtomicU64>,
}

impl BackendLink for CountingLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        self.inner.send(request)
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.inner.poll(timeout)
    }

    fn waker(&self) -> Option<LinkWaker> {
        self.inner.waker()
    }
}

/// An idle pump sleeps until its next probe instead of polling on a fixed
/// cadence, and a submit wakes it at once.
#[test]
fn idle_pump_sleeps_until_woken() {
    let mut b0 = ManagedBackend::start(backend_config(None), scratch_dir("idle-b0"));
    let polls = Arc::new(AtomicU64::new(0));
    let links: Vec<Box<dyn BackendLink>> = vec![Box::new(CountingLink {
        inner: b0.link(),
        polls: Arc::clone(&polls),
    })];
    let config = ClusterConfig {
        probe_interval: Duration::from_secs(60),
        ..ClusterConfig::default()
    };
    let (cluster, _recovery) = Cluster::start(config, links).expect("no journal");
    let handle = cluster.connect();
    std::thread::sleep(Duration::from_millis(500));
    let idle = polls.load(Ordering::Relaxed);
    assert!(idle <= 5, "an idle pump polled {idle} times in 500 ms");

    let spec = quick_spec(1, 11);
    let submitted = Instant::now();
    handle.submit(spec.clone(), 0, None);
    let outcome = loop {
        assert!(
            submitted.elapsed() < Duration::from_secs(2),
            "the submit never woke the pump"
        );
        match handle.recv_timeout(Duration::from_millis(50)) {
            Some(Response::Outcome { outcome }) => break outcome,
            Some(Response::Accepted { .. }) | None => {}
            Some(other) => panic!("unexpected frame {other:?}"),
        }
    };
    assert_oracle(&HashMap::from([(outcome.job, outcome)]), &[spec]);
    let report = cluster.shutdown();
    assert_eq!(report.fleet.completed, 1);
    b0.drain().expect("drain");
}
