//! Loopback-TCP integration tests of the fault-tolerant network front-end:
//! real sockets speaking the NDJSON protocol against a live worker fleet,
//! with every degradation scripted through `frontend::faults` or produced
//! with raw socket writes (truncated, interleaved, oversized, and
//! slow-loris frames).
//!
//! The headline invariant is **no lost jobs**: every job a server accepts
//! produces exactly one terminal frame — outcome, failure — or survives a
//! drain and completes bit-identically after resume, under every fault in
//! the harness. CI runs this suite in the same 1/2/8-thread matrix as
//! `tests/determinism.rs` (`SAIM_DETERMINISM_THREADS`).

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saim_ising::QuboBuilder;
use saim_machine::cluster::{Cluster, ClusterConfig, InProcessLink};
use saim_machine::frontend::{
    faults::FaultPlan, Backoff, Frontend, FrontendConfig, NdjsonClient, Request, Response,
    MAX_FRAME_BYTES,
};
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{ClientStats, EnsembleConfig, OutcomeKind};

fn env_workers() -> usize {
    std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// A fast deterministic job.
fn quick_spec(job: u64, seed: u64) -> JobSpec {
    let mut b = QuboBuilder::new(5);
    for i in 0..5 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    b.add_pair(0, 1, 0.5).expect("indices in range");
    JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 40 }, seed)
        .with_instance_digest(job ^ 0xBEEF)
}

/// A job slow enough to be caught mid-run by cancels and drains.
fn slow_spec(job: u64, seed: u64) -> JobSpec {
    let mut b = QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    JobSpec::new(
        job,
        b.build(),
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            mcs_per_run: 4000,
            ..EnsembleConfig::default()
        }),
        seed,
    )
}

/// Boots a fleet on an OS-assigned loopback port; returns the frontend and
/// the address clients dial.
fn serve(config: FrontendConfig) -> (Frontend, String) {
    let frontend = Frontend::start(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    frontend.serve(listener);
    (frontend, addr)
}

fn test_config(workers: usize, faults: Option<Arc<FaultPlan>>) -> FrontendConfig {
    FrontendConfig {
        workers,
        faults,
        ..FrontendConfig::default()
    }
}

/// A unique scratch directory under the system tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("saim-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

#[test]
fn malformed_frames_earn_typed_rejections_and_the_session_survives() {
    let (frontend, addr) = serve(test_config(1, None));
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    let expect_code = |client: &mut NdjsonClient, want: &str| match client.recv().expect("frame") {
        Response::Rejected { code, .. } => assert_eq!(code, want),
        other => panic!("expected a {want} rejection, got {other:?}"),
    };
    client.send_raw(b"{broken json\n").expect("write");
    expect_code(&mut client, "json");
    client
        .send_raw(b"{\"schema\":99,\"frame\":\"stats\"}\n")
        .expect("write");
    expect_code(&mut client, "version");
    client
        .send_raw(b"{\"schema\":3,\"frame\":\"warp\"}\n")
        .expect("write");
    expect_code(&mut client, "unknown_frame");
    client
        .send_raw(b"{\"schema\":3,\"frame\":\"stats\",\"x\":1}\n")
        .expect("write");
    expect_code(&mut client, "unknown_field");
    // four strikes and the session still schedules real work
    let spec = quick_spec(1, 3);
    client
        .send(&Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        client.recv().expect("frame"),
        Response::Accepted { job: 1 }
    ));
    match client.recv().expect("frame") {
        Response::Outcome { outcome } => {
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        other => panic!("expected the outcome, got {other:?}"),
    }
    let fleet = frontend.fleet_stats();
    assert_eq!(fleet.completed, 1);
    assert_eq!(fleet.rejected, 0, "parse rejections are not admissions");
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_is_dropped() {
    let mut config = test_config(1, None);
    config.max_frame_bytes = 1024;
    let (frontend, addr) = serve(config);
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    let mut big = vec![b'a'; 4096];
    big.push(b'\n');
    client.send_raw(&big).expect("write");
    match client.recv().expect("the rejection frame arrives first") {
        Response::Rejected { code, .. } => assert_eq!(code, "oversized"),
        other => panic!("expected oversized rejection, got {other:?}"),
    }
    // the framing is untrusted after an overrun: server hangs up
    assert!(client.recv().is_err(), "connection should be closed");
    // and the listener still accepts fresh sessions
    let mut again = NdjsonClient::connect(&addr).expect("reconnect");
    again
        .send(&Request::Submit {
            spec: quick_spec(2, 1),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        again.recv().expect("frame"),
        Response::Accepted { job: 2 }
    ));
    drop(frontend);
}

#[test]
fn truncated_and_interleaved_partial_frames_are_handled() {
    let (frontend, addr) = serve(test_config(1, None));
    // a frame dribbled in over several writes parses once the newline lands
    let mut slow = NdjsonClient::connect(&addr).expect("connect");
    let spec = quick_spec(7, 9);
    let line = format!(
        "{}\n",
        Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        }
        .to_line()
    );
    let bytes = line.as_bytes();
    for chunk in bytes.chunks(bytes.len() / 3 + 1) {
        slow.send_raw(chunk).expect("write");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(matches!(
        slow.recv().expect("frame"),
        Response::Accepted { job: 7 }
    ));
    match slow.recv().expect("frame") {
        Response::Outcome { outcome } => {
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        other => panic!("expected the outcome, got {other:?}"),
    }
    // a connection dying mid-frame must not wedge the server
    {
        let mut dying = TcpStream::connect(&addr).expect("connect");
        dying
            .write_all(b"{\"schema\":3,\"frame\":\"sub")
            .expect("write");
        // dropped here: EOF with half a frame buffered
    }
    std::thread::sleep(Duration::from_millis(50));
    let mut after = NdjsonClient::connect(&addr).expect("reconnect");
    after.send(&Request::Stats).expect("write");
    assert!(matches!(
        after.recv().expect("frame"),
        Response::Stats { .. }
    ));
    drop(frontend);
}

#[test]
fn slow_loris_writers_are_kicked_without_blocking_other_sessions() {
    let mut config = test_config(1, None);
    config.read_timeout = Duration::from_millis(150);
    let (frontend, addr) = serve(config);
    let mut loris = TcpStream::connect(&addr).expect("connect");
    loris.write_all(b"{\"schema\":3,").expect("write");
    // while the loris stalls mid-frame, an honest session does real work
    let mut honest = NdjsonClient::connect(&addr).expect("connect");
    honest
        .send(&Request::Submit {
            spec: quick_spec(1, 1),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        honest.recv().expect("frame"),
        Response::Accepted { job: 1 }
    ));
    assert!(matches!(
        honest.recv().expect("frame"),
        Response::Outcome { .. }
    ));
    // the stalled writer is disconnected once the read timeout fires
    std::thread::sleep(Duration::from_millis(400));
    loris
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    let mut buf = [0u8; 16];
    let kicked = matches!(std::io::Read::read(&mut loris, &mut buf), Ok(0) | Err(_));
    assert!(kicked, "half-frame writer should have been disconnected");
    drop(frontend);
}

#[test]
fn overload_is_shed_with_retry_hints_and_backoff_recovers() {
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let mut config = test_config(1, Some(Arc::clone(&plan)));
    config.max_queued_per_client = 2;
    let (frontend, addr) = serve(config);
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    for job in 0..2u64 {
        client
            .send(&Request::Submit {
                spec: quick_spec(job, job),
                priority: 0,
                deadline_ms: None,
            })
            .expect("write");
        assert!(matches!(
            client.recv().expect("frame"),
            Response::Accepted { .. }
        ));
    }
    // the budget is full: a plain submit is shed with a typed hint
    client
        .send(&Request::Submit {
            spec: quick_spec(9, 9),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    match client.recv().expect("frame") {
        Response::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected overload shed, got {other:?}"),
    }
    // free the fleet on a timer, as a real recovery would
    let unblock = std::thread::spawn({
        let plan = Arc::clone(&plan);
        move || {
            std::thread::sleep(Duration::from_millis(60));
            plan.release_workers();
        }
    });
    // the deterministic backoff client retries its way in; the two queued
    // outcomes arrive first on the ordered stream
    let mut backoff = Backoff::new(7, 5, 200);
    let response = client
        .submit_retrying(&quick_spec(9, 9), 0, None, &mut backoff, 32)
        .expect("socket");
    let mut seen = vec![];
    let mut current = response;
    loop {
        match current {
            Response::Accepted { job: 9 } => break,
            Response::Outcome { ref outcome } => seen.push(outcome.job),
            other => panic!("unexpected frame while retrying: {other:?}"),
        }
        current = client.recv().expect("frame");
    }
    // collect the remaining outcomes: all three jobs settle exactly once
    while seen.len() < 3 {
        match client.recv().expect("frame") {
            Response::Outcome { outcome } => seen.push(outcome.job),
            other => panic!("expected outcomes, got {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 9]);
    unblock.join().expect("timer thread");
    let fleet = frontend.fleet_stats();
    assert_eq!(fleet.accepted, 3);
    assert_eq!(fleet.completed, 3);
    assert!(fleet.rejected >= 1, "at least the first shed is counted");
}

#[test]
fn client_disconnect_cancels_queued_and_running_work() {
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let (frontend, addr) = serve(test_config(1, Some(Arc::clone(&plan))));
    let mut doomed = NdjsonClient::connect(&addr).expect("connect");
    let mut survivor = NdjsonClient::connect(&addr).expect("connect");
    for job in 0..3u64 {
        doomed
            .send(&Request::Submit {
                spec: slow_spec(job, job),
                priority: 0,
                deadline_ms: None,
            })
            .expect("write");
        assert!(matches!(
            doomed.recv().expect("frame"),
            Response::Accepted { .. }
        ));
    }
    survivor
        .send(&Request::Submit {
            spec: quick_spec(10, 1),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        survivor.recv().expect("frame"),
        Response::Accepted { job: 10 }
    ));
    drop(doomed);
    // Let the reader thread register the EOF before any worker wakes: the
    // dead client's jobs are all still queued, so cleanup cancels them on
    // the spot. Releasing first is a race — the lone worker can run a
    // doomed job to completion before the disconnect is even noticed.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while frontend.fleet_stats().cancelled < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect cleanup never cancelled the dead client's queue: {:?}",
            frontend.fleet_stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    plan.release_workers();
    match survivor.recv().expect("frame") {
        Response::Outcome { outcome } => assert_eq!(outcome.job, 10),
        other => panic!("expected the survivor's outcome, got {other:?}"),
    }
    // the dead client's work was cancelled, not leaked
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let fleet = frontend.fleet_stats();
        if fleet.cancelled == 3 && fleet.accepted == fleet.settled() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect cleanup never settled: {fleet:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn injected_worker_panics_surface_as_failures_and_the_fleet_survives() {
    let plan = Arc::new(FaultPlan::new());
    plan.panic_on_job(13);
    let (frontend, addr) = serve(test_config(1, Some(plan)));
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    client
        .send(&Request::Submit {
            spec: quick_spec(13, 1).with_instance_digest(0xD16),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        client.recv().expect("frame"),
        Response::Accepted { job: 13 }
    ));
    match client.recv().expect("frame") {
        Response::Failure {
            job,
            instance_digest,
            message,
        } => {
            assert_eq!(job, 13);
            assert_eq!(instance_digest, 0xD16);
            assert!(message.contains("injected worker panic"));
        }
        other => panic!("expected a failure frame, got {other:?}"),
    }
    // the worker that caught the panic keeps serving
    let spec = quick_spec(14, 2);
    client
        .send(&Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(
        client.recv().expect("frame"),
        Response::Accepted { job: 14 }
    ));
    match client.recv().expect("frame") {
        Response::Outcome { outcome } => {
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        other => panic!("expected the outcome, got {other:?}"),
    }
    let fleet = frontend.fleet_stats();
    assert_eq!((fleet.failed, fleet.completed), (1, 1));
}

#[test]
fn skewed_clocks_expire_queued_deadlines_without_burning_workers() {
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let (frontend, addr) = serve(test_config(1, Some(Arc::clone(&plan))));
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    client
        .send(&Request::Submit {
            spec: quick_spec(21, 1),
            priority: 0,
            deadline_ms: Some(5_000),
        })
        .expect("write");
    assert!(matches!(
        client.recv().expect("frame"),
        Response::Accepted { job: 21 }
    ));
    plan.set_skew_ms(120_000);
    plan.release_workers();
    match client.recv().expect("frame") {
        Response::Outcome { outcome } => {
            assert_eq!(outcome.job, 21);
            assert_eq!(outcome.outcome_kind, OutcomeKind::DeadlineExceeded);
            assert_eq!(outcome.mcs, 0, "expired at dequeue, no engine spin-up");
        }
        other => panic!("expected a deadline outcome, got {other:?}"),
    }
    assert_eq!(frontend.fleet_stats().expired, 1);
}

/// The no-lost-jobs invariant under a composite fault script: panics and
/// clock skew while three clients race — every accepted job settles in
/// exactly one terminal frame, at every matrix worker count.
#[test]
fn every_accepted_job_settles_exactly_once_under_faults() {
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    // panic scripts target deadline-free jobs: a job whose deadline has
    // already expired is shed at dequeue and never reaches the worker body
    plan.panic_on_job(101);
    plan.panic_on_job(204);
    let (frontend, addr) = serve(test_config(env_workers(), Some(Arc::clone(&plan))));
    let mut clients: Vec<NdjsonClient> = (0..3)
        .map(|_| NdjsonClient::connect(&addr).expect("connect"))
        .collect();
    let mut accepted: Vec<Vec<u64>> = vec![vec![]; 3];
    for (c, client) in clients.iter_mut().enumerate() {
        for k in 0..6u64 {
            let job = (c as u64 + 1) * 100 + k;
            // a couple of jobs per client carry deadlines the skew will blow
            let deadline = if k % 3 == 2 { Some(10_000) } else { None };
            client
                .send(&Request::Submit {
                    spec: quick_spec(job, job),
                    priority: (k % 2) as u8,
                    deadline_ms: deadline,
                })
                .expect("write");
            match client.recv().expect("frame") {
                Response::Accepted { job: got } => {
                    assert_eq!(got, job);
                    accepted[c].push(job);
                }
                other => panic!("expected acceptance, got {other:?}"),
            }
        }
    }
    plan.set_skew_ms(60_000);
    plan.release_workers();
    let mut terminal: HashMap<u64, &'static str> = HashMap::new();
    for (c, client) in clients.iter_mut().enumerate() {
        for _ in 0..accepted[c].len() {
            let (job, kind) = match client.recv().expect("terminal frame") {
                Response::Outcome { outcome } => (
                    outcome.job,
                    match outcome.outcome_kind {
                        OutcomeKind::Completed => "completed",
                        OutcomeKind::DeadlineExceeded => "expired",
                        other => panic!("unexpected terminal kind {other:?}"),
                    },
                ),
                Response::Failure { job, .. } => (job, "failed"),
                other => panic!("expected a terminal frame, got {other:?}"),
            };
            assert!(
                terminal.insert(job, kind).is_none(),
                "job {job} settled twice"
            );
        }
    }
    let all_accepted: Vec<u64> = accepted.concat();
    assert_eq!(terminal.len(), all_accepted.len());
    for job in &all_accepted {
        assert!(terminal.contains_key(job), "job {job} never settled");
    }
    assert_eq!(terminal[&101], "failed");
    assert_eq!(terminal[&204], "failed");
    let expired = terminal.values().filter(|k| **k == "expired").count();
    assert_eq!(expired, 6, "every deadline-carrying job expired under skew");
    let fleet = frontend.fleet_stats();
    assert_eq!(fleet.accepted, 18);
    assert_eq!(fleet.accepted, fleet.settled());
    assert_eq!(fleet.failed, 2);
    assert_eq!(fleet.expired, 6);
}

/// Drain mid-stream over TCP, resume at the matrix worker count, and
/// require the recovered outcomes to be bit-identical to never-interrupted
/// runs.
#[test]
fn drain_and_resume_over_tcp_replays_bit_identically() {
    let dir = scratch_dir("drain");
    let specs: Vec<JobSpec> = (0..5u64).map(|j| slow_spec(j, j + 40)).collect();
    let plan = Arc::new(FaultPlan::new());
    plan.hold_workers();
    let (frontend, addr) = serve(test_config(1, Some(Arc::clone(&plan))));
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    for spec in &specs {
        client
            .send(&Request::Submit {
                spec: spec.clone(),
                priority: 0,
                deadline_ms: None,
            })
            .expect("write");
        assert!(matches!(
            client.recv().expect("frame"),
            Response::Accepted { .. }
        ));
    }
    plan.release_workers();
    while plan.dequeue_log().is_empty() {
        std::thread::yield_now();
    }
    let report = frontend.shutdown_to(&dir).expect("drain");
    // frames delivered before the drain still count toward coverage
    let mut outcomes: HashMap<u64, JobOutcome> = HashMap::new();
    client
        .set_read_timeout(Duration::from_millis(300))
        .expect("timeout");
    while let Ok(Response::Outcome { outcome }) = client.recv() {
        outcomes.insert(outcome.job, outcome);
    }
    assert_eq!(
        outcomes.len() + report.checkpointed + report.pending,
        specs.len(),
        "accepted work is finished, checkpointed, or persisted"
    );
    // restart at the matrix worker count and finish the drained jobs
    let (resumed, recovery) =
        Frontend::resume(test_config(env_workers(), None), &dir).expect("resume");
    while outcomes.len() < specs.len() {
        match recovery.recv_timeout(Duration::from_secs(60)) {
            Some(Response::Outcome { outcome }) => {
                outcomes.insert(outcome.job, outcome);
            }
            Some(Response::Accepted { .. }) => {}
            Some(other) => panic!("unexpected recovery frame: {other:?}"),
            None => panic!("recovery stream dried up early"),
        }
    }
    for spec in &specs {
        let outcome = outcomes.get(&spec.job).expect("job recovered");
        assert_eq!(outcome.outcome_kind, OutcomeKind::Completed);
        assert_eq!(
            outcome.canonical(),
            spec.run().canonical(),
            "job {} diverged after resume",
            spec.job
        );
    }
    drop(recovery);
    drop(resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame cut by a read timeout is not lost: the client keeps the bytes it
/// already read, so after one timeout the next `recv` returns the whole
/// frame instead of a parse error on its tail.
#[test]
fn recv_keeps_a_frame_split_across_a_read_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let frame = Response::Stats {
        client: ClientStats::default(),
        fleet: ClientStats::default(),
        queue_depth: 3,
        eta_ms: 40,
    };
    let bytes = format!("{}\n", frame.to_line()).into_bytes();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("client connects");
        let half = bytes.len() / 2;
        stream.write_all(&bytes[..half]).expect("first half");
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&bytes[half..]).expect("second half");
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    std::thread::sleep(Duration::from_millis(20)); // the first half lands
    client
        .set_read_timeout(Duration::from_millis(10))
        .expect("timeout");
    let timed_out = client.recv().expect_err("the frame is still incomplete");
    assert!(
        matches!(
            timed_out.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a timeout, got {timed_out}"
    );
    client
        .set_read_timeout(Duration::from_secs(5))
        .expect("timeout");
    assert_eq!(client.recv().expect("the whole frame"), frame);
    drop(client);
    server.join().expect("server thread");
}

#[test]
fn recv_refuses_a_line_past_the_frame_cap() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("client connects");
        // a peer that never ends its line
        let _ = stream.write_all(&vec![b'x'; MAX_FRAME_BYTES + 2]);
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    let mut client = NdjsonClient::connect(&addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(5))
        .expect("timeout");
    let err = client.recv().expect_err("the line is over the cap");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "got {err}");
    drop(client);
    server.join().expect("server thread");
}

/// Whether `thread` finishes within `limit`.
fn joins_within(thread: &JoinHandle<()>, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while !thread.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Dropping a serving frontend closes its listener: the accept loop must
/// not outlive the fleet it hands sessions to.
#[test]
fn a_dropped_frontend_stops_listening() {
    let frontend = Frontend::start(test_config(1, None));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound");
    let serving = frontend.serve(listener);
    drop(frontend);
    assert!(
        joins_within(&serving, Duration::from_secs(1)),
        "the accept loop outlived its frontend"
    );
    serving.join().expect("the accept loop exits cleanly");
    let refused = TcpStream::connect(addr).expect_err("nothing listens after the drop");
    assert_eq!(refused.kind(), ErrorKind::ConnectionRefused);
}

/// The hostile-line table, run against one served face: each case is the
/// bytes sent, the rejection code they earn (`None`: no answer at all), and
/// whether the session survives them. A fresh connection is then served
/// bit-identically to the direct run.
fn hostile_lines_leave_the_face_serving(addr: &str) {
    let mut oversized = vec![b'x'; MAX_FRAME_BYTES + 1];
    oversized.push(b'\n');
    let cases: [(&str, Vec<u8>, Option<&str>, bool); 3] = [
        ("blank line", b"\n".to_vec(), None, true),
        (
            "malformed json",
            b"{malformed\n".to_vec(),
            Some("json"),
            true,
        ),
        ("line over the cap", oversized, Some("oversized"), false),
    ];
    let mut client = NdjsonClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("socket option");
    for (case, bytes, code, survives) in cases {
        client.send_raw(&bytes).expect("write");
        if let Some(want) = code {
            match client.recv() {
                Ok(Response::Rejected { code, .. }) => assert_eq!(code, want, "{case}"),
                other => panic!("{case}: expected a {want} rejection, got {other:?}"),
            }
        }
        if survives {
            // the next answer is this probe's, so the case earned no other
            client.send(&Request::Stats).expect("write");
            assert!(
                matches!(client.recv(), Ok(Response::Stats { .. })),
                "{case}: the session did not survive"
            );
        } else {
            let closed = client.recv().expect_err("the face hangs up");
            assert_eq!(closed.kind(), ErrorKind::UnexpectedEof, "{case}");
        }
    }
    let spec = quick_spec(1, 11);
    let mut fresh = NdjsonClient::connect(addr).expect("reconnect");
    fresh
        .set_read_timeout(Duration::from_secs(30))
        .expect("socket option");
    fresh
        .send(&Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        })
        .expect("write");
    assert!(matches!(fresh.recv(), Ok(Response::Accepted { job: 1 })));
    match fresh.recv() {
        Ok(Response::Outcome { outcome }) => {
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        other => panic!("expected the outcome, got {other:?}"),
    }
}

/// Both TCP faces, `saim-server`'s and `saim-router`'s, run one session
/// layer: the same hostile lines get the same answers on each, and each
/// accept loop returns promptly once its owner shuts down.
#[test]
fn both_tcp_faces_answer_hostile_lines_alike_and_stop_promptly() {
    let dir = scratch_dir("faces");
    let frontend = Frontend::start(test_config(env_workers(), None));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let serving = frontend.serve(listener);
    hostile_lines_leave_the_face_serving(&addr);
    frontend.shutdown_to(&dir).expect("drain");
    assert!(
        joins_within(&serving, Duration::from_secs(1)),
        "the frontend's accept loop outlived shutdown_to"
    );

    let backend = Frontend::start(test_config(env_workers(), None));
    let link = InProcessLink::new(backend.connect());
    let (cluster, _recovery) =
        Cluster::start(ClusterConfig::default(), vec![Box::new(link)]).expect("no journal");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let serving = cluster.serve(listener);
    hostile_lines_leave_the_face_serving(&addr);
    cluster.shutdown();
    assert!(
        joins_within(&serving, Duration::from_secs(1)),
        "the router's accept loop outlived Cluster::shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
