//! Sharded multi-backend routing with health-checked failover and
//! exactly-once job settlement — the socket-free core of the `saim-router`
//! binary, mirroring how [`frontend`](crate::frontend) is the socket-free
//! core of `saim-server`.
//!
//! # Topology
//!
//! ```text
//!                        ┌───────────────────────────┐     NDJSON    ┌────────────┐
//!   clients ── NDJSON ──▶│  saim-router              │──────────────▶│ saim-server│ shard 0
//!                        │   rendezvous placement    │               └────────────┘
//!                        │   health state machine    │     NDJSON    ┌────────────┐
//!                        │   write-ahead journal     │──────────────▶│ saim-server│ shard 1
//!                        │   exactly-once settlement │               └────────────┘
//!                        └───────────────────────────┘                   ⋮  shard N-1
//! ```
//!
//! The router speaks the same schema-versioned NDJSON protocol on both
//! faces, and its client face runs the same session layer as
//! `saim-server` (one [`RouterHandle`] per connection, plus a writer
//! thread). Clients see one logical fleet; behind the router each backend is
//! an ordinary `saim-server` (or an in-process [`Frontend`] in tests),
//! reached over a [`BackendLink`] and pumped by one dedicated thread. The
//! pump is event-driven: it sleeps in the link's poll until a response
//! arrives, the router queues work for that backend (which rings the
//! link's [`LinkWaker`]), or one of its timers — next health probe,
//! overload backoff, earliest armed hedge — is due.
//!
//! # Placement
//!
//! Each job is placed by **rendezvous (highest-random-weight) hashing**
//! over the currently eligible backends: the shard key is the spec's
//! instance digest (so repeated solves of one instance land on the same
//! shard and enjoy its warm state) or an FNV-1a fold of the spec when no
//! digest is attached. Eligibility respects a per-backend bounded
//! **in-flight window** ([`ClusterConfig::window`]) and any
//! [`Response::Overloaded`] hint the backend returned — an overloaded
//! shard backs off for the hinted delay while the job is re-placed on the
//! next-highest shard. Jobs with no eligible shard park in the router and
//! flow as capacity frees.
//!
//! # Replication (hedged k-replica routing)
//!
//! With [`ReplicationPolicy::k`] `> 1` each job is placed on the top-k
//! rendezvous-ranked healthy backends instead of just the winner — but
//! **speculatively, not eagerly**: only the primary replica dispatches at
//! submit time. The 2nd…kth replicas are armed on a *hedge timer* whose
//! delay is `max(hedge_delay_ms, primary's settlement-time EMA)` — the
//! per-backend EMA of recent settled-job wall times, seeded from the
//! backend's `stats`-probe `eta_ms` until real settlements exist. A
//! healthy backend settles its jobs before the timer fires, so an idle or
//! well-behaved fleet pays **zero** extra compute; a slow, stalled, or
//! partitioned backend silently forfeits the race long before the circuit
//! breaker would trip, bounding the job's settlement latency by
//! `hedge delay + healthy-backend time` instead of the breaker's
//! [`DOWN_AFTER_MISSES`] `× probe_interval`.
//!
//! Replica dispatches are budgeted: at most
//! [`ReplicationPolicy::max_extra_load`] extra copies may be live
//! fleet-wide; due hedges beyond the budget defer (counted `suppressed` in
//! [`HedgeStats`]) until settlements free it.
//!
//! Settlement is **first outcome wins, exactly once**: the first terminal
//! frame for a gid settles the job through the journal as always, and
//! every losing replica is sent a best-effort `cancel` frame (reclaiming
//! its worker via the engine `RunController` path) and journaled as
//! `superseded`. A loser's late terminal frame — cancelled, completed, or
//! replayed — lands in the settlement dedup like any other duplicate.
//! Because engines are deterministic per seed, a late *completed* loser
//! must be bit-identical to the settled winner; a disagreement is a
//! **correctness alarm** (a backend with a broken RNG stream or a corrupt
//! resume), counted in [`ClusterReport::outcome_mismatches`], logged, and
//! surfaced on the router's `stats` admin report — never double-settled.
//!
//! `k = 1` (the default) preserves single-placement routing bit-for-bit,
//! journal bytes included: no `hedged`/`superseded` records are ever
//! written and no hedge timer exists.
//!
//! # Health
//!
//! A per-backend state machine `Up → Suspect → Down → HalfOpen → Up`
//! ([`BackendState`], driven by [`HealthTracker`]) doubles as a circuit
//! breaker. The pump probes each backend with protocol `stats` frames at
//! [`ClusterConfig::probe_interval`]; consecutive missed probes walk
//! `Up → Suspect → Down`. A `Down` backend gets **no new jobs** and its
//! journaled-but-unsettled jobs are re-routed. When a probe answer
//! reappears, the breaker half-opens: exactly **one probe job** (a tiny
//! solve) is admitted, and only its settlement closes the breaker back to
//! `Up`. A transport-level death (send or poll error) is an immediate
//! `Down` plus pump exit; recovery requires attaching a fresh link
//! ([`Cluster::attach_backend`]) — in the managed flow, one wrapping the
//! restarted backend's `--resume` recovery stream, which therefore drains
//! through the router (and its settlement dedup) before the backend can
//! pass its half-open probe and take new work.
//!
//! # Exactly-once settlement
//!
//! The router owes each accepted job **exactly one** terminal frame, even
//! across backend kills, restarts, partitions, and duplicate deliveries.
//! Three mechanisms compose to prove it:
//!
//! 1. **A write-ahead intent journal** ([`journal`]) — `routed` before a
//!    job is owned, `accepted` once a backend admits it, `settled` after
//!    the terminal frame is delivered. One checksum per line,
//!    conservative torn-tail recovery, and atomic tmp+rename compaction
//!    both on open and while the router runs, so the file stays bounded
//!    by the live jobs' specs plus a constant.
//! 2. **Global job ids**: the router rewrites each spec's `job` to a
//!    router-global gid before forwarding, so every backend frame names
//!    the gid and the original client id is restored only at delivery.
//!    Gids are never reused, across restarts and compactions alike: a
//!    compacted journal records the next unissued gid as its fence.
//! 3. **Settlement dedup by gid**: only a live gid settles, and settling
//!    it removes the live job; late frames — a partition healing after
//!    failover, an at-least-once transport replaying outcomes, a
//!    restarted backend's recovery stream re-delivering work that was
//!    already re-routed — are counted and dropped. Because a
//!    [`JobOutcome`] is a pure function of its spec, whichever copy wins
//!    is bit-identical to the direct `spec.run()` oracle.
//!
//! The router's memory is bounded the same way. Settling a job drops its
//! spec and leaves a tombstone of a few dozen bytes (client, client job
//! id, the winner's outcome digest) for the last [`TOMBSTONE_HORIZON`]
//! settled gids; the tombstone is what the outcome-mismatch alarm checks a
//! late replica against. A duplicate arriving past the horizon is still
//! dropped, since its gid is not live, but without that check, and is
//! counted in [`ClusterReport::duplicates_past_horizon`].
//!
//! # Degradation
//!
//! With every shard down the router **sheds, never hangs**: submits earn
//! [`Response::Overloaded`] with the configured retry hint. Shutdown stops
//! the pumps and reports what was still unsettled; in the managed flow each
//! backend then drains to its checkpoint directory for bit-identical
//! resume.
//!
//! Backend-level fault injection (kill, partition/heal, duplicate-outcome
//! replay) is scripted through
//! [`BackendFaultPlan`](crate::frontend::faults::BackendFaultPlan) and the
//! [`FaultyLink`] wrapper; the loopback suite in `tests/cluster.rs` drives
//! the proofs.
//!
//! [`Frontend`]: crate::frontend::Frontend
//! [`Response::Overloaded`]: crate::frontend::Response::Overloaded
//! [`JobOutcome`]: crate::service::JobOutcome

pub mod journal;

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::{digest64, CheckpointError, OutcomeKind};
use crate::frontend::faults::BackendFaultPlan;
use crate::frontend::{
    ClientHandle, DrainReport, FrameError, Frontend, FrontendConfig, Request, Response,
    MAX_FRAME_BYTES,
};
use crate::service::{JobOutcome, JobSpec, SolverSpec};
use crate::session::{read_line_capped, Listeners, ReadError, SessionCore, SessionSender};
use crate::telemetry::{ClientStats, HedgeStats};
use journal::{Journal, JournalAnomaly, JournalError, JournalRecord};
use saim_ising::QuboBuilder;

// ----------------------------------------------------------------- links

/// A transport-level failure on a router↔backend link; fatal for the link
/// (the pump marks the backend down and exits).
#[derive(Debug, Clone)]
pub struct LinkError(pub String);

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backend link failed: {}", self.0)
    }
}

impl std::error::Error for LinkError {}

/// One router↔backend session: ordered frames out, ordered frames back.
/// Implementations are driven by exactly one pump thread each.
pub trait BackendLink: Send {
    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// [`LinkError`] when the transport is dead; the pump treats this as
    /// the backend crashing.
    fn send(&mut self, request: &Request) -> Result<(), LinkError>;

    /// Waits up to `timeout` for the next response frame. `Ok(None)` means
    /// the link is quiet, not dead. The pump passes the time until its next
    /// timer (probe, overload backoff, hedge), which may be many seconds:
    /// new work cuts the wait short through [`BackendLink::waker`]. A link
    /// with no waker is polled at most 10 ms apart instead.
    ///
    /// # Errors
    ///
    /// [`LinkError`] when the transport is dead.
    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError>;

    /// A handle that makes a blocked (or the next) [`BackendLink::poll`]
    /// return `Ok(None)` at once. The router calls it whenever it queues
    /// work for this link. `None` (the default) means the link cannot be
    /// woken.
    fn waker(&self) -> Option<LinkWaker> {
        None
    }
}

/// Cuts a link's [`BackendLink::poll`] short; see [`BackendLink::waker`].
#[derive(Clone)]
pub struct LinkWaker {
    tx: mpsc::Sender<Inbound>,
    /// A wake token is in the inbox; later wakes add none.
    pending: Arc<AtomicBool>,
}

impl LinkWaker {
    /// Wakes the link's poll.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = self.tx.send(Inbound::Wake);
        }
    }
}

/// What a link's inbox carries.
enum Inbound {
    Frame(Response),
    /// The transport died; the message says how.
    Dead(String),
    Wake,
}

/// The receive side of [`TcpLink`] and [`InProcessLink`]: a feeder thread
/// pushes the backend's frames through a clone of the waker's sender, the
/// waker pushes wake tokens, and `poll` is one `recv_timeout`.
struct Inbox {
    rx: mpsc::Receiver<Inbound>,
    waker: LinkWaker,
    dead: Option<LinkError>,
}

impl Inbox {
    fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        Inbox {
            rx,
            waker: LinkWaker {
                tx,
                pending: Arc::new(AtomicBool::new(false)),
            },
            dead: None,
        }
    }

    fn feeder(&self) -> mpsc::Sender<Inbound> {
        self.waker.tx.clone()
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        if let Some(dead) = &self.dead {
            return Err(dead.clone());
        }
        match self.rx.recv_timeout(timeout) {
            Ok(Inbound::Frame(response)) => Ok(Some(response)),
            Ok(Inbound::Wake) => {
                self.waker.pending.store(false, Ordering::Release);
                Ok(None)
            }
            Ok(Inbound::Dead(message)) => Err(self.dead.insert(LinkError(message)).clone()),
            // the inbox holds a sender itself, so this is only the timeout
            Err(_) => Ok(None),
        }
    }
}

/// A link to an in-process [`Frontend`] session — the unit-test transport,
/// and the `--resume` recovery stream's carrier after a managed restart.
/// A forwarder thread moves the session's responses into the link's inbox,
/// so `send` never waits on the receive side.
///
/// The session's send half is shared so a [`ManagedBackend`] can keep an
/// anchor clone alive: a killed link's drop then does *not* disconnect the
/// backend session, which is what lets the backend's unfinished jobs
/// survive into its drain directory.
pub struct InProcessLink {
    session: Arc<SessionSender>,
    inbox: Inbox,
}

impl InProcessLink {
    /// Wraps a connected session handle.
    pub fn new(handle: ClientHandle) -> Self {
        let (session, responses) = handle.split();
        Self::shared(Arc::new(session), responses)
    }

    fn shared(session: Arc<SessionSender>, responses: mpsc::Receiver<Response>) -> Self {
        let inbox = Inbox::new();
        let tx = inbox.feeder();
        // ends when the backend drops the session's channel, i.e. when the
        // last send half (link or anchor) disconnects
        std::thread::spawn(move || {
            for response in responses {
                let _ = tx.send(Inbound::Frame(response));
            }
        });
        InProcessLink { session, inbox }
    }
}

impl BackendLink for InProcessLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        self.session.send(request.clone());
        Ok(())
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        self.inbox.poll(timeout)
    }

    fn waker(&self) -> Option<LinkWaker> {
        Some(self.inbox.waker.clone())
    }
}

/// A link to a remote `saim-server` over TCP NDJSON — the deployment
/// transport of the `saim-router` binary. A reader thread reads whole
/// lines (capped at the protocol's default frame limit) into the link's
/// inbox; an oversized or unparsable line kills the link.
pub struct TcpLink {
    stream: TcpStream,
    inbox: Inbox,
}

impl TcpLink {
    /// Connects to a listening backend.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let inbox = Inbox::new();
        let tx = inbox.feeder();
        std::thread::spawn(move || {
            let dead = read_frames(BufReader::new(read_half), MAX_FRAME_BYTES, &tx);
            let _ = tx.send(Inbound::Dead(dead));
        });
        Ok(TcpLink { stream, inbox })
    }
}

/// Feeds a backend's response lines into an inbox until the transport
/// dies or the link is dropped; returns why it stopped.
fn read_frames(
    mut reader: BufReader<TcpStream>,
    limit: usize,
    inbox: &mpsc::Sender<Inbound>,
) -> String {
    loop {
        let line = match read_line_capped(&mut reader, limit) {
            Ok(Some(line)) => line,
            Ok(None) => return "backend closed the connection".into(),
            Err(ReadError::Oversized) => return format!("backend frame exceeds {limit} bytes"),
            Err(ReadError::Stalled | ReadError::Transport) => {
                return "backend connection broke mid-frame".into()
            }
        };
        if line.is_empty() {
            continue;
        }
        let frame = match Response::from_line(&line) {
            Ok(response) => Inbound::Frame(response),
            Err(e) => return e.to_string(),
        };
        if inbox.send(frame).is_err() {
            return "link dropped".into();
        }
    }
}

impl BackendLink for TcpLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        let mut line = request.to_line();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| LinkError(e.to_string()))
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        self.inbox.poll(timeout)
    }

    fn waker(&self) -> Option<LinkWaker> {
        Some(self.inbox.waker.clone())
    }
}

impl Drop for TcpLink {
    /// Shuts the socket down so the reader thread sees EOF and exits.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A fault-injecting link wrapper scripted by a
/// [`BackendFaultPlan`](crate::frontend::faults::BackendFaultPlan); see the
/// plan's docs for the three scripts (kill, partition/heal, duplicate
/// outcomes). Deterministic: faults are switches the test flips, never
/// random.
pub struct FaultyLink {
    inner: Box<dyn BackendLink>,
    plan: Arc<BackendFaultPlan>,
    backend: usize,
    /// Responses captured while partitioned, replayed in order on heal.
    held: VecDeque<Response>,
}

impl FaultyLink {
    /// Wraps `inner` as backend index `backend` of `plan`.
    pub fn new(inner: Box<dyn BackendLink>, plan: Arc<BackendFaultPlan>, backend: usize) -> Self {
        FaultyLink {
            inner,
            plan,
            backend,
            held: VecDeque::new(),
        }
    }

    /// Applies the wrong-seed-outcome script: a corrupting backend's
    /// completed outcomes have their energies perturbed, so the frame still
    /// correlates by gid but can never match the deterministic oracle —
    /// exactly what a backend with a broken RNG stream would produce.
    fn tamper(&self, response: &mut Response) {
        if !self.plan.is_corrupting(self.backend) {
            return;
        }
        if let Response::Outcome { outcome } = response {
            if outcome.outcome_kind == OutcomeKind::Completed {
                outcome.best_energy += 1.0;
                outcome.last_energy += 1.0;
            }
        }
    }

    /// Moves every already-arrived inner response into the hold buffer,
    /// corrupting and duplicating outcomes when scripted — so a partition
    /// holds frames the backend produced *during* the partition too, not
    /// only before it.
    fn ingest(&mut self) -> Result<(), LinkError> {
        while let Some(mut response) = self.inner.poll(Duration::ZERO)? {
            self.tamper(&mut response);
            let duplicate = matches!(response, Response::Outcome { .. })
                && self.plan.is_duplicating(self.backend);
            if duplicate {
                self.held.push_back(response.clone());
            }
            self.held.push_back(response);
        }
        Ok(())
    }
}

impl BackendLink for FaultyLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        if self.plan.is_killed(self.backend) {
            return Err(LinkError(format!("backend {} scripted dead", self.backend)));
        }
        // a partitioned backend still receives and computes; only its
        // responses are invisible
        self.inner.send(request)
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        if self.plan.is_killed(self.backend) {
            return Err(LinkError(format!("backend {} scripted dead", self.backend)));
        }
        // ingest only while stalled: its zero-timeout polls can swallow a
        // wake token, which must not happen before a blocking poll below
        if self.plan.is_stalled(self.backend) {
            self.ingest()?;
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            return Ok(None);
        }
        if let Some(response) = self.held.pop_front() {
            return Ok(Some(response));
        }
        match self.inner.poll(timeout)? {
            Some(mut response) => {
                self.tamper(&mut response);
                if matches!(response, Response::Outcome { .. })
                    && self.plan.is_duplicating(self.backend)
                {
                    self.held.push_back(response.clone());
                }
                Ok(Some(response))
            }
            None => Ok(None),
        }
    }

    fn waker(&self) -> Option<LinkWaker> {
        self.inner.waker()
    }
}

// ---------------------------------------------------------------- health

/// One backend's position in the health state machine; see the
/// [module docs](self#health).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Answering probes; eligible for new jobs.
    Up,
    /// Missed at least one probe; no new jobs until it answers again.
    Suspect,
    /// Breaker tripped: no new jobs, unsettled jobs re-routed. Probing
    /// continues (revival detection), but only a transport-alive backend
    /// can answer.
    Down,
    /// Answered a probe while down: admitted exactly one probe job, whose
    /// settlement closes the breaker.
    HalfOpen,
}

/// The pure, clock-free health state machine — the pump feeds it probe
/// observations; it never reads time itself, so every transition is
/// unit-testable as plain data.
#[derive(Debug)]
pub struct HealthTracker {
    states: Vec<BackendState>,
    misses: Vec<u32>,
    down_after: u32,
}

impl HealthTracker {
    /// `backends` slots, all starting [`BackendState::Up`]; `down_after`
    /// consecutive missed probes trip the breaker (clamped to at least 1).
    pub fn new(backends: usize, down_after: u32) -> Self {
        HealthTracker {
            states: vec![BackendState::Up; backends],
            misses: vec![0; backends],
            down_after: down_after.max(1),
        }
    }

    /// Backend `b`'s current state.
    pub fn state(&self, b: usize) -> BackendState {
        self.states[b]
    }

    /// Every backend's state, by index.
    pub fn states(&self) -> Vec<BackendState> {
        self.states.clone()
    }

    /// A probe was answered: `Suspect` recovers to `Up`, `Down` half-opens
    /// (the revival signal), `Up`/`HalfOpen` stay put. Returns the new
    /// state.
    pub fn probe_ok(&mut self, b: usize) -> BackendState {
        self.misses[b] = 0;
        self.states[b] = match self.states[b] {
            BackendState::Up | BackendState::Suspect => BackendState::Up,
            BackendState::Down | BackendState::HalfOpen => BackendState::HalfOpen,
        };
        self.states[b]
    }

    /// A probe went unanswered: `Up` becomes `Suspect`, enough consecutive
    /// misses trip `Down`, and a `HalfOpen` backend that stops answering
    /// re-trips immediately. Returns the new state.
    pub fn probe_missed(&mut self, b: usize) -> BackendState {
        self.states[b] = match self.states[b] {
            BackendState::Up => {
                self.misses[b] = 1;
                if self.misses[b] >= self.down_after {
                    BackendState::Down
                } else {
                    BackendState::Suspect
                }
            }
            BackendState::Suspect => {
                self.misses[b] += 1;
                if self.misses[b] >= self.down_after {
                    BackendState::Down
                } else {
                    BackendState::Suspect
                }
            }
            BackendState::HalfOpen | BackendState::Down => BackendState::Down,
        };
        self.states[b]
    }

    /// A transport-level death: straight to `Down` regardless of history.
    pub fn fatal(&mut self, b: usize) {
        self.misses[b] = 0;
        self.states[b] = BackendState::Down;
    }

    /// The half-open probe job settled: the breaker closes back to `Up`.
    pub fn probe_job_settled(&mut self, b: usize) -> BackendState {
        if self.states[b] == BackendState::HalfOpen {
            self.states[b] = BackendState::Up;
            self.misses[b] = 0;
        }
        self.states[b]
    }
}

// ---------------------------------------------------------------- config

/// How many backends each job is placed on and when speculative replicas
/// fire; see the [module docs](self#replication-hedged-k-replica-routing).
#[derive(Debug, Clone)]
pub struct ReplicationPolicy {
    /// Total replicas per job including the primary. `1` (the default)
    /// disables hedging entirely and preserves single-placement routing
    /// bit-for-bit, journal bytes included.
    pub k: usize,
    /// Floor on the hedge delay in milliseconds. The effective delay for a
    /// job is `max(hedge_delay_ms, primary backend's settlement-time
    /// EMA)`, so a fleet whose jobs settle quickly never fires a replica
    /// at all — deadline-aware speculation, not eager 2× dispatch.
    pub hedge_delay_ms: u64,
    /// Fleet-wide cap on concurrently-live extra replicas. A due hedge is
    /// deferred (counted [`HedgeStats::suppressed`]) while the budget is
    /// exhausted; `0` never fires a replica, degrading to pure
    /// breaker-driven failover.
    pub max_extra_load: usize,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            k: 1,
            hedge_delay_ms: 50,
            max_extra_load: 4,
        }
    }
}

/// Consecutive missed probes before a backend's breaker trips to
/// [`BackendState::Down`].
pub const DOWN_AFTER_MISSES: u32 = 3;

/// Configuration of a [`Cluster`].
#[derive(Clone)]
pub struct ClusterConfig {
    /// Per-backend bounded in-flight window: queued + submitted-unacked +
    /// accepted-unsettled jobs a backend may hold before placement skips
    /// it.
    pub window: usize,
    /// How often each pump probes its backend with a `stats` frame.
    pub probe_interval: Duration,
    /// Retry hint carried on shed [`Response::Overloaded`] frames.
    pub retry_after_ms: u64,
    /// Where the write-ahead intent journal lives; `None` keeps settlement
    /// state in memory only (no crash recovery).
    pub journal: Option<PathBuf>,
    /// Hedged k-replica routing; the default (`k = 1`) disables it.
    pub replication: ReplicationPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            window: 8,
            probe_interval: Duration::from_millis(25),
            retry_after_ms: 25,
            journal: None,
            replication: ReplicationPolicy::default(),
        }
    }
}

impl ClusterConfig {
    fn validate(&self) {
        assert!(self.window > 0, "in-flight window must be positive");
        assert!(
            !self.probe_interval.is_zero(),
            "probe interval must be positive"
        );
        assert!(
            self.replication.k >= 1,
            "replication factor includes the primary and must be at least 1"
        );
    }
}

// ------------------------------------------------------------------ core

/// One live job's bookkeeping, keyed by its router-global gid: routed and
/// owed a terminal frame. Settlement replaces it with a [`Tombstone`].
struct LiveJob {
    client: u64,
    client_job: u64,
    spec: JobSpec,
    priority: u8,
    deadline_ms: Option<u64>,
    probe: bool,
    /// The first backend the job was placed on — the hedge timer's EMA
    /// source. `None` until first placement (or forever, when parked).
    primary: Option<usize>,
    /// Backends that received a speculative replica, in firing order.
    hedge_backends: Vec<usize>,
}

impl LiveJob {
    fn new(client: u64, client_job: u64, spec: JobSpec, priority: u8) -> Self {
        LiveJob {
            client,
            client_job,
            spec,
            priority,
            deadline_ms: None,
            probe: false,
            primary: None,
            hedge_backends: Vec::new(),
        }
    }
}

/// What a settled gid leaves behind for [`TOMBSTONE_HORIZON`] further
/// settlements: who it was delivered to and, for a completed outcome, the
/// canonical digest a late loser's outcome is cross-checked against.
struct Tombstone {
    client: u64,
    client_job: u64,
    digest: Option<u64>,
}

/// How many of the most recently settled gids keep a [`Tombstone`]. A late
/// duplicate of an older gid is still dropped, since only live gids
/// settle, but without the outcome-mismatch cross-check; it is counted in
/// [`ClusterReport::duplicates_past_horizon`].
///
/// The horizon counts settlements, not time, and nothing in the router
/// bounds how late a duplicate can arrive: a hedged loser arrives when its
/// solve ends, but a partitioned backend delivers its copy whenever the
/// partition heals, and a backend session drops a silent peer only after
/// [`READ_TIMEOUT`](crate::frontend::READ_TIMEOUT) (30 s). At 4096 the
/// horizon spans about 20 s of settlements at the 200 jobs/s a
/// two-backend fleet sustains (less than one read timeout) and over two
/// minutes at the 30 jobs/s of the end-to-end benchmark; it costs well
/// under 1 MB. A duplicate past it loses only the cross-check, never
/// exactly-once delivery.
pub const TOMBSTONE_HORIZON: usize = 4096;

/// One armed hedge timer: when it comes `due`, up to `remaining` extra
/// replicas of the gid fire (budget and capacity permitting), re-arming
/// every `delay` ms between firings.
struct PendingHedge {
    due: u64,
    remaining: usize,
    delay: u64,
}

/// One connected client's router-side state.
struct RouterClient {
    stats: ClientStats,
    by_job: HashMap<u64, u64>,
    tx: mpsc::Sender<Response>,
}

/// One backend's routing state. `generation` fences the pump: a stale
/// pump's observations are ignored after a fresh link is attached.
struct BackendSlot {
    generation: u64,
    pump_alive: bool,
    /// The current pump's link waker, rung whenever `control` or `queued`
    /// grows; `None` for a link that cannot be woken.
    waker: Option<LinkWaker>,
    /// Cancels forwarded unconditionally, ahead of submits.
    control: VecDeque<Request>,
    /// Placed gids not yet forwarded.
    queued: VecDeque<u64>,
    /// The one forwarded-but-unacknowledged submit. `Overloaded` carries
    /// no job id, so submits are serialized per backend to keep the
    /// correlation exact.
    awaiting: Option<u64>,
    /// Accepted-but-unsettled gids on this backend.
    assigned: HashSet<u64>,
    /// Scheduler-clock ms before which no submit is forwarded (the
    /// backend's `Overloaded` hint).
    backoff_until: u64,
    last_probe: u64,
    probe_outstanding: bool,
    /// Half-open and owed its one probe job.
    want_probe_job: bool,
    /// EMA of this backend's settlement wall time in ms, seeded from the
    /// first probe `stats` frame's `eta_ms`. Deliberately survives link
    /// re-attachment: a restarted backend is the same hardware.
    ema_settle_ms: Option<u64>,
}

impl BackendSlot {
    fn new() -> Self {
        BackendSlot {
            generation: 0,
            pump_alive: false,
            waker: None,
            control: VecDeque::new(),
            queued: VecDeque::new(),
            awaiting: None,
            assigned: HashSet::new(),
            backoff_until: 0,
            last_probe: 0,
            probe_outstanding: false,
            want_probe_job: false,
            ema_settle_ms: None,
        }
    }

    fn in_flight(&self) -> usize {
        self.queued.len() + self.assigned.len() + usize::from(self.awaiting.is_some())
    }

    fn wake(&self) {
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }

    /// Queues a submit of `gid` toward this backend and wakes its pump.
    fn enqueue(&mut self, gid: u64) {
        self.queued.push_back(gid);
        self.wake();
    }

    /// Queues a control frame (a cancel) and wakes the pump.
    fn enqueue_control(&mut self, request: Request) {
        self.control.push_back(request);
        self.wake();
    }
}

struct CoreState {
    clients: HashMap<u64, RouterClient>,
    backends: Vec<BackendSlot>,
    /// Live jobs by gid.
    jobs: HashMap<u64, LiveJob>,
    /// Tombstones of the last [`TOMBSTONE_HORIZON`] settled gids, and
    /// those gids in settling order (the eviction queue).
    tombstones: HashMap<u64, Tombstone>,
    settled_order: VecDeque<u64>,
    /// Routed jobs with no eligible backend yet, in routing order.
    parked: VecDeque<u64>,
    fleet: ClientStats,
    health: HealthTracker,
    journal: Option<Journal>,
    next_client: u64,
    next_gid: u64,
    shutting_down: bool,
    duplicates_dropped: u64,
    duplicates_past_horizon: u64,
    compactions: u64,
    reroutes: u64,
    timed_settles: u64,
    timed_settle_ms: u64,
    /// Armed hedge timers by gid; empty whenever `replication.k == 1`.
    pending_hedges: HashMap<u64, PendingHedge>,
    /// Extra replicas currently live beyond each job's one primary copy —
    /// the quantity `ReplicationPolicy::max_extra_load` bounds.
    extra_live: u64,
    hedges: HedgeStats,
    /// Settled-vs-late-loser divergences observed (the determinism alarm).
    outcome_mismatches: u64,
}

/// The terminal payload a settle delivers, pre-rewrite.
enum Settlement {
    Outcome(JobOutcome),
    Failure {
        instance_digest: u64,
        message: String,
    },
}

/// The shared router core: client registry, placement, health, journal.
struct RouterCore {
    config: ClusterConfig,
    state: Mutex<CoreState>,
    epoch: Instant,
}

/// Rendezvous (highest-random-weight) choice: the candidate whose FNV-1a
/// digest of `key ‖ candidate` is largest. Stable for a fixed candidate
/// set, and removing one candidate only moves the jobs that were on it.
fn rendezvous_choice(key: u64, candidates: &[usize]) -> Option<usize> {
    candidates.iter().copied().max_by_key(|&b| {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        bytes[8..].copy_from_slice(&(b as u64).to_le_bytes());
        (digest64(&bytes), std::cmp::Reverse(b))
    })
}

/// The shard key of a spec: its instance digest when attached (same
/// instance → same shard), else an FNV-1a fold of its identity fields.
fn shard_key(spec: &JobSpec) -> u64 {
    if spec.instance_digest != 0 {
        return spec.instance_digest;
    }
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&spec.job.to_le_bytes());
    bytes[8..].copy_from_slice(&spec.seed.to_le_bytes());
    digest64(&bytes)
}

/// The half-open probe job: a two-variable descent, trivially cheap, with
/// the probe's gid as both job id and seed.
fn probe_spec(gid: u64) -> JobSpec {
    let mut b = QuboBuilder::new(2);
    b.add_linear(0, -1.0).expect("index in range");
    b.add_linear(1, -1.0).expect("index in range");
    JobSpec::new(gid, b.build(), SolverSpec::Descent { max_sweeps: 4 }, gid)
}

impl RouterCore {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn probe_interval_ms(&self) -> u64 {
        u64::try_from(self.config.probe_interval.as_millis())
            .unwrap_or(u64::MAX)
            .max(1)
    }

    // -------------------------------------------------------- client face

    fn send_to(state: &CoreState, client: u64, response: Response) {
        if let Some(slot) = state.clients.get(&client) {
            let _ = slot.tx.send(response);
        }
    }

    /// Admission: shed while shutting down or with no live shard; else
    /// journal the intent, stamp the gid, place (or park), and acknowledge
    /// — all under one lock hold so `Accepted` precedes the terminal frame.
    fn submit(&self, client: u64, spec: JobSpec, priority: u8, deadline_ms: Option<u64>) {
        let mut guard = self.state.lock().expect("router lock is never poisoned");
        let state = &mut *guard;
        let now = self.now_ms();
        let any_alive = state
            .backends
            .iter()
            .enumerate()
            .any(|(b, slot)| slot.pump_alive && state.health.state(b) != BackendState::Down);
        if state.shutting_down || !any_alive {
            state.fleet.rejected += 1;
            if let Some(slot) = state.clients.get_mut(&client) {
                slot.stats.rejected += 1;
            }
            // the hint names the soonest half-open probe time, so a
            // backed-off client returns exactly when capacity can exist
            let retry_after_ms = self.shed_retry_ms(state, now);
            Self::send_to(state, client, Response::Overloaded { retry_after_ms });
            return;
        }
        let gid = state.next_gid;
        state.next_gid += 1;
        let client_job = spec.job;
        let mut spec = spec;
        spec.job = gid;
        if let Some(journal) = &mut state.journal {
            // write-ahead: the intent must be durable before the job is
            // owned; a journal that cannot record it sheds instead
            let record = JournalRecord::Routed {
                gid,
                client_job,
                spec: spec.clone(),
            };
            if journal.append(&record).is_err() {
                state.fleet.rejected += 1;
                if let Some(slot) = state.clients.get_mut(&client) {
                    slot.stats.rejected += 1;
                }
                Self::send_to(
                    state,
                    client,
                    Response::Overloaded {
                        retry_after_ms: self.config.retry_after_ms,
                    },
                );
                return;
            }
        }
        state.jobs.insert(
            gid,
            LiveJob {
                deadline_ms,
                ..LiveJob::new(client, client_job, spec, priority)
            },
        );
        state.fleet.accepted += 1;
        if let Some(slot) = state.clients.get_mut(&client) {
            slot.stats.accepted += 1;
            slot.by_job.insert(client_job, gid);
        }
        self.place(state, gid, None, now);
        Self::send_to(state, client, Response::Accepted { job: client_job });
    }

    fn cancel(&self, client: u64, job: u64) {
        let mut guard = self.state.lock().expect("router lock is never poisoned");
        let state = &mut *guard;
        let gid = state
            .clients
            .get(&client)
            .and_then(|slot| slot.by_job.get(&job).copied());
        let live = gid.filter(|gid| state.jobs.contains_key(gid));
        let Some(gid) = live else {
            Self::send_to(
                state,
                client,
                Response::rejected(&FrameError::UnknownJob(job)),
            );
            return;
        };
        // running on a backend (any replica of it): forward the cancel
        // ahead of any submits; the backend's terminal frame settles it
        let running = state
            .backends
            .iter()
            .any(|slot| slot.assigned.contains(&gid) || slot.awaiting == Some(gid));
        if running {
            for slot in &mut state.backends {
                if slot.assigned.contains(&gid) || slot.awaiting == Some(gid) {
                    slot.enqueue_control(Request::Cancel { job: gid });
                }
            }
            return;
        }
        // still router-side everywhere (parked or queued): settle the
        // cancel locally — no backend has accepted the job yet; settlement
        // clears every queued copy
        let parked = state.parked.contains(&gid);
        let queued = state.backends.iter().any(|slot| slot.queued.contains(&gid));
        if parked || queued {
            let outcome = JobOutcome::expired(&state.jobs[&gid].spec)
                .with_outcome_kind(OutcomeKind::Cancelled);
            self.settle(state, None, gid, Settlement::Outcome(outcome));
            return;
        }
        // routed but nowhere: should be unreachable, treat as unknown
        Self::send_to(
            state,
            client,
            Response::rejected(&FrameError::UnknownJob(job)),
        );
    }

    fn stats(&self, client: u64) {
        let guard = self.state.lock().expect("router lock is never poisoned");
        let state = &*guard;
        let queue_depth = Self::queue_depth(state);
        let eta_ms = Self::eta_ms(state, queue_depth);
        let client_stats = state
            .clients
            .get(&client)
            .map(|slot| slot.stats)
            .unwrap_or_default();
        Self::send_to(
            state,
            client,
            Response::Stats {
                client: client_stats,
                fleet: state.fleet,
                queue_depth,
                eta_ms,
            },
        );
    }

    fn queue_depth(state: &CoreState) -> u64 {
        let queued: usize = state.backends.iter().map(|slot| slot.queued.len()).sum();
        (state.parked.len() + queued) as u64
    }

    /// Same rough contract as the frontend's estimate: backlog × mean
    /// settled-job wall ms ÷ live shards; `0` until one timed settle.
    fn eta_ms(state: &CoreState, queue_depth: u64) -> u64 {
        if state.timed_settles == 0 {
            return 0;
        }
        let shards = state
            .backends
            .iter()
            .filter(|slot| slot.pump_alive)
            .count()
            .max(1) as u64;
        queue_depth.saturating_mul(state.timed_settle_ms / state.timed_settles) / shards
    }

    // --------------------------------------------------------- placement

    fn eligible(&self, state: &CoreState, now: u64, exclude: Option<usize>) -> Vec<usize> {
        state
            .backends
            .iter()
            .enumerate()
            .filter(|&(b, slot)| {
                Some(b) != exclude
                    && slot.pump_alive
                    && state.health.state(b) == BackendState::Up
                    && slot.in_flight() < self.config.window
                    && now >= slot.backoff_until
            })
            .map(|(b, _)| b)
            .collect()
    }

    /// Every backend currently holding a copy of `gid` — queued toward it,
    /// forwarded-unacked, or accepted-unsettled.
    fn holders_of(state: &CoreState, gid: u64) -> Vec<usize> {
        state
            .backends
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                slot.assigned.contains(&gid)
                    || slot.awaiting == Some(gid)
                    || slot.queued.contains(&gid)
            })
            .map(|(b, _)| b)
            .collect()
    }

    /// Records a placement of `gid` on backend `b` and, with k > 1, arms
    /// its hedge timer: replicas fire only after `max(hedge_delay_ms,
    /// primary's settlement EMA)` ms — deadline-aware speculation, so a
    /// fleet whose jobs settle fast never pays for a replica.
    fn placed_on(&self, state: &mut CoreState, gid: u64, b: usize, now: u64) {
        state.backends[b].enqueue(gid);
        let policy = &self.config.replication;
        let Some(record) = state.jobs.get_mut(&gid) else {
            return;
        };
        if policy.k <= 1 || record.probe {
            return;
        }
        if record.primary.is_none() {
            record.primary = Some(b);
        }
        let primary = record.primary.expect("just set when absent");
        let delay = policy
            .hedge_delay_ms
            .max(state.backends[primary].ema_settle_ms.unwrap_or(0));
        state
            .pending_hedges
            .entry(gid)
            .or_insert_with(|| PendingHedge {
                due: now.saturating_add(delay),
                remaining: policy.k - 1,
                delay: delay.max(1),
            });
    }

    /// Places `gid` on its rendezvous shard among the eligible backends, or
    /// parks it when none qualifies.
    fn place(&self, state: &mut CoreState, gid: u64, exclude: Option<usize>, now: u64) {
        let Some(record) = state.jobs.get(&gid) else {
            return;
        };
        let key = shard_key(&record.spec);
        let candidates = self.eligible(state, now, exclude);
        match rendezvous_choice(key, &candidates) {
            Some(b) => self.placed_on(state, gid, b, now),
            None => state.parked.push_back(gid),
        }
    }

    /// Drains the parked queue onto whatever capacity appeared; called on
    /// every capacity- or health-freeing event.
    fn flush_parked(&self, state: &mut CoreState, now: u64) {
        let mut still_parked = VecDeque::new();
        while let Some(gid) = state.parked.pop_front() {
            let Some(record) = state.jobs.get(&gid) else {
                continue;
            };
            let key = shard_key(&record.spec);
            let candidates = self.eligible(state, now, None);
            match rendezvous_choice(key, &candidates) {
                Some(b) => self.placed_on(state, gid, b, now),
                None => still_parked.push_back(gid),
            }
        }
        state.parked = still_parked;
    }

    /// Re-places one job after its backend failed it (died, shed it, or
    /// went down before settling it). When other replicas of the job are
    /// still live the failed copy just evaporates — the survivors already
    /// cover the settlement, so re-placing would multiply the fan-out.
    fn reroute(&self, state: &mut CoreState, gid: u64, exclude: Option<usize>, now: u64) {
        let Some(record) = state.jobs.get(&gid) else {
            return;
        };
        if record.probe {
            // a probe job dies with its backend attempt
            state.jobs.remove(&gid);
            return;
        }
        if !Self::holders_of(state, gid).is_empty() {
            state.extra_live = state.extra_live.saturating_sub(1);
            return;
        }
        state.reroutes += 1;
        self.place(state, gid, exclude, now);
    }

    /// Fires every due hedge timer: each picks the best eligible backend
    /// not already holding the job, journals the `hedged` intent, and
    /// queues the replica. Deferred (and re-armed) while the fleet-wide
    /// `max_extra_load` budget is exhausted or no distinct backend exists.
    fn fire_due_hedges(&self, state: &mut CoreState, now: u64) {
        if self.config.replication.k <= 1 || state.pending_hedges.is_empty() {
            return;
        }
        let mut due: Vec<u64> = state
            .pending_hedges
            .iter()
            .filter(|(_, h)| now >= h.due)
            .map(|(&gid, _)| gid)
            .collect();
        due.sort_unstable();
        for gid in due {
            if !state.jobs.contains_key(&gid) {
                state.pending_hedges.remove(&gid);
                continue;
            }
            if state.extra_live >= self.config.replication.max_extra_load as u64 {
                state.hedges.suppressed += 1;
                let hedge = state
                    .pending_hedges
                    .get_mut(&gid)
                    .expect("gid drawn from the map above");
                hedge.due = now.saturating_add(hedge.delay);
                continue;
            }
            let holders = Self::holders_of(state, gid);
            let key = shard_key(&state.jobs[&gid].spec);
            let candidates: Vec<usize> = self
                .eligible(state, now, None)
                .into_iter()
                .filter(|b| !holders.contains(b))
                .collect();
            let Some(b) = rendezvous_choice(key, &candidates) else {
                // nowhere distinct to speculate yet — try again next round
                let hedge = state
                    .pending_hedges
                    .get_mut(&gid)
                    .expect("gid drawn from the map above");
                hedge.due = now.saturating_add(hedge.delay);
                continue;
            };
            if let Some(journal) = &mut state.journal {
                // best-effort, like `accepted`: the record narrows recovery
                // fan-out but a lost one never loses a job
                let _ = journal.append(&JournalRecord::Hedged { gid, backend: b });
            }
            state.backends[b].enqueue(gid);
            state
                .jobs
                .get_mut(&gid)
                .expect("liveness checked above")
                .hedge_backends
                .push(b);
            state.extra_live += 1;
            state.hedges.fired += 1;
            let hedge = state
                .pending_hedges
                .get_mut(&gid)
                .expect("gid drawn from the map above");
            hedge.remaining -= 1;
            if hedge.remaining == 0 {
                state.pending_hedges.remove(&gid);
            } else {
                let hedge = state
                    .pending_hedges
                    .get_mut(&gid)
                    .expect("remaining > 0 keeps the entry");
                hedge.due = now.saturating_add(hedge.delay);
            }
        }
    }

    /// The shed-path retry hint: the soonest moment any backend's next
    /// health probe can run — i.e. the earliest instant capacity can exist
    /// again — instead of a flat constant. Falls back to the configured
    /// constant when no pump survives to probe at all.
    fn shed_retry_ms(&self, state: &CoreState, now: u64) -> u64 {
        state
            .backends
            .iter()
            .filter(|slot| slot.pump_alive)
            .map(|slot| {
                slot.last_probe
                    .saturating_add(self.probe_interval_ms())
                    .saturating_sub(now)
                    .max(1)
            })
            .min()
            .unwrap_or(self.config.retry_after_ms)
    }

    /// Backend `b` can no longer settle anything: every journaled-but-
    /// unsettled job it held is re-routed (the exactly-once failover).
    fn unreachable(&self, state: &mut CoreState, b: usize, now: u64) {
        let queued: Vec<u64> = state.backends[b].queued.drain(..).collect();
        let awaiting = state.backends[b].awaiting.take();
        let mut assigned: Vec<u64> = state.backends[b].assigned.drain().collect();
        assigned.sort_unstable();
        for gid in queued.into_iter().chain(awaiting).chain(assigned) {
            self.reroute(state, gid, Some(b), now);
        }
    }

    // -------------------------------------------------------- pump hooks

    /// The requests pump `gen` of backend `b` should send now — queued
    /// cancels first, then a due health probe, then (half-open only) the
    /// breaker's probe job, then at most one serialized submit — and how
    /// long it may then wait for a response before a timer needs it: its
    /// next probe, its overload backoff (while it holds queued work), or
    /// the fleet's earliest armed hedge. `None` tells a superseded or
    /// shutting-down pump to exit.
    fn take_outgoing(self: &Arc<Self>, b: usize, gen: u64) -> Option<(Vec<Request>, Duration)> {
        let mut guard = self.state.lock().expect("router lock is never poisoned");
        let state = &mut *guard;
        if state.shutting_down || state.backends[b].generation != gen {
            return None;
        }
        let now = self.now_ms();
        let mut out: Vec<Request> = state.backends[b].control.drain(..).collect();
        let probe_due = state.backends[b].last_probe == 0
            || now
                >= state.backends[b]
                    .last_probe
                    .saturating_add(self.probe_interval_ms());
        if probe_due {
            if state.backends[b].probe_outstanding
                && state.health.probe_missed(b) == BackendState::Down
            {
                self.unreachable(state, b, now);
            }
            // `last_probe == 0` is the probe-immediately sentinel (fresh
            // start, pump restart); stamp at least 1 so a probe sent inside
            // the epoch's first millisecond still clears it — otherwise the
            // probe stays perpetually "due" and the breaker counts a miss
            // per pump iteration instead of per probe interval
            state.backends[b].last_probe = now.max(1);
            state.backends[b].probe_outstanding = true;
            out.push(Request::Stats);
        }
        if state.health.state(b) == BackendState::HalfOpen && state.backends[b].want_probe_job {
            let gid = state.next_gid;
            state.next_gid += 1;
            state.jobs.insert(
                gid,
                LiveJob {
                    probe: true,
                    ..LiveJob::new(0, gid, probe_spec(gid), 0)
                },
            );
            state.backends[b].enqueue(gid);
            state.backends[b].want_probe_job = false;
        }
        self.fire_due_hedges(state, now);
        if state.backends[b].awaiting.is_none() && now >= state.backends[b].backoff_until {
            while let Some(gid) = state.backends[b].queued.pop_front() {
                if let Some(record) = state.jobs.get(&gid) {
                    out.push(Request::Submit {
                        spec: record.spec.clone(),
                        priority: record.priority,
                        deadline_ms: record.deadline_ms,
                    });
                    state.backends[b].awaiting = Some(gid);
                    break;
                }
            }
        }
        let slot = &state.backends[b];
        let mut next = slot.last_probe.saturating_add(self.probe_interval_ms());
        if !slot.queued.is_empty() && slot.backoff_until > now {
            next = next.min(slot.backoff_until);
        }
        if let Some(hedge) = state.pending_hedges.values().map(|h| h.due).min() {
            next = next.min(hedge);
        }
        Some((out, Duration::from_millis(next.saturating_sub(now))))
    }

    /// One response frame from pump `gen` of backend `b`.
    fn on_response(self: &Arc<Self>, b: usize, gen: u64, response: Response) {
        let mut guard = self.state.lock().expect("router lock is never poisoned");
        let state = &mut *guard;
        if state.backends[b].generation != gen {
            return;
        }
        let now = self.now_ms();
        match response {
            Response::Stats { eta_ms, .. } => {
                state.backends[b].probe_outstanding = false;
                if state.backends[b].ema_settle_ms.is_none() && eta_ms > 0 {
                    // seed the hedge timer before any settle has been timed,
                    // so the first hedge delay is already backend-aware
                    state.backends[b].ema_settle_ms = Some(eta_ms);
                }
                let was = state.health.state(b);
                let is = state.health.probe_ok(b);
                if was != is && is == BackendState::HalfOpen {
                    state.backends[b].want_probe_job = true;
                }
                if is == BackendState::Up {
                    self.flush_parked(state, now);
                }
            }
            Response::Accepted { job: gid } => {
                // specs are forwarded with gid as the job id, so the echo
                // correlates exactly; anything else is a stale ack from a
                // previous routing attempt of this link
                if state.backends[b].awaiting == Some(gid) {
                    state.backends[b].awaiting = None;
                    if let Some(record) = state.jobs.get(&gid) {
                        let probe = record.probe;
                        state.backends[b].assigned.insert(gid);
                        if !probe {
                            if let Some(journal) = &mut state.journal {
                                // best-effort: acceptance is an optimization
                                // hint for recovery, not a correctness gate
                                let _ =
                                    journal.append(&JournalRecord::Accepted { gid, backend: b });
                            }
                        }
                    }
                }
            }
            Response::Overloaded { retry_after_ms } => {
                if let Some(gid) = state.backends[b].awaiting.take() {
                    state.backends[b].backoff_until = now + retry_after_ms.max(1);
                    self.reroute(state, gid, Some(b), now);
                }
            }
            // backends answer `Rejected` only to forwarded cancels of jobs
            // they already settled (the race where the outcome is in
            // flight); never to our well-formed submits — so it must not
            // consume the awaiting correlation slot
            Response::Rejected { .. } => {}
            Response::Outcome { outcome } => {
                let gid = outcome.job;
                self.settle(state, Some(b), gid, Settlement::Outcome(outcome));
            }
            Response::Failure {
                job: gid,
                instance_digest,
                message,
            } => {
                self.settle(
                    state,
                    Some(b),
                    gid,
                    Settlement::Failure {
                        instance_digest,
                        message,
                    },
                );
            }
        }
    }

    /// The transport died under pump `gen` of backend `b`: trip the
    /// breaker, fail the jobs over, and let the pump exit.
    fn backend_fatal(self: &Arc<Self>, b: usize, gen: u64) {
        let mut guard = self.state.lock().expect("router lock is never poisoned");
        let state = &mut *guard;
        if state.backends[b].generation != gen {
            return;
        }
        let now = self.now_ms();
        state.backends[b].pump_alive = false;
        state.backends[b].probe_outstanding = false;
        state.backends[b].want_probe_job = false;
        state.health.fatal(b);
        self.unreachable(state, b, now);
    }

    // -------------------------------------------------------- settlement

    /// Canonical digest of an outcome: the FNV-1a-64 of its canonical JSON
    /// (elapsed wall time zeroed), so two replicas of one deterministic
    /// solve digest identically no matter which backend ran them or when.
    fn outcome_digest(outcome: &JobOutcome) -> u64 {
        digest64(outcome.canonical().to_json().as_bytes())
    }

    /// The determinism alarm: a late losing replica's completed outcome
    /// must digest identically to the settled winner's — engines are
    /// deterministic per seed. Divergence means a backend solved the wrong
    /// problem (broken RNG stream, corrupted resume) and is counted,
    /// logged, and surfaced on [`ClusterReport::outcome_mismatches`].
    fn check_mismatch(state: &mut CoreState, gid: u64, payload: &Settlement) {
        let Settlement::Outcome(outcome) = payload else {
            return;
        };
        if outcome.outcome_kind != OutcomeKind::Completed {
            return;
        }
        let Some(tombstone) = state.tombstones.get(&gid) else {
            return;
        };
        let Some(expected) = tombstone.digest else {
            return;
        };
        let got = Self::outcome_digest(outcome);
        if got != expected {
            state.outcome_mismatches += 1;
            eprintln!(
                "saim-cluster: outcome mismatch on job {gid} (client {} job {}): \
                 late replica digest {got:016x} != settled {expected:016x} — a \
                 backend diverged from the deterministic solve",
                tombstone.client, tombstone.client_job
            );
        }
    }

    /// Exactly-once settlement: the first terminal frame for a live gid
    /// wins — it is journaled, counted, rewritten back to the client's job
    /// id, and delivered, and the job shrinks to a tombstone; every later
    /// frame for the gid (partition heals, duplicate replays, recovery
    /// streams) is counted and dropped. `from` is the settling backend when
    /// one exists (`None` for router-local settles such as queued cancels).
    fn settle(&self, state: &mut CoreState, from: Option<usize>, gid: u64, payload: Settlement) {
        let now = self.now_ms();
        let Some(record) = state.jobs.remove(&gid) else {
            // a late loser's outcome is cross-checked against the winner's
            // digest before it is dropped — engines are deterministic per
            // seed, so divergence here is a correctness alarm
            if state.tombstones.contains_key(&gid) {
                Self::check_mismatch(state, gid, &payload);
            } else {
                state.duplicates_past_horizon += 1;
            }
            state.duplicates_dropped += 1;
            return;
        };
        // clear every copy of the gid — failover or hedging may have
        // spread it — and cancel (best-effort) each losing copy a backend
        // is still running; its late terminal frame dedups right here
        let holders = Self::holders_of(state, gid);
        let mut losers: Vec<usize> = Vec::new();
        for (b, slot) in state.backends.iter_mut().enumerate() {
            let running = slot.assigned.remove(&gid) || slot.awaiting == Some(gid);
            if let Some(i) = slot.queued.iter().position(|&g| g == gid) {
                slot.queued.remove(i);
            }
            if running && from != Some(b) {
                slot.enqueue_control(Request::Cancel { job: gid });
                losers.push(b);
            }
        }
        if let Some(i) = state.parked.iter().position(|&g| g == gid) {
            state.parked.remove(i);
        }
        state.extra_live = state
            .extra_live
            .saturating_sub(holders.len().saturating_sub(1) as u64);
        state.pending_hedges.remove(&gid);
        let LiveJob {
            client,
            client_job,
            probe,
            hedge_backends,
            ..
        } = record;
        // remember a completed winner's canonical digest so late losers can
        // be cross-checked (the determinism alarm)
        let digest = match &payload {
            Settlement::Outcome(outcome)
                if !probe && outcome.outcome_kind == OutcomeKind::Completed =>
            {
                Some(Self::outcome_digest(outcome))
            }
            _ => None,
        };
        if state.settled_order.len() == TOMBSTONE_HORIZON {
            if let Some(evicted) = state.settled_order.pop_front() {
                state.tombstones.remove(&evicted);
            }
        }
        state.settled_order.push_back(gid);
        state.tombstones.insert(
            gid,
            Tombstone {
                client,
                client_job,
                digest,
            },
        );
        let hedged = hedge_backends.len() as u64;
        let hedge_won = from.is_some_and(|b| hedge_backends.contains(&b));
        if !probe {
            if let Some(journal) = &mut state.journal {
                // best-effort: a lost `settled` record costs one duplicate
                // delivery attempt after a router restart, which the
                // backend-side dedup of the next incarnation absorbs.
                // Losers are journaled first, so a replay that sees a
                // `superseded` with no `settled` re-routes exactly once —
                // as if the hedge had never fired.
                for &b in &losers {
                    let _ = journal.append(&JournalRecord::Superseded { gid, backend: b });
                }
                let _ = journal.append(&JournalRecord::Settled { gid });
            }
            if hedged > 0 {
                if hedge_won {
                    state.hedges.won += 1;
                    state.hedges.wasted += hedged - 1;
                } else {
                    state.hedges.wasted += hedged;
                }
            }
            state.hedges.cancelled += losers.len() as u64;
        }
        if probe {
            if let Some(b) = from {
                if state.health.probe_job_settled(b) == BackendState::Up {
                    self.flush_parked(state, now);
                }
            }
            return;
        }
        let response = match payload {
            Settlement::Outcome(mut outcome) => {
                if outcome.elapsed_ns > 0 {
                    state.timed_settles += 1;
                    state.timed_settle_ms += outcome.elapsed_ns / 1_000_000;
                    if let Some(b) = from {
                        // fold this settle into the backend's EMA — the
                        // source of future hedge delays
                        let sample = outcome.elapsed_ns / 1_000_000;
                        let slot = &mut state.backends[b];
                        slot.ema_settle_ms = Some(match slot.ema_settle_ms {
                            None => sample,
                            Some(e) => (3 * e + sample) / 4,
                        });
                    }
                }
                let bucket = match outcome.outcome_kind {
                    OutcomeKind::Cancelled => 2,
                    OutcomeKind::DeadlineExceeded => 3,
                    _ => 1,
                };
                state.fleet.completed += u64::from(bucket == 1);
                state.fleet.cancelled += u64::from(bucket == 2);
                state.fleet.expired += u64::from(bucket == 3);
                if let Some(slot) = state.clients.get_mut(&client) {
                    slot.stats.completed += u64::from(bucket == 1);
                    slot.stats.cancelled += u64::from(bucket == 2);
                    slot.stats.expired += u64::from(bucket == 3);
                }
                outcome.job = client_job;
                Response::Outcome { outcome }
            }
            Settlement::Failure {
                instance_digest,
                message,
            } => {
                state.fleet.failed += 1;
                if let Some(slot) = state.clients.get_mut(&client) {
                    slot.stats.failed += 1;
                }
                Response::Failure {
                    job: client_job,
                    instance_digest,
                    message,
                }
            }
        };
        if let Some(slot) = state.clients.get_mut(&client) {
            if slot.by_job.get(&client_job) == Some(&gid) {
                slot.by_job.remove(&client_job);
            }
            let _ = slot.tx.send(response);
        }
        self.flush_parked(state, now);
        Self::compact_journal(state);
    }

    /// Rewrites the journal to its live jobs once it has outgrown the last
    /// rewrite ([`Journal::wants_compaction`]), from the in-memory live
    /// set: the work is proportional to the live bytes, never to the file.
    /// A failed rewrite leaves the journal as it was; a failed reopen is
    /// retried by the next append.
    fn compact_journal(state: &mut CoreState) {
        let CoreState {
            journal: Some(journal),
            jobs,
            next_gid,
            compactions,
            ..
        } = state
        else {
            return;
        };
        if !journal.wants_compaction() {
            return;
        }
        let mut live: Vec<(&u64, &LiveJob)> = jobs.iter().filter(|(_, r)| !r.probe).collect();
        live.sort_unstable_by_key(|&(&gid, _)| gid);
        let live = live
            .into_iter()
            .map(|(&gid, r)| (gid, r.client_job, &r.spec));
        match journal.compact(*next_gid, live) {
            Ok(()) => *compactions += 1,
            Err(e) => eprintln!("saim-cluster: journal compaction failed: {e}"),
        }
    }
}

impl SessionCore for RouterCore {
    fn register(&self, tx: mpsc::Sender<Response>) -> u64 {
        let mut state = self.state.lock().expect("router lock is never poisoned");
        let id = state.next_client;
        state.next_client += 1;
        state.clients.insert(
            id,
            RouterClient {
                stats: ClientStats::default(),
                by_job: HashMap::new(),
                tx,
            },
        );
        id
    }

    fn handle(&self, client: u64, request: Request) {
        match request {
            // weights are a backend-scheduler concern; the router accepts
            // the frame for protocol parity and keeps fair sharing local to
            // each shard
            Request::Hello { .. } => {}
            Request::Submit {
                spec,
                priority,
                deadline_ms,
            } => self.submit(client, spec, priority, deadline_ms),
            Request::Cancel { job } => self.cancel(client, job),
            Request::Stats => self.stats(client),
        }
    }

    fn reject(&self, client: u64, error: &FrameError) {
        let state = self.state.lock().expect("router lock is never poisoned");
        Self::send_to(&state, client, Response::rejected(error));
    }

    /// Disconnect semantics: the slot (and its delivery channel) goes away;
    /// the router still owes each routed job a settlement — it lands in the
    /// journal as usual, just with nobody left to deliver to.
    fn disconnect(&self, client: u64) {
        let mut state = self.state.lock().expect("router lock is never poisoned");
        state.clients.remove(&client);
    }
}

/// The longest poll of a link that has no [`LinkWaker`]: nothing can cut
/// its wait short, so this bounds how late it sees newly queued work.
const UNWAKEABLE_POLL: Duration = Duration::from_millis(10);

/// One backend's pump: ships outgoing frames, then sleeps in the link's
/// poll until a response arrives, the router queues work for it (the
/// waker), or its next timer is due; reports a transport death exactly
/// once. Exits when superseded by a fresh link or when the cluster shuts
/// down.
fn pump(core: Arc<RouterCore>, b: usize, gen: u64, mut link: Box<dyn BackendLink>, wakeable: bool) {
    loop {
        let Some((outgoing, wait)) = core.take_outgoing(b, gen) else {
            return;
        };
        for request in outgoing {
            if link.send(&request).is_err() {
                core.backend_fatal(b, gen);
                return;
            }
        }
        let wait = if wakeable {
            wait
        } else {
            wait.min(UNWAKEABLE_POLL)
        };
        match link.poll(wait) {
            Ok(Some(response)) => core.on_response(b, gen, response),
            Ok(None) => {}
            Err(_) => {
                core.backend_fatal(b, gen);
                return;
            }
        }
    }
}

// --------------------------------------------------------------- cluster

/// Counters and backlog of a [`Cluster`], from [`Cluster::stats`] or the
/// final [`Cluster::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ClusterReport {
    /// Fleet-wide client counters (accepted/settled buckets).
    pub fleet: ClientStats,
    /// Jobs parked in the router plus queued toward backends.
    pub queue_depth: u64,
    /// Failovers performed: journaled-but-unsettled jobs re-placed after
    /// their backend died, shed, or went down.
    pub reroutes: u64,
    /// Late or duplicate terminal frames dropped by settlement dedup.
    pub duplicates_dropped: u64,
    /// The part of `duplicates_dropped` whose gid had no live job and no
    /// tombstone left: settled more than [`TOMBSTONE_HORIZON`] settlements
    /// earlier (or a half-open probe job abandoned with its backend). Such
    /// frames skip the outcome-mismatch cross-check.
    pub duplicates_past_horizon: u64,
    /// Routed jobs still owed a terminal frame.
    pub unsettled: u64,
    /// Settled gids still remembered as tombstones; at most
    /// [`TOMBSTONE_HORIZON`]. With `unsettled`, all the jobs the router
    /// tracks.
    pub tombstones: u64,
    /// Online journal compactions performed (zero without a journal); see
    /// [`journal`'s compaction docs](journal#compaction).
    pub compactions: u64,
    /// Hedged-replication counters (all zero with `k = 1`).
    pub hedges: HedgeStats,
    /// Settled-vs-late-replica outcome divergences — the determinism
    /// alarm; any nonzero value means a backend computed a wrong answer.
    pub outcome_mismatches: u64,
}

/// The sharded router; see the [module docs](self). Construct with
/// [`Cluster::start`], connect in-process sessions with
/// [`Cluster::connect`], serve TCP clients with [`Cluster::serve`].
pub struct Cluster {
    core: Arc<RouterCore>,
    pumps: Mutex<Vec<std::thread::JoinHandle<()>>>,
    listeners: Arc<Listeners>,
    recovery_anomalies: Vec<JournalAnomaly>,
}

impl Cluster {
    /// Starts a router over `links` (one per backend shard). When
    /// [`ClusterConfig::journal`] names a file, an existing journal is
    /// replayed first: every routed-but-unsettled job is re-admitted,
    /// owned by the returned recovery handle, and re-placed as backends
    /// come up — the router-restart half of exactly-once.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal exists but cannot be trusted
    /// (I/O failure, foreign version, unreadable envelope). Nothing runs
    /// on error.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (zero window, frame limit, or
    /// probe interval).
    pub fn start(
        config: ClusterConfig,
        links: Vec<Box<dyn BackendLink>>,
    ) -> Result<(Self, RouterHandle), JournalError> {
        config.validate();
        let (journal, recovery) = match &config.journal {
            Some(path) => {
                let (journal, recovery) = Journal::open(path)?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };
        let backends = links.len();
        let core = Arc::new(RouterCore {
            state: Mutex::new(CoreState {
                clients: HashMap::new(),
                backends: (0..backends).map(|_| BackendSlot::new()).collect(),
                jobs: HashMap::new(),
                tombstones: HashMap::new(),
                settled_order: VecDeque::new(),
                parked: VecDeque::new(),
                fleet: ClientStats::default(),
                health: HealthTracker::new(backends, DOWN_AFTER_MISSES),
                journal,
                next_client: 1,
                next_gid: recovery.as_ref().map_or(1, |r| r.next_gid),
                shutting_down: false,
                duplicates_dropped: 0,
                duplicates_past_horizon: 0,
                compactions: 0,
                reroutes: 0,
                timed_settles: 0,
                timed_settle_ms: 0,
                pending_hedges: HashMap::new(),
                extra_live: 0,
                hedges: HedgeStats::default(),
                outcome_mismatches: 0,
            }),
            config,
            epoch: Instant::now(),
        });
        let mut cluster = Cluster {
            core: Arc::clone(&core),
            pumps: Mutex::new(Vec::new()),
            listeners: Arc::default(),
            recovery_anomalies: Vec::new(),
        };
        let recovery_handle = cluster.connect();
        if let Some(recovered) = recovery {
            cluster.recovery_anomalies = recovered.anomalies;
            let mut guard = core.state.lock().expect("router lock is never poisoned");
            let state = &mut *guard;
            for job in recovered.unsettled {
                state.jobs.insert(
                    job.gid,
                    LiveJob::new(recovery_handle.client_id(), job.client_job, job.spec, 0),
                );
                state.fleet.accepted += 1;
                if let Some(slot) = state.clients.get_mut(&recovery_handle.client_id()) {
                    slot.stats.accepted += 1;
                    slot.by_job.insert(job.client_job, job.gid);
                }
                state.parked.push_back(job.gid);
            }
        }
        for (b, link) in links.into_iter().enumerate() {
            cluster.attach(b, link, BackendState::Up);
        }
        Ok((cluster, recovery_handle))
    }

    fn attach(&self, b: usize, link: Box<dyn BackendLink>, initial: BackendState) {
        let waker = link.waker();
        let wakeable = waker.is_some();
        let gen = {
            let mut guard = self
                .core
                .state
                .lock()
                .expect("router lock is never poisoned");
            let state = &mut *guard;
            state.backends[b].generation += 1;
            state.backends[b].pump_alive = true;
            // a superseded pump still blocked in its poll wakes and exits
            if let Some(old) = std::mem::replace(&mut state.backends[b].waker, waker) {
                old.wake();
            }
            state.backends[b].control.clear();
            state.backends[b].awaiting = None;
            state.backends[b].last_probe = 0;
            state.backends[b].probe_outstanding = false;
            state.backends[b].want_probe_job = false;
            state.backends[b].backoff_until = 0;
            match initial {
                BackendState::Up => {
                    state.health.fatal(b);
                    state.health.probe_ok(b);
                    state.health.probe_job_settled(b);
                }
                _ => state.health.fatal(b),
            }
            state.backends[b].generation
        };
        let core = Arc::clone(&self.core);
        let handle = std::thread::spawn(move || pump(core, b, gen, link, wakeable));
        self.pumps
            .lock()
            .expect("pump registry lock is never poisoned")
            .push(handle);
    }

    /// Attaches a fresh link for backend `b` after its previous link died
    /// — the restart path. The backend starts [`BackendState::Down`] and
    /// must walk the half-open probe ritual before taking new jobs, during
    /// which its recovery stream (resumed outcomes, if any) drains through
    /// the router's settlement dedup.
    pub fn attach_backend(&self, b: usize, link: Box<dyn BackendLink>) {
        self.attach(b, link, BackendState::Down);
    }

    /// Registers an in-process client session, the same session each TCP
    /// connection runs. Dropping the handle disconnects it (remaining
    /// settlements still happen; delivery is dropped).
    pub fn connect(&self) -> RouterHandle {
        ClientHandle::open(self.core.clone())
    }

    /// Serves NDJSON client connections from `listener` on a background
    /// thread that blocks in `accept` until [`Cluster::shutdown`] or the
    /// cluster's drop. Each connection is a [`Cluster::connect`] session
    /// plus a thread writing its responses to the socket — the same session
    /// layer as `saim-server`, so existing clients need no changes to talk
    /// to the cluster.
    pub fn serve(&self, listener: TcpListener) -> std::thread::JoinHandle<()> {
        self.listeners.serve(self.core.clone(), listener)
    }

    /// Every backend's health state, by index.
    pub fn backend_states(&self) -> Vec<BackendState> {
        self.core
            .state
            .lock()
            .expect("router lock is never poisoned")
            .health
            .states()
    }

    /// Current counters and backlog.
    pub fn stats(&self) -> ClusterReport {
        let guard = self
            .core
            .state
            .lock()
            .expect("router lock is never poisoned");
        let state = &*guard;
        ClusterReport {
            fleet: state.fleet,
            queue_depth: RouterCore::queue_depth(state),
            reroutes: state.reroutes,
            duplicates_dropped: state.duplicates_dropped,
            duplicates_past_horizon: state.duplicates_past_horizon,
            unsettled: state.jobs.values().filter(|r| !r.probe).count() as u64,
            tombstones: state.tombstones.len() as u64,
            compactions: state.compactions,
            hedges: state.hedges,
            outcome_mismatches: state.outcome_mismatches,
        }
    }

    /// Typed anomalies the journal replay reported at
    /// [`Cluster::start`] (empty without a journal, or for a clean one).
    pub fn recovery_anomalies(&self) -> &[JournalAnomaly] {
        &self.recovery_anomalies
    }

    /// Stops serving and routing and joins the pumps, returning the final
    /// counters. Unsettled jobs stay in the journal (when configured) for
    /// the next incarnation; draining backends to their checkpoint
    /// directories is the caller's move next ([`ManagedBackend::drain`]).
    pub fn shutdown(self) -> ClusterReport {
        self.stop();
        self.stats()
    }

    /// Stops the accept loops and the pumps; idempotent.
    fn stop(&self) {
        self.listeners.stop();
        {
            let mut state = self
                .core
                .state
                .lock()
                .expect("router lock is never poisoned");
            state.shutting_down = true;
            for slot in &state.backends {
                slot.wake();
            }
        }
        let pumps: Vec<_> = self
            .pumps
            .lock()
            .expect("pump registry lock is never poisoned")
            .drain(..)
            .collect();
        for handle in pumps {
            let _ = handle.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An in-process client session on a [`Cluster`]: the one session type
/// both faces share, named for its router role.
pub type RouterHandle = ClientHandle;

// ------------------------------------------------------- managed backend

/// An in-process backend shard with a crash/drain/restart lifecycle — the
/// test-harness stand-in for one `saim-server` process, built so the
/// kill-and-recover scripts exercise the real drain and `--resume` code
/// paths.
pub struct ManagedBackend {
    config: FrontendConfig,
    drain_dir: PathBuf,
    frontend: Option<Frontend>,
    /// Anchor clones of handed-out link sessions: while the backend "runs",
    /// a killed link's drop must not disconnect the session (a crashed
    /// router does not un-submit jobs from a live backend).
    anchors: Vec<Arc<SessionSender>>,
}

impl ManagedBackend {
    /// Starts a shard that will drain to `drain_dir` when killed.
    pub fn start(config: FrontendConfig, drain_dir: PathBuf) -> Self {
        ManagedBackend {
            frontend: Some(Frontend::start(config.clone())),
            config,
            drain_dir,
            anchors: Vec::new(),
        }
    }

    /// Whether the shard is currently serving.
    pub fn is_running(&self) -> bool {
        self.frontend.is_some()
    }

    /// Opens a new router link to the running shard.
    ///
    /// # Panics
    ///
    /// Panics when the shard is drained; restart it first.
    pub fn link(&mut self) -> Box<dyn BackendLink> {
        let frontend = self
            .frontend
            .as_ref()
            .expect("link() requires a running backend");
        let session = frontend.connect();
        self.anchored_link(session)
    }

    /// A link over `session` whose send half this backend anchors.
    fn anchored_link(&mut self, session: ClientHandle) -> Box<dyn BackendLink> {
        let (sender, responses) = session.split();
        let anchor = Arc::new(sender);
        self.anchors.push(Arc::clone(&anchor));
        Box::new(InProcessLink::shared(anchor, responses))
    }

    /// Gracefully stops the shard, persisting every queued and running job
    /// into the drain directory (the backend half of cluster shutdown, and
    /// the setup for a bit-identical [`ManagedBackend::restart`]).
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from the drain; the shard is stopped either
    /// way.
    pub fn drain(&mut self) -> Result<DrainReport, CheckpointError> {
        let frontend = self
            .frontend
            .take()
            .ok_or_else(|| CheckpointError::Io("backend already drained".into()))?;
        let report = frontend.shutdown_to(&self.drain_dir);
        self.anchors.clear();
        report
    }

    /// Restarts a drained shard via [`Frontend::resume`] and returns the
    /// link to hand to [`Cluster::attach_backend`]: the `--resume` recovery
    /// stream *is* the link, so recovered outcomes drain through the
    /// router's settlement dedup before the shard can pass its half-open
    /// probe.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from reading the drain directory, or an
    /// `Io` error when the shard is still running.
    pub fn restart(&mut self) -> Result<Box<dyn BackendLink>, CheckpointError> {
        if self.frontend.is_some() {
            return Err(CheckpointError::Io(
                "cannot restart a running backend".into(),
            ));
        }
        let (frontend, recovery) = Frontend::resume(self.config.clone(), &self.drain_dir)?;
        self.frontend = Some(frontend);
        Ok(self.anchored_link(recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SolverSpec;

    fn toy_spec(job: u64, seed: u64) -> JobSpec {
        let mut b = QuboBuilder::new(4);
        for i in 0..4 {
            b.add_linear(i, -1.0).expect("index in range");
        }
        b.add_pair(0, 1, 0.5).expect("indices in range");
        JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 50 }, seed)
    }

    #[test]
    fn health_walks_up_suspect_down_halfopen_up() {
        let mut h = HealthTracker::new(1, 3);
        assert_eq!(h.state(0), BackendState::Up);
        assert_eq!(h.probe_missed(0), BackendState::Suspect);
        assert_eq!(h.probe_missed(0), BackendState::Suspect);
        assert_eq!(h.probe_missed(0), BackendState::Down);
        // down stays down on further misses
        assert_eq!(h.probe_missed(0), BackendState::Down);
        // revival: an answered probe half-opens, not full up
        assert_eq!(h.probe_ok(0), BackendState::HalfOpen);
        // half-open that stops answering re-trips immediately
        assert_eq!(h.probe_missed(0), BackendState::Down);
        assert_eq!(h.probe_ok(0), BackendState::HalfOpen);
        // only the probe job's settlement closes the breaker
        assert_eq!(h.probe_ok(0), BackendState::HalfOpen);
        assert_eq!(h.probe_job_settled(0), BackendState::Up);
        // a suspect backend recovers straight to up
        assert_eq!(h.probe_missed(0), BackendState::Suspect);
        assert_eq!(h.probe_ok(0), BackendState::Up);
        // misses reset on recovery: two fresh misses are not down yet
        assert_eq!(h.probe_missed(0), BackendState::Suspect);
        assert_eq!(h.probe_missed(0), BackendState::Suspect);
    }

    #[test]
    fn fatal_trips_from_any_state_and_settle_outside_halfopen_is_inert() {
        let mut h = HealthTracker::new(2, 1);
        h.fatal(0);
        assert_eq!(h.state(0), BackendState::Down);
        assert_eq!(h.probe_job_settled(0), BackendState::Down);
        assert_eq!(h.probe_job_settled(1), BackendState::Up);
        // down_after=1: one miss trips immediately
        assert_eq!(h.probe_missed(1), BackendState::Down);
    }

    #[test]
    fn rendezvous_is_stable_and_minimally_disruptive() {
        let all: Vec<usize> = (0..4).collect();
        let keys: Vec<u64> = (0..64).map(|i| 0x9E37 + i * 0x5851F42D).collect();
        let placed: Vec<usize> = keys
            .iter()
            .map(|&k| rendezvous_choice(k, &all).expect("candidates nonempty"))
            .collect();
        // deterministic: same inputs, same placement
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(rendezvous_choice(k, &all), Some(placed[i]));
        }
        // spread: no shard owns everything
        for b in 0..4 {
            assert!(placed.contains(&b), "shard {b} owns no keys");
        }
        // minimal disruption: removing shard 2 moves only shard 2's keys
        let without: Vec<usize> = all.iter().copied().filter(|&b| b != 2).collect();
        for (i, &k) in keys.iter().enumerate() {
            let moved = rendezvous_choice(k, &without).expect("candidates nonempty");
            if placed[i] != 2 {
                assert_eq!(moved, placed[i], "non-evicted key moved shards");
            } else {
                assert_ne!(moved, 2);
            }
        }
        assert_eq!(rendezvous_choice(7, &[]), None);
    }

    #[test]
    fn settled_jobs_keep_tombstones_for_the_horizon_and_count_older_duplicates() {
        let (cluster, _recovery) =
            Cluster::start(ClusterConfig::default(), Vec::new()).expect("no journal configured");
        let core = &cluster.core;
        let failure = || Settlement::Failure {
            instance_digest: 0,
            message: "scripted".into(),
        };
        let total = TOMBSTONE_HORIZON as u64 + 10;
        {
            let mut guard = core.state.lock().expect("router lock is never poisoned");
            let state = &mut *guard;
            for gid in 1..=total {
                state
                    .jobs
                    .insert(gid, LiveJob::new(0, gid, toy_spec(gid, gid), 0));
                core.settle(state, None, gid, failure());
            }
            assert!(state.jobs.is_empty(), "settling drops the live job");
            assert_eq!(state.tombstones.len(), TOMBSTONE_HORIZON);
            assert_eq!(state.settled_order.len(), TOMBSTONE_HORIZON);
            // a duplicate inside the horizon meets its tombstone
            core.settle(state, None, total, failure());
            // one past it is dropped all the same, and counted
            core.settle(state, None, 1, failure());
        }
        let report = cluster.shutdown();
        assert_eq!(report.fleet.failed, total, "each gid settled once");
        assert_eq!(report.duplicates_dropped, 2);
        assert_eq!(report.duplicates_past_horizon, 1);
        assert_eq!(report.tombstones, TOMBSTONE_HORIZON as u64);
    }

    #[test]
    fn in_process_cluster_round_trips_and_reports_stats() {
        let mut b0 = ManagedBackend::start(
            FrontendConfig {
                workers: 1,
                ..FrontendConfig::default()
            },
            std::env::temp_dir().join("saim-cluster-unit-b0"),
        );
        let mut b1 = ManagedBackend::start(
            FrontendConfig {
                workers: 1,
                ..FrontendConfig::default()
            },
            std::env::temp_dir().join("saim-cluster-unit-b1"),
        );
        let (cluster, _recovery) =
            Cluster::start(ClusterConfig::default(), vec![b0.link(), b1.link()])
                .expect("no journal configured");
        let handle = cluster.connect();
        let specs: Vec<JobSpec> = (1..=6).map(|j| toy_spec(j, 40 + j)).collect();
        for spec in &specs {
            handle.submit(spec.clone(), 0, None);
        }
        let mut outcomes = HashMap::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while outcomes.len() < specs.len() {
            assert!(Instant::now() < deadline, "cluster round-trip timed out");
            match handle.recv_timeout(Duration::from_millis(100)) {
                Some(Response::Outcome { outcome }) => {
                    outcomes.insert(outcome.job, outcome);
                }
                Some(Response::Accepted { .. }) | None => {}
                Some(other) => panic!("unexpected frame {other:?}"),
            }
        }
        for spec in &specs {
            let oracle = spec.run().canonical();
            let got = outcomes[&spec.job].canonical();
            assert_eq!(got, oracle, "outcome diverged from direct run");
        }
        let report = cluster.shutdown();
        assert_eq!(report.fleet.accepted, 6);
        assert_eq!(report.fleet.completed, 6);
        assert_eq!(report.unsettled, 0);
        b0.drain().expect("drain clean");
        b1.drain().expect("drain clean");
    }
}
