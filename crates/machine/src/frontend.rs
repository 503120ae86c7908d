//! Fault-tolerant network front-end: the layer that faces untrusted
//! clients and keeps the solver fleet healthy under partial failure.
//!
//! This module owns the crate's one persistent job pool: a worker fleet
//! executing [`service`] jobs, shared by **many
//! mutually-untrusting clients** over a line-delimited JSON (NDJSON)
//! protocol — or in process through [`Frontend::connect`] — with the
//! robustness properties a shared service needs:
//!
//! - **Strict framing** — every request line is parsed against the schema-v3
//!   wire format with typed rejection ([`FrameError`]): malformed JSON,
//!   unknown fields, wrong schema versions, and oversized lines each earn an
//!   error frame on that connection while the fleet keeps running. A bad
//!   client can never poison the service.
//! - **Weighted-fair scheduling** — jobs wait in a [`ScheduledQueue`]:
//!   strict priority classes, weighted-fair service across clients within
//!   a class, earliest-deadline-first within one client's backlog. A flooding client slows only itself down.
//! - **Admission control** — the queue is bounded by policy, not memory:
//!   past [`FrontendConfig::max_queued`] (or the per-client cap) a submit is
//!   shed with a typed [`Response::Overloaded`] carrying `retry_after_ms`,
//!   and the [`Backoff`] helper gives clients a deterministic, seeded,
//!   jittered exponential retry schedule.
//! - **Deadline shedding** — a job whose deadline passes while still queued
//!   is returned as a zero-work [`OutcomeKind::DeadlineExceeded`] outcome at
//!   dequeue, never spun up on a worker.
//! - **Cancellation** — an explicit cancel, or the client's disconnect,
//!   removes that client's queued jobs and cooperatively cancels its running
//!   ones through per-job [`RunController`]s.
//! - **Drain and resume** — [`Frontend::shutdown_to`] checkpoints in-flight
//!   jobs and persists queued ones in the drain-directory layout described
//!   in the [`service`] module docs; [`Frontend::resume`]
//!   continues them **bit-identically** to never-interrupted runs, at any
//!   worker count.
//! - **Accounting** — per-client and fleet-wide [`ClientStats`] hold the
//!   no-lost-jobs invariant: every accepted job lands in exactly one
//!   terminal bucket (completed / failed / cancelled / expired).
//!
//! A session is an in-process [`ClientHandle`] ([`Frontend::connect`])
//! speaking the same [`Request`]/[`Response`] values the TCP face
//! serializes, so every scheduling and failure path is unit-testable
//! without networking. A TCP session is exactly such a handle plus a thread
//! writing its responses to the socket: [`Frontend::serve`] blocks in
//! `accept` until shutdown or drop and runs one per connection, the same
//! session layer `saim-router`'s client face uses. [`NdjsonClient`] is the
//! matching client helper.
//!
//! # Running the server
//!
//! The `saim-server` binary (crate `crates/server`) is a thin shell over
//! this module:
//!
//! ```text
//! saim-server --listen 127.0.0.1:7878 --workers 4 --drain-dir ./drain
//! ```
//!
//! It serves NDJSON over TCP and reads admin commands from stdin: `shutdown`
//! drains to the drain directory (the process's SIGTERM analog — checkpoint
//! files for running jobs, spec files for queued ones) and `stats` prints
//! fleet counters. Restarting with `--resume` picks the drained jobs back up
//! bit-identically. `--stdio` serves a single anonymous session on
//! stdin/stdout instead of TCP, and `--smoke` runs a self-contained loopback
//! round-trip (the CI smoke test).
//!
//! ## Frame format
//!
//! One JSON object per line. Requests:
//!
//! ```text
//! {"schema":3,"frame":"hello","weight":4}
//! {"schema":3,"frame":"submit","priority":0,"deadline_ms":5000,"spec":{...JobSpec...}}
//! {"schema":3,"frame":"cancel","job":7}
//! {"schema":3,"frame":"stats"}
//! ```
//!
//! Responses: `accepted` (job admitted), `outcome` (terminal
//! [`JobOutcome`], including cancelled/expired partials), `failure` (the job
//! panicked; carries its origin ids), `rejected` (typed frame/schema error,
//! connection stays usable unless framing itself is lost), `overloaded`
//! (admission shed; retry after the hinted delay), and `stats` — which
//! since schema v3 also reports the fleet's live `queue_depth` and an
//! `eta_ms` drain estimate (queued jobs × the mean settled-job wall time ÷
//! workers; `0` until the fleet has settled its first job).
//!
//! `deadline_ms` is a relative budget: the server stamps the absolute
//! deadline at admission on its own monotonic clock, so client/server clock
//! skew cannot expire jobs retroactively (the fault harness's skew knob
//! exists precisely to test that the *server's* clock governs).
//!
//! # Fault injection
//!
//! [`faults::FaultPlan`] is a deterministic, always-compiled hook set wired
//! through [`FrontendConfig::faults`] (`None` in production): worker holds
//! (freeze dequeue to build exact backlogs), scripted per-job panics, a
//! scheduler clock-skew knob, and a dequeue log. The loopback tests in
//! `tests/net_frontend.rs` drive every degradation path through it.
//!
//! # Cluster topology
//!
//! One front-end is one shard. The [`cluster`](crate::cluster) module
//! stacks N of them behind `saim-router` — rendezvous-hash placement,
//! probe-driven health/circuit-breaking, and a write-ahead intent journal
//! giving exactly-once settlement across backend failures; its module docs
//! carry the full router ↔ backend wire flow, failure-mode catalogue, and
//! the exactly-once argument. Backend-level faults for that layer (kill,
//! partition/heal, duplicate-outcome replay) are scripted through
//! [`faults::BackendFaultPlan`].

use crate::checkpoint::{write_atomic, CheckpointError, OutcomeKind, RunController};
use crate::parallel::{self, ScheduledQueue, Ticket};
use crate::service::{
    self, check_known_fields, parse_field, parse_json, JobOutcome, JobSpec, SchemaError, SolverJob,
    SCHEMA_VERSION,
};
use crate::session::{Listeners, SessionCore};
use crate::telemetry::ClientStats;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::session::ClientHandle;

pub mod faults;

// ---------------------------------------------------------------- framing

/// Why a request line was rejected before reaching the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The line exceeded the session's frame cap
    /// ([`FrontendConfig::max_frame_bytes`], [`MAX_FRAME_BYTES`] on the
    /// router's client face). The framing itself is no longer trustworthy
    /// past this point, so the connection is closed after the error frame.
    Oversized {
        /// The configured limit the line exceeded.
        limit: usize,
    },
    /// The line parsed as a frame but its payload failed the strict wire
    /// schema (malformed JSON, wrong version, unknown field, bad shape).
    Schema(SchemaError),
    /// The `frame` tag named no request this protocol defines.
    UnknownFrame(String),
    /// A cancel named a job this client has no record of.
    UnknownJob(u64),
}

impl FrameError {
    /// Stable machine-readable code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::Oversized { .. } => "oversized",
            FrameError::Schema(SchemaError::Json(_)) => "json",
            FrameError::Schema(SchemaError::VersionMismatch { .. }) => "version",
            FrameError::Schema(SchemaError::UnknownField(_)) => "unknown_field",
            FrameError::Schema(SchemaError::Malformed(_)) => "malformed",
            FrameError::UnknownFrame(_) => "unknown_frame",
            FrameError::UnknownJob(_) => "unknown_job",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Schema(e) => write!(f, "{e}"),
            FrameError::UnknownFrame(tag) => write!(f, "unknown frame `{tag}`"),
            FrameError::UnknownJob(job) => write!(f, "no queued or running job {job}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Declares the client's fair-share weight for subsequent submissions.
    Hello {
        /// Weight (clamped to at least 1 by the scheduler).
        weight: u32,
    },
    /// Submits a job.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Strict priority class; higher is more urgent.
        priority: u8,
        /// Relative deadline budget in milliseconds, if any; stamped
        /// absolute on the server clock at admission.
        deadline_ms: Option<u64>,
    },
    /// Cancels a job by its client-chosen id (job ids should be unique per
    /// client; a reused id addresses the most recent submission).
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// Requests this client's and the fleet's counters.
    Stats,
}

impl Request {
    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![("schema".into(), SCHEMA_VERSION.to_value())];
        match self {
            Request::Hello { weight } => {
                fields.push(("frame".into(), Value::Str("hello".into())));
                fields.push(("weight".into(), weight.to_value()));
            }
            Request::Submit {
                spec,
                priority,
                deadline_ms,
            } => {
                fields.push(("frame".into(), Value::Str("submit".into())));
                fields.push(("priority".into(), u32::from(*priority).to_value()));
                fields.push(("deadline_ms".into(), deadline_ms.to_value()));
                fields.push(("spec".into(), spec.to_value()));
            }
            Request::Cancel { job } => {
                fields.push(("frame".into(), Value::Str("cancel".into())));
                fields.push(("job".into(), job.to_value()));
            }
            Request::Stats => fields.push(("frame".into(), Value::Str("stats".into()))),
        }
        serde_json::to_string(&Value::Object(fields)).expect("frame serialization is infallible")
    }

    /// Strictly parses one request line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Schema`] for malformed JSON, a version other than
    /// [`SCHEMA_VERSION`] (checked first), unknown fields at the envelope or
    /// inside an embedded spec, or shape mismatches;
    /// [`FrameError::UnknownFrame`] for an unrecognized `frame` tag.
    pub fn from_line(line: &str) -> Result<Self, FrameError> {
        let value = parse_json(line).map_err(FrameError::Schema)?;
        check_frame_version(&value)?;
        let tag = match value.field("frame") {
            Ok(Value::Str(tag)) => tag.clone(),
            Ok(other) => {
                return Err(FrameError::Schema(SchemaError::Malformed(format!(
                    "field `frame`: expected string, found {}",
                    other.kind()
                ))))
            }
            Err(e) => return Err(FrameError::Schema(SchemaError::Malformed(e.to_string()))),
        };
        match tag.as_str() {
            "hello" => {
                check_known_fields(&value, &["schema", "frame", "weight"])
                    .map_err(FrameError::Schema)?;
                Ok(Request::Hello {
                    weight: parse_field(&value, "weight").map_err(FrameError::Schema)?,
                })
            }
            "submit" => {
                check_known_fields(
                    &value,
                    &["schema", "frame", "priority", "deadline_ms", "spec"],
                )
                .map_err(FrameError::Schema)?;
                let priority: u32 = parse_field(&value, "priority").map_err(FrameError::Schema)?;
                let priority = u8::try_from(priority).map_err(|_| {
                    FrameError::Schema(SchemaError::Malformed(
                        "field `priority`: exceeds 255".into(),
                    ))
                })?;
                let deadline_ms: Option<u64> =
                    parse_field(&value, "deadline_ms").map_err(FrameError::Schema)?;
                let spec = value
                    .field("spec")
                    .map_err(|e| FrameError::Schema(SchemaError::Malformed(e.to_string())))
                    .and_then(|v| JobSpec::from_value_strict(v).map_err(FrameError::Schema))?;
                Ok(Request::Submit {
                    spec,
                    priority,
                    deadline_ms,
                })
            }
            "cancel" => {
                check_known_fields(&value, &["schema", "frame", "job"])
                    .map_err(FrameError::Schema)?;
                Ok(Request::Cancel {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                })
            }
            "stats" => {
                check_known_fields(&value, &["schema", "frame"]).map_err(FrameError::Schema)?;
                Ok(Request::Stats)
            }
            other => Err(FrameError::UnknownFrame(other.to_string())),
        }
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit was admitted; a terminal frame for this job will follow.
    Accepted {
        /// The spec's client-chosen job id, echoed.
        job: u64,
    },
    /// A terminal [`JobOutcome`] — completed, or a partial tagged
    /// cancelled/deadline-exceeded (a job shed while queued reports
    /// `mcs == 0`).
    Outcome {
        /// The outcome.
        outcome: JobOutcome,
    },
    /// The job's execution panicked; its origin ids are echoed so the
    /// client can correlate without a side table.
    Failure {
        /// The spec's client-chosen job id.
        job: u64,
        /// The spec's instance digest.
        instance_digest: u64,
        /// The panic message.
        message: String,
    },
    /// The request was refused with a typed reason; nothing was admitted.
    Rejected {
        /// Machine-readable [`FrameError::code`].
        code: String,
        /// Human-readable detail.
        error: String,
    },
    /// Admission control shed the submit; retry with backoff.
    Overloaded {
        /// Server's hint for the client's first retry delay.
        retry_after_ms: u64,
    },
    /// Counter snapshot.
    Stats {
        /// This client's tallies.
        client: ClientStats,
        /// Fleet-wide tallies (all clients, including departed ones).
        fleet: ClientStats,
        /// Jobs currently waiting in the scheduler queue (fleet-wide).
        queue_depth: u64,
        /// Rough estimate of how long the current backlog takes to drain:
        /// `queue_depth × mean settled-job wall ms ÷ workers`. `0` until
        /// the fleet has settled at least one job.
        eta_ms: u64,
    },
}

impl Response {
    /// The typed rejection of a refused request.
    pub fn rejected(error: &FrameError) -> Self {
        Response::Rejected {
            code: error.code().to_string(),
            error: error.to_string(),
        }
    }

    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![("schema".into(), SCHEMA_VERSION.to_value())];
        match self {
            Response::Accepted { job } => {
                fields.push(("frame".into(), Value::Str("accepted".into())));
                fields.push(("job".into(), job.to_value()));
            }
            Response::Outcome { outcome } => {
                fields.push(("frame".into(), Value::Str("outcome".into())));
                fields.push(("outcome".into(), outcome.to_value()));
            }
            Response::Failure {
                job,
                instance_digest,
                message,
            } => {
                fields.push(("frame".into(), Value::Str("failure".into())));
                fields.push(("job".into(), job.to_value()));
                fields.push(("instance_digest".into(), instance_digest.to_value()));
                fields.push(("message".into(), Value::Str(message.clone())));
            }
            Response::Rejected { code, error } => {
                fields.push(("frame".into(), Value::Str("rejected".into())));
                fields.push(("code".into(), Value::Str(code.clone())));
                fields.push(("error".into(), Value::Str(error.clone())));
            }
            Response::Overloaded { retry_after_ms } => {
                fields.push(("frame".into(), Value::Str("overloaded".into())));
                fields.push(("retry_after_ms".into(), retry_after_ms.to_value()));
            }
            Response::Stats {
                client,
                fleet,
                queue_depth,
                eta_ms,
            } => {
                fields.push(("frame".into(), Value::Str("stats".into())));
                fields.push(("client".into(), client.to_value()));
                fields.push(("fleet".into(), fleet.to_value()));
                fields.push(("queue_depth".into(), queue_depth.to_value()));
                fields.push(("eta_ms".into(), eta_ms.to_value()));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("frame serialization is infallible")
    }

    /// Strictly parses one response line (the client-side mirror of
    /// [`Request::from_line`]; same error contract).
    ///
    /// # Errors
    ///
    /// See [`Request::from_line`].
    pub fn from_line(line: &str) -> Result<Self, FrameError> {
        let value = parse_json(line).map_err(FrameError::Schema)?;
        check_frame_version(&value)?;
        let tag = match value.field("frame") {
            Ok(Value::Str(tag)) => tag.clone(),
            Ok(other) => {
                return Err(FrameError::Schema(SchemaError::Malformed(format!(
                    "field `frame`: expected string, found {}",
                    other.kind()
                ))))
            }
            Err(e) => return Err(FrameError::Schema(SchemaError::Malformed(e.to_string()))),
        };
        let schema_err = FrameError::Schema;
        match tag.as_str() {
            "accepted" => {
                check_known_fields(&value, &["schema", "frame", "job"]).map_err(schema_err)?;
                Ok(Response::Accepted {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                })
            }
            "outcome" => {
                check_known_fields(&value, &["schema", "frame", "outcome"]).map_err(schema_err)?;
                let outcome = value
                    .field("outcome")
                    .map_err(|e| FrameError::Schema(SchemaError::Malformed(e.to_string())))
                    .and_then(|v| JobOutcome::from_value_strict(v).map_err(FrameError::Schema))?;
                Ok(Response::Outcome { outcome })
            }
            "failure" => {
                check_known_fields(
                    &value,
                    &["schema", "frame", "job", "instance_digest", "message"],
                )
                .map_err(schema_err)?;
                Ok(Response::Failure {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                    instance_digest: parse_field(&value, "instance_digest")
                        .map_err(FrameError::Schema)?,
                    message: parse_field(&value, "message").map_err(FrameError::Schema)?,
                })
            }
            "rejected" => {
                check_known_fields(&value, &["schema", "frame", "code", "error"])
                    .map_err(schema_err)?;
                Ok(Response::Rejected {
                    code: parse_field(&value, "code").map_err(FrameError::Schema)?,
                    error: parse_field(&value, "error").map_err(FrameError::Schema)?,
                })
            }
            "overloaded" => {
                check_known_fields(&value, &["schema", "frame", "retry_after_ms"])
                    .map_err(schema_err)?;
                Ok(Response::Overloaded {
                    retry_after_ms: parse_field(&value, "retry_after_ms")
                        .map_err(FrameError::Schema)?,
                })
            }
            "stats" => {
                check_known_fields(
                    &value,
                    &[
                        "schema",
                        "frame",
                        "client",
                        "fleet",
                        "queue_depth",
                        "eta_ms",
                    ],
                )
                .map_err(schema_err)?;
                Ok(Response::Stats {
                    client: parse_field(&value, "client").map_err(FrameError::Schema)?,
                    fleet: parse_field(&value, "fleet").map_err(FrameError::Schema)?,
                    queue_depth: parse_field(&value, "queue_depth").map_err(FrameError::Schema)?,
                    eta_ms: parse_field(&value, "eta_ms").map_err(FrameError::Schema)?,
                })
            }
            other => Err(FrameError::UnknownFrame(other.to_string())),
        }
    }
}

/// Frame-envelope version gate, mirroring the spec/outcome parsers: checked
/// before anything else so foreign-version frames read as a version problem,
/// not field noise.
fn check_frame_version(value: &Value) -> Result<(), FrameError> {
    let found: u32 = parse_field(value, "schema").map_err(FrameError::Schema)?;
    if found != SCHEMA_VERSION {
        return Err(FrameError::Schema(SchemaError::VersionMismatch {
            found,
            expected: SCHEMA_VERSION,
        }));
    }
    Ok(())
}

// ---------------------------------------------------------------- backoff

/// Deterministic seeded jittered exponential backoff for overloaded
/// retries: attempt `n` waits `base · 2ⁿ` capped at `cap`, then jittered to
/// 50–100% of that by a SplitMix64 stream — identical delay sequences for
/// identical seeds, so retry storms are testable and two clients with
/// different seeds decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    state: u64,
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base_ms` and capped at `cap_ms`.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Self {
        Backoff {
            state: seed,
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
        }
    }

    /// The next delay, advancing the attempt counter and the jitter stream.
    pub fn next_delay(&mut self) -> Duration {
        // SplitMix64 step — the same generator the engines' seed derivation
        // uses, chosen here for the identical reason: trivially seedable and
        // deterministic everywhere
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let ceiling = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceiling / 2;
        Duration::from_millis(ceiling - half + z % (half + 1))
    }

    /// Resets the attempt counter (after a successful request), keeping the
    /// jitter stream position.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Why [`NdjsonClient::submit_retrying`] gave up.
#[derive(Debug)]
pub enum RetryError {
    /// The transport failed underneath the retry loop.
    Io(std::io::Error),
    /// Every attempt in the retry budget was shed with
    /// [`Response::Overloaded`]; the job was never admitted.
    RetriesExhausted {
        /// Attempts made (submits sent) before giving up.
        attempts: u32,
        /// The server's `retry_after_ms` hint on the final shed.
        last_retry_after_ms: u64,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Io(e) => write!(f, "transport failed while retrying: {e}"),
            RetryError::RetriesExhausted {
                attempts,
                last_retry_after_ms,
            } => write!(
                f,
                "submit shed as overloaded on all {attempts} attempts \
                 (last retry hint {last_retry_after_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for RetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetryError::Io(e) => Some(e),
            RetryError::RetriesExhausted { .. } => None,
        }
    }
}

impl From<std::io::Error> for RetryError {
    fn from(e: std::io::Error) -> Self {
        RetryError::Io(e)
    }
}

// ------------------------------------------------------------------- hub

/// The protocol's longest request line, the default of
/// [`FrontendConfig::max_frame_bytes`] and the cap of the router's client
/// face and of [`TcpLink`](crate::cluster::TcpLink)'s backend reads.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How long a TCP session may sit with half a line before it is kicked: the
/// default of [`FrontendConfig::read_timeout`] and the router's client face.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The retry hint a [`Frontend`] carries on every [`Response::Overloaded`]
/// it sheds, in milliseconds.
pub const RETRY_AFTER_MS: u64 = 25;

/// Configuration of a [`Frontend`].
#[derive(Clone)]
pub struct FrontendConfig {
    /// Worker threads; `0` means all cores (one from inside another pool).
    pub workers: usize,
    /// Fleet-wide cap on queued jobs; submits past it are shed with
    /// [`Response::Overloaded`].
    pub max_queued: usize,
    /// Per-client cap on queued jobs — one flooding client must not consume
    /// the whole admission budget.
    pub max_queued_per_client: usize,
    /// Longest request line accepted before an `oversized` rejection.
    pub max_frame_bytes: usize,
    /// How long a connection may sit with a half-written line before the
    /// reader kicks it (the slow-loris guard). Idle connections with no
    /// partial line are never kicked.
    pub read_timeout: Duration,
    /// Deterministic fault-injection hooks; `None` in production.
    pub faults: Option<Arc<faults::FaultPlan>>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 0,
            max_queued: 256,
            max_queued_per_client: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            read_timeout: READ_TIMEOUT,
            faults: None,
        }
    }
}

impl FrontendConfig {
    fn validate(&self) {
        assert!(self.max_queued > 0, "admission budget must be positive");
        assert!(
            self.max_queued_per_client > 0,
            "per-client budget must be positive"
        );
        assert!(self.max_frame_bytes > 0, "frame limit must be positive");
    }
}

/// A job's bookkeeping while it runs.
struct Running {
    ctrl: RunController,
    client: u64,
}

/// One connected client's server-side state.
struct ClientSlot {
    weight: u32,
    queued: usize,
    stats: ClientStats,
    by_job: HashMap<u64, u64>,
    tx: mpsc::Sender<Response>,
}

struct HubState {
    clients: HashMap<u64, ClientSlot>,
    running: HashMap<u64, Running>,
    /// Checkpoints captured by workers during a drain, keyed by queue seq.
    drained: Vec<(u64, Box<crate::checkpoint::Checkpoint>)>,
    fleet: ClientStats,
    next_client: u64,
    draining: bool,
    /// Settled jobs that actually ran (elapsed > 0) and their total wall
    /// milliseconds — the running mean behind the `stats` frame's `eta_ms`.
    timed_settles: u64,
    timed_settle_ms: u64,
}

/// The shared core of a [`Frontend`]: scheduler queue, client registry, and
/// clock.
struct Hub {
    config: FrontendConfig,
    queue: ScheduledQueue<SolverJob>,
    state: Mutex<HubState>,
    epoch: Instant,
    /// Resolved worker-thread count (the ETA estimate's divisor).
    worker_count: usize,
}

impl Hub {
    /// Milliseconds on the scheduler clock: monotonic since start, plus the
    /// fault plan's skew (so tests can expire queued deadlines on demand).
    fn now_ms(&self) -> u64 {
        let real = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        match &self.config.faults {
            Some(f) => real.saturating_add_signed(f.skew_ms()),
            None => real,
        }
    }

    /// Backlog drain estimate: queued jobs × mean settled-job wall ms ÷
    /// workers. Deliberately rough — it answers "seconds or hours?", not
    /// "which millisecond" — and `0` until one timed job has settled.
    fn eta_ms(&self, state: &HubState) -> u64 {
        if state.timed_settles == 0 {
            return 0;
        }
        let mean_ms = state.timed_settle_ms / state.timed_settles;
        (self.queue.len() as u64)
            .saturating_mul(mean_ms)
            .checked_div(self.worker_count.max(1) as u64)
            .unwrap_or(0)
    }

    fn send_to(state: &HubState, client: u64, response: Response) {
        if let Some(slot) = state.clients.get(&client) {
            // a send fails only when the handle side is gone mid-disconnect;
            // the disconnect path has already settled the accounting then
            let _ = slot.tx.send(response);
        }
    }

    /// Admission + scheduling for one job. `enforce_admission` is false only
    /// for resume-time resubmission: recovered work was already admitted by
    /// the previous process and must not be shed by its own restart.
    ///
    /// The admission response is delivered on the client's channel *under
    /// the same lock hold* that makes the job visible to workers, so an
    /// `Accepted` always precedes its job's terminal frame even against a
    /// worker that settles instantly.
    fn submit_job(
        &self,
        client: u64,
        job: SolverJob,
        priority: u8,
        deadline_ms: Option<u64>,
        enforce_admission: bool,
    ) -> Response {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        let response = self.admit(
            &mut state,
            client,
            job,
            priority,
            deadline_ms,
            enforce_admission,
        );
        Self::send_to(&state, client, response.clone());
        response
    }

    /// The admission decision body of [`Hub::submit_job`]; runs with the
    /// state lock held by the caller.
    fn admit(
        &self,
        state: &mut HubState,
        client: u64,
        job: SolverJob,
        priority: u8,
        deadline_ms: Option<u64>,
        enforce_admission: bool,
    ) -> Response {
        let job_id = job.spec().job;
        if state.draining || !state.clients.contains_key(&client) {
            return Response::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            };
        }
        if enforce_admission {
            let slot = state.clients.get(&client).expect("checked above");
            if self.queue.len() >= self.config.max_queued
                || slot.queued >= self.config.max_queued_per_client
            {
                let slot = state.clients.get_mut(&client).expect("checked above");
                slot.stats.rejected += 1;
                state.fleet.rejected += 1;
                return Response::Overloaded {
                    retry_after_ms: RETRY_AFTER_MS,
                };
            }
        }
        let slot = state.clients.get_mut(&client).expect("checked above");
        let ticket = Ticket {
            client,
            weight: slot.weight,
            priority,
            deadline: deadline_ms.map(|d| self.now_ms().saturating_add(d)),
        };
        match self.queue.push(ticket, job) {
            Ok(seq) => {
                slot.queued += 1;
                slot.stats.accepted += 1;
                slot.by_job.insert(job_id, seq);
                state.fleet.accepted += 1;
                Response::Accepted { job: job_id }
            }
            // the queue closes only when the hub is draining, checked above;
            // losing that race still sheds politely
            Err(_) => Response::Overloaded {
                retry_after_ms: RETRY_AFTER_MS,
            },
        }
    }

    fn cancel(&self, client: u64, job: u64) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        let Some(slot) = state.clients.get(&client) else {
            return;
        };
        let Some(&seq) = slot.by_job.get(&job) else {
            Self::send_to(
                &state,
                client,
                Response::rejected(&FrameError::UnknownJob(job)),
            );
            return;
        };
        if let Some((_, removed)) = self.queue.remove_seq(seq) {
            // still queued: settle it here, synthesizing the zero-work
            // cancelled outcome — no worker ever sees it
            let slot = state.clients.get_mut(&client).expect("present above");
            slot.queued -= 1;
            slot.by_job.remove(&job);
            slot.stats.cancelled += 1;
            state.fleet.cancelled += 1;
            let outcome =
                JobOutcome::expired(removed.spec()).with_outcome_kind(OutcomeKind::Cancelled);
            Self::send_to(&state, client, Response::Outcome { outcome });
        } else if let Some(running) = state.running.get(&seq) {
            // mid-run: ask the job's controller; the worker settles it
            running.ctrl.request_cancel();
        } else {
            Self::send_to(
                &state,
                client,
                Response::rejected(&FrameError::UnknownJob(job)),
            );
        }
    }

    /// Classifies one terminal result into the stats buckets and delivers
    /// the response (when the client is still connected).
    fn settle(
        &self,
        seq: u64,
        client: u64,
        job_id: u64,
        bucket: impl Fn(&mut ClientStats),
        response: Response,
    ) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        state.running.remove(&seq);
        if let Response::Outcome { outcome } = &response {
            if outcome.elapsed_ns > 0 {
                state.timed_settles += 1;
                state.timed_settle_ms += outcome.elapsed_ns / 1_000_000;
            }
        }
        bucket(&mut state.fleet);
        if let Some(slot) = state.clients.get_mut(&client) {
            bucket(&mut slot.stats);
            if slot.by_job.get(&job_id) == Some(&seq) {
                slot.by_job.remove(&job_id);
            }
            let _ = slot.tx.send(response);
        }
    }
}

impl SessionCore for Hub {
    fn register(&self, tx: mpsc::Sender<Response>) -> u64 {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        let id = state.next_client;
        state.next_client += 1;
        state.clients.insert(
            id,
            ClientSlot {
                weight: 1,
                queued: 0,
                stats: ClientStats::default(),
                by_job: HashMap::new(),
                tx,
            },
        );
        id
    }

    /// Handles one parsed request on behalf of `client`. Immediate
    /// responses (admission results, rejections, stats) are delivered on
    /// the client's channel, in order with the job outcomes.
    fn handle(&self, client: u64, request: Request) {
        match request {
            Request::Hello { weight } => {
                let mut state = self.state.lock().expect("hub lock is never poisoned");
                if let Some(slot) = state.clients.get_mut(&client) {
                    slot.weight = weight.max(1);
                }
            }
            Request::Submit {
                spec,
                priority,
                deadline_ms,
            } => {
                self.submit_job(client, SolverJob::Fresh(spec), priority, deadline_ms, true);
            }
            Request::Cancel { job } => self.cancel(client, job),
            Request::Stats => {
                let state = self.state.lock().expect("hub lock is never poisoned");
                if let Some(slot) = state.clients.get(&client) {
                    let response = Response::Stats {
                        client: slot.stats,
                        fleet: state.fleet,
                        queue_depth: self.queue.len() as u64,
                        eta_ms: self.eta_ms(&state),
                    };
                    let _ = slot.tx.send(response);
                }
            }
        }
    }

    /// Rejects an unparsable line on the client's channel.
    fn reject(&self, client: u64, error: &FrameError) {
        let state = self.state.lock().expect("hub lock is never poisoned");
        if let Some(slot) = state.clients.get(&client) {
            let _ = slot.tx.send(Response::rejected(error));
        }
    }

    /// Removes a departed client: queued jobs are dropped (counted
    /// cancelled fleet-wide), running ones are cooperatively cancelled.
    fn disconnect(&self, client: u64) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        if state.clients.remove(&client).is_none() {
            return;
        }
        let dropped = self.queue.remove_client(client);
        state.fleet.cancelled += dropped.len() as u64;
        for running in state.running.values() {
            if running.client == client {
                running.ctrl.request_cancel();
            }
        }
    }

    fn frame_limits(&self) -> (usize, Duration) {
        (self.config.max_frame_bytes, self.config.read_timeout)
    }
}

/// One worker's service loop over the scheduler queue.
fn worker_loop(hub: Arc<Hub>) {
    parallel::mark_pool_worker();
    let clock = {
        let hub = Arc::clone(&hub);
        move || hub.now_ms()
    };
    loop {
        if let Some(f) = &hub.config.faults {
            f.wait_if_held();
        }
        let Some(scheduled) = hub.queue.pop(&clock) else {
            return;
        };
        let seq = scheduled.seq;
        let client = scheduled.ticket.client;
        let job = scheduled.item;
        let job_id = job.spec().job;
        let digest = job.spec().instance_digest;
        if let Some(f) = &hub.config.faults {
            f.log_dequeue(client, job_id);
        }
        // queue-side bookkeeping is settled at pop, whatever happens next
        {
            let mut state = hub.state.lock().expect("hub lock is never poisoned");
            if let Some(slot) = state.clients.get_mut(&client) {
                slot.queued = slot.queued.saturating_sub(1);
            } else {
                // the client vanished between disconnect's sweep and this
                // pop: its job is cancelled work, not lost work
                state.fleet.cancelled += 1;
                continue;
            }
            if scheduled.expired {
                // deadline passed while queued: shed without an engine —
                // the typed terminal response costs no worker time
                state.running.remove(&seq);
                state.fleet.expired += 1;
                let slot = state.clients.get_mut(&client).expect("present above");
                slot.stats.expired += 1;
                slot.by_job.remove(&job_id);
                let outcome = JobOutcome::expired(job.spec());
                Hub::send_to(&state, client, Response::Outcome { outcome });
                continue;
            }
            let mut ctrl = RunController::unlimited();
            if let Some(deadline) = scheduled.ticket.deadline {
                let remaining = deadline.saturating_sub(hub.now_ms());
                ctrl = ctrl.with_deadline_in(Duration::from_millis(remaining));
            }
            if state.draining {
                // shutdown raced this pop: make the job checkpoint at its
                // first poll instead of running to completion
                ctrl.request_checkpoint();
            }
            state.running.insert(
                seq,
                Running {
                    ctrl: ctrl.clone(),
                    client,
                },
            );
            drop(state);
            let faults = hub.config.faults.clone();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = &faults {
                    f.panic_if_scripted(job_id);
                }
                job.execute(&ctrl)
            }));
            match result {
                Err(payload) => {
                    let message = service::panic_message(payload.as_ref());
                    hub.settle(
                        seq,
                        client,
                        job_id,
                        |stats| stats.failed += 1,
                        Response::Failure {
                            job: job_id,
                            instance_digest: digest,
                            message,
                        },
                    );
                }
                Ok(run) => match run.outcome.outcome_kind {
                    OutcomeKind::Checkpointed => {
                        let mut state = hub.state.lock().expect("hub lock is never poisoned");
                        state.running.remove(&seq);
                        let checkpoint = run
                            .checkpoint
                            .expect("checkpointed outcomes carry their checkpoint");
                        state.drained.push((seq, checkpoint));
                    }
                    kind => {
                        let bucket: fn(&mut ClientStats) = match kind {
                            OutcomeKind::Completed => |s| s.completed += 1,
                            OutcomeKind::Cancelled => |s| s.cancelled += 1,
                            OutcomeKind::DeadlineExceeded => |s| s.expired += 1,
                            OutcomeKind::Checkpointed => unreachable!("handled above"),
                        };
                        hub.settle(
                            seq,
                            client,
                            job_id,
                            bucket,
                            Response::Outcome {
                                outcome: run.outcome,
                            },
                        );
                    }
                },
            }
        }
    }
}

/// What [`Frontend::shutdown_to`] persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// In-flight jobs checkpointed mid-run.
    pub checkpointed: usize,
    /// Queued jobs persisted as spec/checkpoint files untouched.
    pub pending: usize,
}

/// The multi-client scheduling front-end; see the [module docs](self).
pub struct Frontend {
    hub: Arc<Hub>,
    workers: Vec<std::thread::JoinHandle<()>>,
    listeners: Arc<Listeners>,
}

impl Frontend {
    /// Starts the worker fleet.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (zero admission budget or frame
    /// limit).
    pub fn start(config: FrontendConfig) -> Self {
        config.validate();
        let worker_count = parallel::resolve_pool_workers(config.workers);
        let hub = Arc::new(Hub {
            config,
            queue: ScheduledQueue::new(),
            state: Mutex::new(HubState {
                clients: HashMap::new(),
                running: HashMap::new(),
                drained: Vec::new(),
                fleet: ClientStats::default(),
                next_client: 1,
                draining: false,
                timed_settles: 0,
                timed_settle_ms: 0,
            }),
            epoch: Instant::now(),
            worker_count,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || worker_loop(hub))
            })
            .collect();
        Frontend {
            hub,
            workers,
            listeners: Arc::default(),
        }
    }

    /// Starts a fleet and resubmits every job a previous
    /// [`Frontend::shutdown_to`] persisted under `dir`, in the original
    /// order, owned by the returned recovery handle: `.ckpt` files continue
    /// from their captured state, `.spec.json` files run from scratch.
    /// Completed resumed jobs are bit-identical to
    /// never-interrupted runs at any worker count. Recovered jobs bypass
    /// admission control — they were already admitted once.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from reading the drain directory; nothing has
    /// run when an error is returned.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, as [`Frontend::start`].
    pub fn resume(
        config: FrontendConfig,
        dir: &Path,
    ) -> Result<(Self, ClientHandle), CheckpointError> {
        let jobs = service::load_drain_dir(dir)?;
        let frontend = Frontend::start(config);
        let recovery = frontend.connect();
        for job in jobs {
            let response = frontend
                .hub
                .submit_job(recovery.client_id(), job, 0, None, false);
            debug_assert!(
                matches!(response, Response::Accepted { .. }),
                "resume submission bypasses admission"
            );
        }
        Ok((frontend, recovery))
    }

    /// Registers an in-process client session (weight 1 until a
    /// [`Request::Hello`] changes it), the same session each TCP connection
    /// runs. Dropping the handle disconnects it, cancelling the client's
    /// remaining work.
    pub fn connect(&self) -> ClientHandle {
        ClientHandle::open(self.hub.clone())
    }

    /// Fleet-wide counters.
    pub fn fleet_stats(&self) -> ClientStats {
        self.hub
            .state
            .lock()
            .expect("hub lock is never poisoned")
            .fleet
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful drain — the SIGTERM path: stops serving and admitting,
    /// pulls queued jobs into spec/checkpoint files, asks running jobs to
    /// checkpoint, joins the workers, and persists everything under `dir`
    /// in the drain layout (`job-NNNNNN.spec.json` / `job-NNNNNN.ckpt`, ordered by
    /// scheduler sequence; see the [`service`] docs). [`Frontend::resume`]
    /// continues the work bit-identically.
    ///
    /// Clients with jobs still in flight receive no further frames — their
    /// jobs survive in the drain directory; redelivery happens through the
    /// resumed server's recovery handle.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory or a file cannot be
    /// written; files persisted before the failure remain on disk.
    pub fn shutdown_to(mut self, dir: &Path) -> Result<DrainReport, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        self.listeners.stop();
        {
            let mut state = self.hub.state.lock().expect("hub lock is never poisoned");
            state.draining = true;
            for running in state.running.values() {
                running.ctrl.request_checkpoint();
            }
        }
        // Seal the queue before waking any frozen workers: a woken worker
        // must find the queue closed, not race this capture and run a
        // queued job to completion into a connection nobody reads anymore.
        let pending = self.hub.queue.take_pending();
        if let Some(f) = &self.hub.config.faults {
            // frozen workers can't drain; a scripted hold must not deadlock
            // the shutdown path
            f.release_workers();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for (seq, _, job) in &pending {
            match job {
                SolverJob::Fresh(spec) => write_atomic(
                    &dir.join(format!("job-{seq:06}.spec.json")),
                    &spec.to_json(),
                )?,
                SolverJob::Resume(checkpoint) => {
                    checkpoint.save(&dir.join(format!("job-{seq:06}.ckpt")))?;
                }
            }
        }
        let state = self.hub.state.lock().expect("hub lock is never poisoned");
        for (seq, checkpoint) in &state.drained {
            checkpoint.save(&dir.join(format!("job-{seq:06}.ckpt")))?;
        }
        Ok(DrainReport {
            checkpointed: state.drained.len(),
            pending: pending.len(),
        })
    }

    /// Serves NDJSON connections from `listener` on a background thread
    /// that blocks in `accept` until [`Frontend::shutdown_to`] or the
    /// frontend's drop. Each connection is a [`Frontend::connect`] session
    /// plus a thread writing its responses to the socket.
    pub fn serve(&self, listener: TcpListener) -> std::thread::JoinHandle<()> {
        self.listeners.serve(self.hub.clone(), listener)
    }
}

impl Drop for Frontend {
    /// Stops serving, discards queued jobs, lets running ones finish, joins
    /// the workers.
    fn drop(&mut self) {
        self.listeners.stop();
        if let Some(f) = &self.hub.config.faults {
            f.release_workers();
        }
        self.hub.queue.take_pending();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------- the client

/// Blocking NDJSON client for `saim-server`: connect → submit (with
/// deterministic backoff on overload) → stream responses.
pub struct NdjsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The bytes of a frame whose read timed out part-way, kept for the
    /// next [`NdjsonClient::recv`].
    partial: Vec<u8>,
}

impl NdjsonClient {
    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(NdjsonClient {
            reader: BufReader::new(stream),
            writer,
            partial: Vec::new(),
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Any socket-level write failure.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.writer.write_all(request.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Bounds how long [`NdjsonClient::recv`] blocks; a timeout surfaces
    /// as a `WouldBlock`/`TimedOut` error, and a frame cut by the timeout
    /// is completed by the next call.
    ///
    /// # Errors
    ///
    /// Any socket-level option failure.
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Sends a raw line verbatim — the fault-injection tests' way of
    /// delivering malformed, truncated, or interleaved bytes.
    ///
    /// # Errors
    ///
    /// Any socket-level write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::UnexpectedEof`] when the server hung up, other
    /// kinds for transport failures, and `InvalidData` when the server sent
    /// a line this client's schema cannot parse or a line longer than
    /// [`MAX_FRAME_BYTES`].
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let invalid = std::io::ErrorKind::InvalidData;
        // on a timeout `read_until` leaves the bytes it consumed in
        // `partial`, so a frame split across calls is never lost; the
        // `take` lets the line grow to a full frame plus its newline
        let room = (MAX_FRAME_BYTES + 1).saturating_sub(self.partial.len());
        (&mut self.reader)
            .take(room as u64)
            .read_until(b'\n', &mut self.partial)?;
        if self.partial.last() != Some(&b'\n') {
            let oversized = self.partial.len() > MAX_FRAME_BYTES;
            self.partial.clear();
            return Err(if oversized {
                std::io::Error::new(
                    invalid,
                    FrameError::Oversized {
                        limit: MAX_FRAME_BYTES,
                    },
                )
            } else {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )
            });
        }
        let line = String::from_utf8(std::mem::take(&mut self.partial))
            .map_err(|e| std::io::Error::new(invalid, e))?;
        Response::from_line(line.trim_end()).map_err(|e| std::io::Error::new(invalid, e))
    }

    /// Submits with retry: on [`Response::Overloaded`] sleeps the larger of
    /// the server's hint and the [`Backoff`]'s next deterministic delay,
    /// then resubmits, up to `max_attempts` (clamped to at least 1).
    /// Returns the first non-overload response (for an admitted job:
    /// [`Response::Accepted`]).
    ///
    /// The server serializes every response to this client on one ordered
    /// stream, so the admission response to this submit is the next frame
    /// after any frames already owed — call this only when caught up on
    /// owed frames (earlier jobs' outcomes), or they will be consumed here.
    ///
    /// # Errors
    ///
    /// [`RetryError::Io`] on socket errors, and
    /// [`RetryError::RetriesExhausted`] when every attempt in the budget
    /// was shed — the retry loop is capped, never unbounded.
    pub fn submit_retrying(
        &mut self,
        spec: &JobSpec,
        priority: u8,
        deadline_ms: Option<u64>,
        backoff: &mut Backoff,
        max_attempts: u32,
    ) -> Result<Response, RetryError> {
        let request = Request::Submit {
            spec: spec.clone(),
            priority,
            deadline_ms,
        };
        let attempts = max_attempts.max(1);
        let mut last_hint = 0;
        for attempt in 0..attempts {
            self.send(&request)?;
            match self.recv()? {
                Response::Overloaded { retry_after_ms } => {
                    last_hint = retry_after_ms;
                    if attempt + 1 < attempts {
                        let wait = backoff
                            .next_delay()
                            .max(Duration::from_millis(retry_after_ms));
                        std::thread::sleep(wait);
                    }
                }
                other => return Ok(other),
            }
        }
        Err(RetryError::RetriesExhausted {
            attempts,
            last_retry_after_ms: last_hint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::OutcomeKind;
    use crate::service::SolverSpec;
    use crate::EnsembleConfig;
    use saim_ising::QuboBuilder;

    fn toy_spec(job: u64, seed: u64) -> JobSpec {
        let mut b = QuboBuilder::new(4);
        for i in 0..4 {
            b.add_linear(i, -1.0).expect("index in range");
        }
        b.add_pair(0, 1, 0.5).expect("indices in range");
        JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 50 }, seed)
            .with_instance_digest(job ^ 0xD1)
    }

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

    /// A job that cannot finish before a cancel lands: the lane-major batch
    /// sweeps small models in microseconds, so the running-cancel test needs
    /// hours of scripted work to hold its race window open.
    fn endless_spec(job: u64, seed: u64) -> JobSpec {
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
                mcs_per_run: 2_000_000_000,
                ..EnsembleConfig::default()
            }),
            seed,
        )
    }

    fn test_config(workers: usize, faults: Option<Arc<faults::FaultPlan>>) -> FrontendConfig {
        FrontendConfig {
            workers,
            faults,
            ..FrontendConfig::default()
        }
    }

    fn expect_outcome(handle: &ClientHandle) -> JobOutcome {
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Outcome { outcome }) => outcome,
            other => panic!("expected an outcome frame, got {other:?}"),
        }
    }

    fn expect_accepted(handle: &ClientHandle, job: u64) {
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Accepted { job: got }) => assert_eq!(got, job),
            other => panic!("expected accepted for job {job}, got {other:?}"),
        }
    }

    #[test]
    fn request_frames_roundtrip() {
        let frames = vec![
            Request::Hello { weight: 4 },
            Request::Submit {
                spec: toy_spec(3, 9),
                priority: 2,
                deadline_ms: Some(1500),
            },
            Request::Submit {
                spec: toy_spec(4, 9),
                priority: 0,
                deadline_ms: None,
            },
            Request::Cancel { job: 7 },
            Request::Stats,
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(Request::from_line(&line).expect("round-trips"), frame);
            // byte-stable re-serialization, like the spec/outcome schema
            assert_eq!(
                Request::from_line(&line).expect("round-trips").to_line(),
                line
            );
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let frames = vec![
            Response::Accepted { job: 1 },
            Response::Outcome {
                outcome: toy_spec(1, 1).run().canonical(),
            },
            Response::Failure {
                job: 2,
                instance_digest: 99,
                message: "boom".into(),
            },
            Response::Rejected {
                code: "json".into(),
                error: "invalid JSON: oops".into(),
            },
            Response::Overloaded { retry_after_ms: 25 },
            Response::Stats {
                client: ClientStats {
                    accepted: 3,
                    completed: 2,
                    ..ClientStats::default()
                },
                fleet: ClientStats {
                    accepted: 9,
                    rejected: 1,
                    ..ClientStats::default()
                },
                queue_depth: 4,
                eta_ms: 1200,
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(Response::from_line(&line).expect("round-trips"), frame);
        }
    }

    #[test]
    fn bad_lines_earn_typed_rejections() {
        assert!(matches!(
            Request::from_line("{not json"),
            Err(FrameError::Schema(SchemaError::Json(_)))
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":99,"frame":"stats"}"#),
            Err(FrameError::Schema(SchemaError::VersionMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            }))
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":3,"frame":"teleport"}"#),
            Err(FrameError::UnknownFrame(tag)) if tag == "teleport"
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":3,"frame":"stats","extra":1}"#),
            Err(FrameError::Schema(SchemaError::UnknownField(f))) if f == "extra"
        ));
        // the v3 stats fields are version-gated: a v2 stats frame (which
        // could not carry them) reads as a version problem, and a v3 frame
        // missing them is malformed, not silently defaulted
        assert!(matches!(
            Response::from_line(
                r#"{"schema":2,"frame":"stats","client":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0},"fleet":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0}}"#
            ),
            Err(FrameError::Schema(SchemaError::VersionMismatch {
                found: 2,
                expected: SCHEMA_VERSION
            }))
        ));
        assert!(matches!(
            Response::from_line(
                r#"{"schema":3,"frame":"stats","client":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0},"fleet":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0}}"#
            ),
            Err(FrameError::Schema(SchemaError::Malformed(_)))
        ));
        // strictness reaches inside the embedded spec
        let mut submit = Request::Submit {
            spec: toy_spec(1, 1),
            priority: 0,
            deadline_ms: None,
        }
        .to_line();
        submit = submit.replace("\"seed\":", "\"sede\":");
        assert!(matches!(
            Request::from_line(&submit),
            Err(FrameError::Schema(_))
        ));
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let mut a = Backoff::new(42, 10, 80);
        let mut b = Backoff::new(42, 10, 80);
        let delays: Vec<u64> = (0..8).map(|_| a.next_delay().as_millis() as u64).collect();
        let replay: Vec<u64> = (0..8).map(|_| b.next_delay().as_millis() as u64).collect();
        assert_eq!(delays, replay, "same seed, same schedule");
        for (attempt, &d) in delays.iter().enumerate() {
            let ceiling = (10u64 << attempt.min(32)).min(80);
            assert!(d >= ceiling / 2 && d <= ceiling, "attempt {attempt}: {d}");
        }
        let mut c = Backoff::new(43, 10, 80);
        let other: Vec<u64> = (0..8).map(|_| c.next_delay().as_millis() as u64).collect();
        assert_ne!(delays, other, "different seeds decorrelate");
    }

    #[test]
    fn backoff_jitter_sequence_matches_pinned_vector() {
        // the exact SplitMix64-derived schedule for seed 42, base 10 ms,
        // cap 80 ms — pinned so any change to the generator or the
        // jitter-window arithmetic is a deliberate, visible decision
        let mut backoff = Backoff::new(42, 10, 80);
        let delays: Vec<u64> = (0..8)
            .map(|_| backoff.next_delay().as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![6, 15, 20, 40, 51, 41, 68, 45]);
        // reset keeps the stream position but restarts the exponential
        backoff.reset();
        let restarted = backoff.next_delay().as_millis() as u64;
        assert!((5..=10).contains(&restarted), "attempt-0 window again");
    }

    #[test]
    fn submit_completes_and_matches_direct_run() {
        let frontend = Frontend::start(test_config(2, None));
        let handle = frontend.connect();
        let spec = toy_spec(11, 5);
        handle.submit(spec.clone(), 0, None);
        expect_accepted(&handle, 11);
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.canonical(), spec.run().canonical());
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats {
                client,
                fleet,
                queue_depth,
                ..
            }) => {
                assert_eq!(client.accepted, 1);
                assert_eq!(client.completed, 1);
                assert_eq!(client.in_flight(), 0);
                assert_eq!(fleet.accepted, fleet.settled());
                assert_eq!(queue_depth, 0, "nothing queued after settlement");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_report_queue_depth_and_eta_estimate() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        for job in 0..3u64 {
            handle.submit(toy_spec(job, job), 0, None);
            expect_accepted(&handle, job);
        }
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats {
                queue_depth,
                eta_ms,
                ..
            }) => {
                assert_eq!(queue_depth, 3, "held workers leave the backlog queued");
                assert_eq!(eta_ms, 0, "no settled job yet, so no mean to project");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        plan.release_workers();
        for _ in 0..3 {
            expect_outcome(&handle);
        }
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats { queue_depth, .. }) => assert_eq!(queue_depth, 0),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn admission_control_sheds_with_retry_hint() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let mut config = test_config(1, Some(Arc::clone(&plan)));
        config.max_queued_per_client = 1;
        let frontend = Frontend::start(config);
        let handle = frontend.connect();
        handle.submit(toy_spec(1, 1), 0, None);
        expect_accepted(&handle, 1);
        handle.submit(toy_spec(2, 2), 0, None);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, RETRY_AFTER_MS)
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        plan.release_workers();
        assert_eq!(expect_outcome(&handle).job, 1);
        // capacity freed: the shed job is admitted on retry
        handle.submit(toy_spec(2, 2), 0, None);
        expect_accepted(&handle, 2);
        assert_eq!(expect_outcome(&handle).job, 2);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.accepted, 2);
        assert_eq!(fleet.rejected, 1);
        assert_eq!(fleet.completed, 2);
    }

    #[test]
    fn cancel_settles_queued_and_running_jobs_as_cancelled() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        // queued cancel: settled synchronously, zero work
        handle.submit(toy_spec(1, 1), 0, None);
        expect_accepted(&handle, 1);
        handle.send(Request::Cancel { job: 1 });
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.outcome_kind, OutcomeKind::Cancelled);
        assert_eq!(outcome.mcs, 0, "never ran");
        // unknown cancel: typed rejection
        handle.send(Request::Cancel { job: 99 });
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Rejected { code, .. }) => assert_eq!(code, "unknown_job"),
            other => panic!("expected rejected, got {other:?}"),
        }
        // running cancel: a long job is stopped cooperatively
        handle.submit(endless_spec(2, 7), 0, None);
        expect_accepted(&handle, 2);
        plan.release_workers();
        // wait for the worker to actually pick it up, then cancel mid-run
        while !plan.dequeue_log().iter().any(|&(_, job)| job == 2) {
            std::thread::yield_now();
        }
        handle.send(Request::Cancel { job: 2 });
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.job, 2);
        assert_eq!(outcome.outcome_kind, OutcomeKind::Cancelled);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.cancelled, 2);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn queued_deadline_expiry_is_shed_without_a_worker() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        handle.submit(toy_spec(5, 1), 0, Some(10_000));
        expect_accepted(&handle, 5);
        // the clock-skew fault drives the queued deadline into the past
        plan.set_skew_ms(60_000);
        plan.release_workers();
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.job, 5);
        assert_eq!(outcome.outcome_kind, OutcomeKind::DeadlineExceeded);
        assert_eq!(outcome.mcs, 0, "no engine was spun up");
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.expired, 1);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn fairness_interleaves_clients_and_weights_shape_shares() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let flood = frontend.connect();
        let light = frontend.connect();
        // a 10:1 flood against a light client, equal weights
        for i in 0..10 {
            flood.submit(toy_spec(100 + i, i), 0, None);
            expect_accepted(&flood, 100 + i);
        }
        light.submit(toy_spec(200, 1), 0, None);
        expect_accepted(&light, 200);
        light.submit(toy_spec(201, 2), 0, None);
        expect_accepted(&light, 201);
        plan.release_workers();
        for _ in 0..10 {
            expect_outcome(&flood);
        }
        expect_outcome(&light);
        expect_outcome(&light);
        let log = plan.dequeue_log();
        let light_id = light.client_id();
        let light_positions: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == light_id)
            .map(|(i, _)| i)
            .collect();
        // weighted-fair: the light client's two jobs are served inside the
        // first four dequeues, not behind the flood
        assert!(
            light_positions.iter().all(|&p| p < 4),
            "light client starved: dequeue order {log:?}"
        );
    }

    #[test]
    fn priorities_preempt_and_edf_orders_within_a_client() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        // shuffled deadlines in one priority class, plus one urgent job
        for (job, deadline) in [(1u64, 90_000u64), (2, 30_000), (3, 60_000)] {
            handle.submit(toy_spec(job, job), 0, Some(deadline));
            expect_accepted(&handle, job);
        }
        handle.submit(toy_spec(9, 9), 3, None);
        expect_accepted(&handle, 9);
        plan.release_workers();
        let completions: Vec<u64> = (0..4).map(|_| expect_outcome(&handle).job).collect();
        // the priority-3 job first, then EDF order over the class-0 batch
        assert_eq!(completions, vec![9, 2, 3, 1]);
    }

    #[test]
    fn scripted_worker_panic_is_a_typed_failure_and_the_fleet_survives() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.panic_on_job(7);
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        let spec = toy_spec(7, 1).with_instance_digest(0xABC);
        handle.submit(spec, 0, None);
        expect_accepted(&handle, 7);
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Failure {
                job,
                instance_digest,
                message,
            }) => {
                assert_eq!(job, 7);
                assert_eq!(instance_digest, 0xABC);
                assert!(message.contains("injected worker panic"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // the fleet is still alive and serving
        let next = toy_spec(8, 2);
        handle.submit(next.clone(), 0, None);
        expect_accepted(&handle, 8);
        assert_eq!(expect_outcome(&handle).canonical(), next.run().canonical());
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.failed, 1);
        assert_eq!(fleet.completed, 1);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn disconnect_cancels_the_clients_remaining_work() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let doomed = frontend.connect();
        let survivor = frontend.connect();
        for job in 0..3u64 {
            doomed.submit(toy_spec(job, job), 0, None);
            expect_accepted(&doomed, job);
        }
        survivor.submit(toy_spec(10, 1), 0, None);
        expect_accepted(&survivor, 10);
        drop(doomed); // disconnect: queued jobs must not occupy workers
        plan.release_workers();
        assert_eq!(expect_outcome(&survivor).job, 10);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.cancelled, 3);
        assert_eq!(fleet.completed, 1);
        assert_eq!(fleet.accepted, fleet.settled());
        // at most the survivor's job ever reached a worker
        assert!(plan.dequeue_log().len() <= 1 + 1);
    }

    #[test]
    fn drain_and_resume_replay_bit_identically() {
        let scratch = tempdir();
        let specs: Vec<JobSpec> = (0..4u64).map(|j| slow_spec(j, j)).collect();
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        for spec in &specs {
            handle.submit(spec.clone(), 0, None);
            expect_accepted(&handle, spec.job);
        }
        plan.release_workers();
        // let the worker get into the first job, then drain mid-stream
        while plan.dequeue_log().is_empty() {
            std::thread::yield_now();
        }
        let report = frontend.shutdown_to(scratch.as_path()).expect("drain");
        let mut outcomes: HashMap<u64, JobOutcome> = HashMap::new();
        while let Some(response) = handle.try_recv() {
            if let Response::Outcome { outcome } = response {
                outcomes.insert(outcome.job, outcome);
            }
        }
        assert_eq!(
            outcomes.len() + report.checkpointed + report.pending,
            specs.len(),
            "every accepted job is finished, checkpointed, or persisted"
        );
        // a restarted server continues the drained jobs...
        let (resumed, recovery) =
            Frontend::resume(test_config(2, None), scratch.as_path()).expect("resume");
        while outcomes.len() < specs.len() {
            match recovery.recv_timeout(Duration::from_secs(30)) {
                Some(Response::Outcome { outcome }) => {
                    outcomes.insert(outcome.job, outcome);
                }
                Some(Response::Accepted { .. }) => {}
                Some(other) => panic!("unexpected frame during recovery: {other:?}"),
                None => panic!("recovery stream dried up early"),
            }
        }
        // ...bit-identically to runs that were never interrupted
        for spec in &specs {
            let outcome = outcomes.get(&spec.job).expect("job recovered");
            assert_eq!(outcome.outcome_kind, OutcomeKind::Completed);
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        drop(recovery);
        drop(resumed);
        std::fs::remove_dir_all(scratch.as_path()).ok();
    }

    /// A checkpoint of `spec` stopped after three sweeps.
    fn cut_checkpoint(spec: &JobSpec) -> crate::checkpoint::Checkpoint {
        let cut = spec.run_controlled(
            &RunController::unlimited()
                .with_stop_after(3)
                .with_poll_interval(1),
        );
        *cut.checkpoint.expect("the run checkpointed")
    }

    #[test]
    fn resume_runs_persisted_spec_files_from_scratch() {
        let scratch = tempdir();
        let spec = slow_spec(7, 21);
        std::fs::write(
            scratch.as_path().join("job-000000.spec.json"),
            spec.to_json(),
        )
        .expect("spec file is writable");
        let (_resumed, recovery) =
            Frontend::resume(test_config(1, None), scratch.as_path()).expect("spec files parse");
        expect_accepted(&recovery, 7);
        let outcome = expect_outcome(&recovery);
        assert_eq!(outcome.outcome_kind, OutcomeKind::Completed);
        assert_eq!(outcome.canonical(), spec.run().canonical());
    }

    #[test]
    fn resume_rejects_a_corrupt_checkpoint_before_anything_runs() {
        let scratch = tempdir();
        let path = scratch.as_path().join("job-000000.ckpt");
        cut_checkpoint(&slow_spec(3, 9))
            .save(&path)
            .expect("checkpoint saves");
        let mut bytes = std::fs::read(&path).expect("checkpoint reads");
        bytes[10] ^= 0x01; // single bit flip in the payload
        std::fs::write(&path, bytes).expect("corruption lands");
        let result = Frontend::resume(test_config(1, None), scratch.as_path());
        assert!(matches!(result, Err(CheckpointError::ChecksumMismatch)));
    }

    #[test]
    fn a_checkpoint_that_does_not_fit_its_spec_is_a_typed_failure() {
        // graft an ensemble state onto a descent spec: the worker panics,
        // which must surface as that job's failure frame, not a teardown
        let scratch = tempdir();
        let ensemble = cut_checkpoint(&slow_spec(0, 5));
        let descent_spec = JobSpec::new(
            0,
            ensemble.spec.model.clone(),
            SolverSpec::Descent { max_sweeps: 10 },
            5,
        );
        crate::checkpoint::Checkpoint::new(descent_spec, ensemble.engine)
            .save(&scratch.as_path().join("job-000000.ckpt"))
            .expect("checkpoint saves");
        let (resumed, recovery) =
            Frontend::resume(test_config(1, None), scratch.as_path()).expect("the file is intact");
        expect_accepted(&recovery, 0);
        match recovery.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Failure { job, message, .. }) => {
                assert_eq!(job, 0);
                assert!(
                    message.contains("does not match the spec's solver"),
                    "message: {message}"
                );
            }
            other => panic!("expected a failure frame, got {other:?}"),
        }
        // the fleet survives and keeps serving
        let next = toy_spec(1, 2);
        recovery.submit(next.clone(), 0, None);
        expect_accepted(&recovery, 1);
        assert_eq!(
            expect_outcome(&recovery).canonical(),
            next.run().canonical()
        );
        assert_eq!(resumed.fleet_stats().failed, 1);
    }

    #[test]
    fn a_fleet_started_inside_a_pool_worker_gets_one_worker() {
        // an auto-sized fleet started from inside another pool's worker
        // must not spawn an all-cores pool per worker (cores² threads);
        // explicit counts are still honored
        let workers = parallel::parallel_map_indexed(2, 2, |i| {
            Frontend::start(test_config(if i == 0 { 0 } else { 3 }, None)).workers()
        });
        assert_eq!(workers, vec![1, 3]);
    }

    /// A unique scratch directory under the target tmpdir.
    fn tempdir() -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("saim-frontend-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&path).expect("scratch dir");
        TempDir { path }
    }

    struct TempDir {
        path: std::path::PathBuf,
    }

    impl TempDir {
        fn as_path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.path).ok();
        }
    }
}
