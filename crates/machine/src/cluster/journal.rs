//! The router's write-ahead intent journal: the durable record that makes
//! job settlement exactly-once across backend failures and router
//! restarts.
//!
//! # Format
//!
//! One record per line, append-only. Every line is
//!
//! ```text
//! <compact JSON>\t<16-hex FNV-1a-64 digest of the JSON bytes>
//! ```
//!
//! so torn writes and bit flips are detectable per line (the same FNV-1a
//! digest [`Checkpoint`](crate::checkpoint::Checkpoint) files use). The
//! first line is a version envelope
//! (`{"journal":"saim-cluster","version":1}`); foreign-version journals
//! are refused with a typed [`JournalError::VersionMismatch`] rather than
//! guessed at. A compacted journal's envelope also carries the gid fence,
//! `"next_gid":N` (see [Compaction](#compaction)); a fresh journal's never
//! does. After it, five record kinds trace each job's lifecycle:
//!
//! - `routed` — the router accepted the job and owes the client exactly
//!   one terminal frame; carries the full spec so the job can be re-routed
//!   even by a restarted router that never saw the original submit.
//! - `accepted` — a backend admitted the forwarded job.
//! - `hedged` — a speculative extra replica of the job was dispatched to a
//!   second backend (k > 1 replication); purely informational for
//!   recovery, since the `routed` record alone drives re-routing.
//! - `superseded` — a replica lost the first-outcome settlement race and
//!   was sent a best-effort cancel; informational, like `hedged`.
//! - `settled` — the terminal frame was delivered; the job must never be
//!   routed, re-routed, or delivered again.
//!
//! A k=1 router never writes `hedged` or `superseded`, so until its first
//! compaction its journal is byte-identical to the pre-replication format
//! — pinned by a committed fixture in `tests/cluster.rs`.
//!
//! # Recovery
//!
//! [`Journal::open`] on an existing file replays it under a conservative
//! contract: **a journaled-but-unsettled job is re-routed; a settled job
//! is never re-routed** (so it can never settle twice). A
//! journaled-but-unsettled job re-routes exactly once no matter how many
//! `hedged` replicas it had in flight — replication is re-established by
//! the live hedging policy, never by replay. Corruption stops
//! the replay at the first bad line — records before it stand, records
//! after it are treated as never written, which errs exactly the safe way:
//! a lost `settled` record re-routes a finished job (the settlement dedup
//! upstream drops the duplicate outcome), while a fabricated `settled`
//! record is impossible because the checksum would have to collide. Every
//! irregularity is reported as a typed [`JournalAnomaly`]. After replay
//! the journal is compacted, so a corrupt tail can never be appended to.
//!
//! # Compaction
//!
//! Settled history is dead weight: only the live jobs' `routed` records
//! matter to a recovery. One function rewrites the file to the envelope
//! plus those records, in gid order, through the same atomic tmp+rename
//! as checkpoints (`checkpoint::write_atomic`), and reopens the append
//! handle. [`Journal::open`] calls it after every replay, and a running
//! router calls it through [`Journal::compact`] whenever
//! [`Journal::wants_compaction`] says the file has grown past both
//! [`COMPACT_FLOOR_BYTES`] and [`COMPACT_MULTIPLE`] times what the last
//! compaction wrote. The router builds the rewrite from its in-memory live
//! set and never re-reads the file, so a compaction costs time
//! proportional to the live bytes, each one is paid for by appends at
//! least `COMPACT_MULTIPLE - 1` times its size, and the file stays within
//! the floor or `COMPACT_MULTIPLE` times the live bytes of the last
//! compaction (plus one append), however many jobs the router serves.
//!
//! A crash before the rename leaves the old journal in place beside a
//! stale `<journal>.tmp`, which the next open ignores and overwrites; a
//! crash after it leaves the complete new journal. If the rename succeeds
//! but the reopen fails, the next append reopens the path.
//!
//! **The gid fence.** Dropping `settled` records also drops the highest
//! gids the router ever issued, and a gid handed out twice could alias
//! two jobs in settlement dedup. So every compacted envelope records
//! `next_gid`, the first gid not yet issued, and replay resumes from the
//! larger of it and the highest surviving gid plus one.
//!
//! The journal forgets settled gids outright; how long the router itself
//! remembers them (to cross-check late duplicate outcomes) is the
//! tombstone horizon, [`TOMBSTONE_HORIZON`](crate::cluster::TOMBSTONE_HORIZON).

use crate::checkpoint::{digest64, write_atomic};
use crate::service::{check_known_fields, parse_field, parse_json, JobSpec};
use serde::{Serialize, Value};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version tag of the journal envelope; bump on any record-shape change.
pub const JOURNAL_VERSION: u32 = 1;

/// The envelope's `journal` tag — a foreign tag means the file is not a
/// cluster journal at all.
const JOURNAL_TAG: &str = "saim-cluster";

/// Online compaction waits until the file exceeds this floor, so a small
/// or quiet router rewrites its journal rarely.
pub const COMPACT_FLOOR_BYTES: u64 = 1 << 20;

/// Online compaction also waits until the file exceeds this multiple of
/// what the last compaction wrote (the live jobs of that moment), so each
/// rewrite, which costs time proportional to the live bytes, is paid for
/// by appends of at least `COMPACT_MULTIPLE - 1` times as many bytes.
pub const COMPACT_MULTIPLE: u64 = 4;

/// One journal record; see the [module docs](self) for the lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The router took ownership of a job: it owes the client exactly one
    /// terminal frame, delivered from whichever backend settles it.
    Routed {
        /// Router-global job id (the id backends see).
        gid: u64,
        /// The client's original job id, restored at delivery.
        client_job: u64,
        /// The full spec, kept so re-routing survives a router restart.
        spec: JobSpec,
    },
    /// A backend admitted the forwarded job.
    Accepted {
        /// Router-global job id.
        gid: u64,
        /// Backend index that admitted it.
        backend: usize,
    },
    /// A speculative extra replica was dispatched (k > 1 hedging).
    Hedged {
        /// Router-global job id.
        gid: u64,
        /// Backend index the replica was dispatched to.
        backend: usize,
    },
    /// A replica lost the first-outcome race and was cancelled
    /// best-effort.
    Superseded {
        /// Router-global job id.
        gid: u64,
        /// Backend index whose replica lost.
        backend: usize,
    },
    /// The terminal frame was delivered; the gid is dead forever.
    Settled {
        /// Router-global job id.
        gid: u64,
    },
}

impl JournalRecord {
    fn to_json(&self) -> String {
        let mut fields: Vec<(String, Value)> = Vec::new();
        match self {
            JournalRecord::Routed {
                gid,
                client_job,
                spec,
            } => return routed_json(*gid, *client_job, spec),
            JournalRecord::Accepted { gid, backend } => {
                fields.push(("record".into(), Value::Str("accepted".into())));
                fields.push(("gid".into(), gid.to_value()));
                fields.push(("backend".into(), (*backend as u64).to_value()));
            }
            JournalRecord::Hedged { gid, backend } => {
                fields.push(("record".into(), Value::Str("hedged".into())));
                fields.push(("gid".into(), gid.to_value()));
                fields.push(("backend".into(), (*backend as u64).to_value()));
            }
            JournalRecord::Superseded { gid, backend } => {
                fields.push(("record".into(), Value::Str("superseded".into())));
                fields.push(("gid".into(), gid.to_value()));
                fields.push(("backend".into(), (*backend as u64).to_value()));
            }
            JournalRecord::Settled { gid } => {
                fields.push(("record".into(), Value::Str("settled".into())));
                fields.push(("gid".into(), gid.to_value()));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("record serialization is infallible")
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let tag: String = parse_field(value, "record").map_err(|e| e.to_string())?;
        match tag.as_str() {
            "routed" => {
                check_known_fields(value, &["record", "gid", "client_job", "spec"])
                    .map_err(|e| e.to_string())?;
                let spec = value
                    .field("spec")
                    .map_err(|e| e.to_string())
                    .and_then(|v| JobSpec::from_value_strict(v).map_err(|e| e.to_string()))?;
                Ok(JournalRecord::Routed {
                    gid: parse_field(value, "gid").map_err(|e| e.to_string())?,
                    client_job: parse_field(value, "client_job").map_err(|e| e.to_string())?,
                    spec,
                })
            }
            "accepted" | "hedged" | "superseded" => {
                check_known_fields(value, &["record", "gid", "backend"])
                    .map_err(|e| e.to_string())?;
                let backend: u64 = parse_field(value, "backend").map_err(|e| e.to_string())?;
                let backend = backend as usize;
                let gid: u64 = parse_field(value, "gid").map_err(|e| e.to_string())?;
                Ok(match tag.as_str() {
                    "accepted" => JournalRecord::Accepted { gid, backend },
                    "hedged" => JournalRecord::Hedged { gid, backend },
                    _ => JournalRecord::Superseded { gid, backend },
                })
            }
            "settled" => {
                check_known_fields(value, &["record", "gid"]).map_err(|e| e.to_string())?;
                Ok(JournalRecord::Settled {
                    gid: parse_field(value, "gid").map_err(|e| e.to_string())?,
                })
            }
            other => Err(format!("unknown record kind `{other}`")),
        }
    }
}

/// A `routed` record's JSON, from borrowed parts (compaction writes the
/// router's live specs without cloning them).
fn routed_json(gid: u64, client_job: u64, spec: &JobSpec) -> String {
    let fields: Vec<(String, Value)> = vec![
        ("record".into(), Value::Str("routed".into())),
        ("gid".into(), gid.to_value()),
        ("client_job".into(), client_job.to_value()),
        ("spec".into(), spec.to_value()),
    ];
    serde_json::to_string(&Value::Object(fields)).expect("record serialization is infallible")
}

/// Why the journal could not be opened at all (contrast with
/// [`JournalAnomaly`], which reports recoverable per-line damage).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The file could not be read, created, or written.
    Io(String),
    /// The envelope declares a version this build does not speak; nothing
    /// in the file can be trusted, so recovery refuses rather than guesses.
    VersionMismatch {
        /// The version the envelope declared.
        found: u32,
        /// The version this build writes.
        expected: u32,
    },
    /// The envelope line itself is damaged or absent — with no trustworthy
    /// header the whole file is opaque.
    Malformed(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(message) => write!(f, "journal I/O failed: {message}"),
            JournalError::VersionMismatch { found, expected } => write!(
                f,
                "journal version {found} not supported (expected {expected})"
            ),
            JournalError::Malformed(message) => write!(f, "malformed journal: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A recoverable irregularity found while replaying an existing journal.
/// Each maps to a conservative action, never a guess; see the
/// [module docs](self#recovery).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalAnomaly {
    /// The final line had no terminating newline or no checksum separator —
    /// a write torn by the crash the journal exists to survive. Replay
    /// stops here.
    TornTail {
        /// 1-based line number of the torn line.
        line: usize,
    },
    /// A line's checksum did not match its payload (bit flip, partial
    /// overwrite). Replay stops here: later records may be equally damaged.
    ChecksumMismatch {
        /// 1-based line number.
        line: usize,
    },
    /// A line passed its checksum but did not parse as any known record —
    /// writer drift within the same envelope version. Replay stops here.
    MalformedRecord {
        /// 1-based line number.
        line: usize,
        /// What failed to parse.
        error: String,
    },
    /// A `settled` record for a gid already settled — harmless (settlement
    /// is idempotent) but worth surfacing: something upstream retried.
    DuplicateSettled {
        /// The twice-settled gid.
        gid: u64,
        /// 1-based line number of the duplicate.
        line: usize,
    },
    /// An `accepted`/`settled` record referencing a gid with no surviving
    /// `routed` record. Ignored: with no spec there is nothing to re-route,
    /// and delivery dedup upstream needs no journal help.
    UnknownGid {
        /// The unmatched gid.
        gid: u64,
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for JournalAnomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalAnomaly::TornTail { line } => write!(f, "torn tail at line {line}"),
            JournalAnomaly::ChecksumMismatch { line } => {
                write!(f, "checksum mismatch at line {line}")
            }
            JournalAnomaly::MalformedRecord { line, error } => {
                write!(f, "malformed record at line {line}: {error}")
            }
            JournalAnomaly::DuplicateSettled { gid, line } => {
                write!(f, "duplicate settled record for gid {gid} at line {line}")
            }
            JournalAnomaly::UnknownGid { gid, line } => {
                write!(f, "record for unknown gid {gid} at line {line}")
            }
        }
    }
}

/// A job the journal proves was routed but never settled — the re-route
/// work list a recovery hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedJob {
    /// Router-global job id (already stamped into `spec.job`).
    pub gid: u64,
    /// The client's original job id.
    pub client_job: u64,
    /// The full spec, ready to resubmit.
    pub spec: JobSpec,
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Routed-but-unsettled jobs, in original routing order: re-route
    /// these.
    pub unsettled: Vec<RoutedJob>,
    /// Gids whose `settled` record survived: dead forever, dropped at
    /// compaction.
    pub settled: u64,
    /// Typed reports of every irregularity met during replay.
    pub anomalies: Vec<JournalAnomaly>,
    /// First gid never issued: past every surviving record and the
    /// envelope's gid fence.
    pub next_gid: u64,
}

/// Append-only writer plus the recovery replayer; see the
/// [module docs](self).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// The append handle; `None` only after a compaction renamed the new
    /// file into place but could not reopen it. The next append reopens
    /// the path (the renamed file is complete), never the old inode.
    file: Option<File>,
    /// Bytes in the file.
    bytes: u64,
    /// Bytes the last compaction wrote.
    compacted_bytes: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`. An existing file is
    /// replayed into a [`JournalRecovery`] and compacted atomically; a
    /// missing one is created with just the version envelope.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures,
    /// [`JournalError::VersionMismatch`] for a foreign-version envelope,
    /// and [`JournalError::Malformed`] when the envelope line itself is
    /// unreadable.
    pub fn open(path: &Path) -> Result<(Self, JournalRecovery), JournalError> {
        let recovery = match std::fs::read_to_string(path) {
            Ok(text) => replay(&text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => JournalRecovery {
                next_gid: 1,
                ..JournalRecovery::default()
            },
            Err(e) => return Err(JournalError::Io(e.to_string())),
        };
        // whatever damage replay routed around is physically gone now
        let mut journal = Journal {
            path: path.to_path_buf(),
            file: None,
            bytes: 0,
            compacted_bytes: 0,
        };
        let live = recovery
            .unsettled
            .iter()
            .map(|job| (job.gid, job.client_job, &job.spec));
        journal.compact(recovery.next_gid, live)?;
        Ok((journal, recovery))
    }

    /// Appends one record and flushes it — the write-*ahead* property: the
    /// record is handed to the operating system before the action it
    /// describes happens.
    ///
    /// The record is flushed but not fsynced. It therefore survives a crash
    /// of the router process, but a power loss or kernel crash can lose the
    /// last records the OS had not yet written back.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the append or flush fails, or when the
    /// append handle a failed compaction dropped cannot be reopened.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let mut line = String::new();
        push_line(&mut line, &record.to_json());
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(open_append(&self.path)?),
        };
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| JournalError::Io(e.to_string()))?;
        self.bytes += line.len() as u64;
        Ok(())
    }

    /// Whether the file has outgrown both [`COMPACT_FLOOR_BYTES`] and
    /// [`COMPACT_MULTIPLE`] times what the last compaction wrote; see the
    /// [module docs](self#compaction).
    pub fn wants_compaction(&self) -> bool {
        self.bytes > COMPACT_FLOOR_BYTES.max(COMPACT_MULTIPLE * self.compacted_bytes)
    }

    /// Rewrites the journal to the envelope, fenced at `next_gid`, plus one
    /// `routed` record per live job `(gid, client_job, spec)`, given in gid
    /// order; then reopens the append handle. The caller's live set
    /// replaces the journal's own: the file is never re-read.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the rewrite or the reopen fails. A failed
    /// rewrite leaves the old journal and its handle in place; after a
    /// failed reopen the next [`append`](Self::append) tries again.
    pub fn compact<'a>(
        &mut self,
        next_gid: u64,
        live: impl IntoIterator<Item = (u64, u64, &'a JobSpec)>,
    ) -> Result<(), JournalError> {
        let mut text = String::new();
        push_line(&mut text, &header_json(next_gid));
        for (gid, client_job, spec) in live {
            push_line(&mut text, &routed_json(gid, client_job, spec));
        }
        write_atomic(&self.path, &text).map_err(|e| JournalError::Io(e.to_string()))?;
        self.bytes = text.len() as u64;
        self.compacted_bytes = self.bytes;
        // the old handle names the replaced inode: never append through it
        self.file = None;
        self.file = Some(open_append(&self.path)?);
        Ok(())
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Opens the existing journal file for appending; never creates it.
fn open_append(path: &Path) -> Result<File, JournalError> {
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| JournalError::Io(e.to_string()))
}

/// The envelope. The gid fence is written only past its default of 1, so
/// a fresh journal's envelope is the bare version tag.
fn header_json(next_gid: u64) -> String {
    let mut fields: Vec<(String, Value)> = vec![
        ("journal".into(), Value::Str(JOURNAL_TAG.into())),
        ("version".into(), JOURNAL_VERSION.to_value()),
    ];
    if next_gid > 1 {
        fields.push(("next_gid".into(), next_gid.to_value()));
    }
    serde_json::to_string(&Value::Object(fields)).expect("header serialization is infallible")
}

fn push_line(out: &mut String, json: &str) {
    out.push_str(json);
    out.push('\t');
    out.push_str(&format!("{:016x}", digest64(json.as_bytes())));
    out.push('\n');
}

/// Splits one journal line into its payload, verifying the checksum.
fn check_line(line: &str) -> Option<&str> {
    let (payload, digest) = line.rsplit_once('\t')?;
    let expected = format!("{:016x}", digest64(payload.as_bytes()));
    (digest == expected).then_some(payload)
}

/// Replays journal text into a recovery; see the module docs for the
/// conservative contract.
fn replay(text: &str) -> Result<JournalRecovery, JournalError> {
    let mut lines = text.split_inclusive('\n').enumerate();
    // the envelope first: unreadable or foreign means nothing is trusted
    let Some((_, header_line)) = lines.next() else {
        return Ok(JournalRecovery {
            next_gid: 1,
            ..JournalRecovery::default()
        });
    };
    let header_payload = header_line
        .strip_suffix('\n')
        .and_then(check_line)
        .ok_or_else(|| JournalError::Malformed("envelope line is damaged".into()))?;
    let header = parse_json(header_payload)
        .map_err(|e| JournalError::Malformed(format!("envelope: {e}")))?;
    let tag: String =
        parse_field(&header, "journal").map_err(|e| JournalError::Malformed(e.to_string()))?;
    if tag != JOURNAL_TAG {
        return Err(JournalError::Malformed(format!(
            "envelope names `{tag}`, not a cluster journal"
        )));
    }
    let found: u32 =
        parse_field(&header, "version").map_err(|e| JournalError::Malformed(e.to_string()))?;
    if found != JOURNAL_VERSION {
        return Err(JournalError::VersionMismatch {
            found,
            expected: JOURNAL_VERSION,
        });
    }
    // only a compacted envelope carries the fence; absent, it is 1
    let fence: u64 = match header.field("next_gid") {
        Ok(_) => {
            parse_field(&header, "next_gid").map_err(|e| JournalError::Malformed(e.to_string()))?
        }
        Err(_) => 1,
    };

    let mut recovery = JournalRecovery::default();
    let mut routed: Vec<RoutedJob> = Vec::new();
    let mut settled: HashSet<u64> = HashSet::new();
    let mut max_gid = 0u64;
    for (index, raw) in lines {
        let line_no = index + 1;
        let Some(line) = raw.strip_suffix('\n') else {
            recovery
                .anomalies
                .push(JournalAnomaly::TornTail { line: line_no });
            break;
        };
        if line.is_empty() {
            continue;
        }
        let Some(payload) = check_line(line) else {
            recovery
                .anomalies
                .push(JournalAnomaly::ChecksumMismatch { line: line_no });
            break;
        };
        let record = parse_json(payload)
            .map_err(|e| e.to_string())
            .and_then(|v| JournalRecord::from_value(&v));
        let record = match record {
            Ok(record) => record,
            Err(error) => {
                recovery.anomalies.push(JournalAnomaly::MalformedRecord {
                    line: line_no,
                    error,
                });
                break;
            }
        };
        match record {
            JournalRecord::Routed {
                gid,
                client_job,
                spec,
            } => {
                max_gid = max_gid.max(gid);
                routed.push(RoutedJob {
                    gid,
                    client_job,
                    spec,
                });
            }
            // hedged/superseded replicas never multiply re-routes: the one
            // surviving `routed` record drives recovery, so these only
            // fence the gid allocator and surface orphans
            JournalRecord::Accepted { gid, .. }
            | JournalRecord::Hedged { gid, .. }
            | JournalRecord::Superseded { gid, .. } => {
                max_gid = max_gid.max(gid);
                if !routed.iter().any(|j| j.gid == gid) {
                    recovery
                        .anomalies
                        .push(JournalAnomaly::UnknownGid { gid, line: line_no });
                }
            }
            JournalRecord::Settled { gid } => {
                // even an orphaned gid fences the allocator: reusing a gid
                // ever seen on disk could alias two jobs in dedup
                max_gid = max_gid.max(gid);
                if settled.contains(&gid) {
                    recovery
                        .anomalies
                        .push(JournalAnomaly::DuplicateSettled { gid, line: line_no });
                } else if !routed.iter().any(|j| j.gid == gid) {
                    recovery
                        .anomalies
                        .push(JournalAnomaly::UnknownGid { gid, line: line_no });
                } else {
                    settled.insert(gid);
                }
            }
        }
    }
    recovery.settled = settled.len() as u64;
    recovery.unsettled = routed
        .into_iter()
        .filter(|job| !settled.contains(&job.gid))
        .collect();
    recovery.next_gid = fence.max(max_gid + 1);
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SolverSpec;
    use saim_ising::QuboBuilder;

    fn tiny_spec(gid: u64) -> JobSpec {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -1.0).expect("index in range");
        b.add_linear(1, -1.0).expect("index in range");
        JobSpec::new(gid, b.build(), SolverSpec::Descent { max_sweeps: 4 }, gid)
    }

    fn scratch(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "saim-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn journal_roundtrips_the_lifecycle_and_compacts_settled_jobs() {
        let path = scratch("lifecycle");
        let (mut journal, recovery) = Journal::open(&path).expect("fresh journal");
        assert!(recovery.unsettled.is_empty());
        assert_eq!(recovery.next_gid, 1);
        for gid in 1..=3u64 {
            journal
                .append(&JournalRecord::Routed {
                    gid,
                    client_job: gid + 10,
                    spec: tiny_spec(gid),
                })
                .expect("append");
        }
        journal
            .append(&JournalRecord::Accepted { gid: 1, backend: 0 })
            .expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("append");
        drop(journal);

        let (_journal, recovery) = Journal::open(&path).expect("reopen");
        assert!(recovery.anomalies.is_empty());
        assert_eq!(recovery.settled, 1);
        let gids: Vec<u64> = recovery.unsettled.iter().map(|j| j.gid).collect();
        assert_eq!(gids, vec![2, 3], "settled gid 1 is gone, order kept");
        assert_eq!(recovery.next_gid, 4);
        assert_eq!(recovery.unsettled[0].client_job, 12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn online_compaction_waits_for_the_floor_then_keeps_only_live_jobs() {
        let path = scratch("online");
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        let mut gid = 0u64;
        // settle everything but every 100th job until the file first
        // outgrows the floor
        while !journal.wants_compaction() {
            gid += 1;
            journal
                .append(&JournalRecord::Routed {
                    gid,
                    client_job: gid + 10,
                    spec: tiny_spec(gid),
                })
                .expect("append");
            if !gid.is_multiple_of(100) {
                journal
                    .append(&JournalRecord::Settled { gid })
                    .expect("append");
            }
        }
        assert!(journal.bytes > COMPACT_FLOOR_BYTES);
        let live: Vec<JobSpec> = (100..=gid).step_by(100).map(tiny_spec).collect();
        journal
            .compact(
                gid + 1,
                live.iter().map(|spec| (spec.job, spec.job + 10, spec)),
            )
            .expect("compact");
        assert!(!journal.wants_compaction());
        assert_eq!(journal.bytes, std::fs::metadata(&path).expect("stat").len());
        // the rewritten file appends and replays like any other
        journal
            .append(&JournalRecord::Settled { gid: 100 })
            .expect("append after compaction");
        drop(journal);
        let (_journal, recovery) = Journal::open(&path).expect("reopen");
        assert!(recovery.anomalies.is_empty(), "{:?}", recovery.anomalies);
        let gids: Vec<u64> = recovery.unsettled.iter().map(|j| j.gid).collect();
        let want: Vec<u64> = (200..=gid).step_by(100).collect();
        assert_eq!(gids, want);
        assert_eq!(recovery.unsettled[0].client_job, 210);
        assert_eq!(recovery.next_gid, gid + 1, "the fence survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_after_a_failed_reopen_reopens_the_compacted_file() {
        let path = scratch("reopen");
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        let spec = tiny_spec(1);
        journal
            .append(&JournalRecord::Routed {
                gid: 1,
                client_job: 11,
                spec: spec.clone(),
            })
            .expect("append");
        journal.compact(2, [(1, 11, &spec)]).expect("compact");
        // what a compaction whose reopen failed leaves behind
        journal.file = None;
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("the next append reopens the path");
        assert_eq!(journal.bytes, std::fs::metadata(&path).expect("stat").len());
        drop(journal);
        let (_journal, recovery) = Journal::open(&path).expect("reopen");
        assert!(recovery.anomalies.is_empty(), "{:?}", recovery.anomalies);
        assert!(
            recovery.unsettled.is_empty(),
            "the settle landed in the file"
        );
        assert_eq!(recovery.settled, 1);
        assert_eq!(recovery.next_gid, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_open_writes_only_the_envelope() {
        let path = scratch("fresh");
        let (journal, _) = Journal::open(&path).expect("fresh journal");
        drop(journal);
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 1, "envelope only");
        assert!(text.contains("saim-cluster"));
        let _ = std::fs::remove_file(&path);
    }
}
