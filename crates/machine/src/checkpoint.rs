//! Deterministic checkpoint/resume and cooperative run control.
//!
//! Every engine in this crate is a pure function of `(model, seed)`; this
//! module makes that purity *interruptible*. A running solve can be asked —
//! through a [`RunController`] — to stop at the next sweep (or swap-round)
//! boundary and hand back an [`EngineState`]: a complete, plain-data image
//! of the engine's trajectory. Resuming from that image replays the rest of
//! the run **bit-identically** to an uninterrupted run at any worker count
//! (`tests/resume_determinism.rs` proves this per engine against the serial
//! oracle).
//!
//! # What a state image must capture
//!
//! Bit-exact resume leaves no room for "close enough"; three capture rules
//! keep the trajectory intact:
//!
//! 1. **RNG stream position, not just the seed.** A ChaCha stream is
//!    `(key, block counter, intra-block word position)` — [`RngState`]
//!    stores all three, and the keystream block itself is regenerated on
//!    restore ([`rand_chacha::ChaCha8Rng::from_state_words`]). Every stream
//!    an engine owns is captured: per-lane noise streams, the greedy
//!    restart stream, parallel tempering's swap stream.
//! 2. **Buffered-but-unconsumed noise words.** The sweep hot path draws
//!    noise through a block buffer ([`crate::NoiseSource`]) that straddles
//!    sweep boundaries; [`NoiseState`] carries the full buffer plus the
//!    read position. Dropping the buffer and re-filling from the generator
//!    would skip words and silently fork the trajectory.
//! 3. **Derived books verbatim.** The machine's incrementally-maintained
//!    local fields and energy are *not* recomputed on restore — recomputing
//!    changes floating-point summation order, which is exactly the kind of
//!    last-bit drift the determinism contract forbids. [`MachineState`]
//!    stores field and energy values as `u64` bit patterns so the JSON
//!    round trip is lossless.
//!
//! # File format and atomicity
//!
//! [`Checkpoint::save`] writes a two-line text file:
//!
//! ```text
//! {"schema":1,"job":…,"instance_digest":…,"spec":{…},"engine":{…}}
//! 64b2c9a31f00e70d
//! ```
//!
//! line 1 is the compact-JSON payload (versioned by [`CHECKPOINT_VERSION`],
//! embedding the full [`JobSpec`] so a checkpoint is self-contained), line 2
//! its FNV-1a 64-bit digest ([`digest64`]) in fixed-width hex. The write is
//! atomic: the bytes go to a `<path>.tmp` sibling first and are `rename`d
//! into place, so a crash mid-write leaves either the old file or no file —
//! never a torn one. [`Checkpoint::load`] rejects bad files with a typed
//! [`CheckpointError`], checked in order: truncation, checksum mismatch,
//! version mismatch, malformed payload, instance-digest mismatch — never a
//! panic, never a silently-wrong resume.
//!
//! # Cooperative cancellation
//!
//! A [`RunController`] is a shared cancel/checkpoint flag pair plus an
//! optional deadline. Engines poll it every [`RunController::poll_interval`]
//! sweeps (two relaxed atomic loads — unmeasurable next to a sweep) and
//! return a partial result tagged with an [`OutcomeKind`] instead of being
//! unkillable. Stop requests take effect at deterministic trajectory
//! boundaries, so a checkpointed run resumes on exactly the sweep it left.

use crate::lane::MachineSnapshot;
use crate::rng::{NoiseSnapshot, NOISE_SNAPSHOT_WORDS};
use crate::service::JobSpec;
use crate::solver::SolveOutcome;
use rand_chacha::ChaCha8Rng;
use saim_ising::SpinState;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version tag of the checkpoint file payload. Bump on any layout change;
/// [`Checkpoint::load`] rejects other versions with
/// [`CheckpointError::VersionMismatch`] instead of guessing.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint file was rejected, or a captured state failed to
/// rebuild. Every failure path is typed — corruption never panics and never
/// resumes wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file ended before payload and checksum were complete.
    Truncated,
    /// The payload does not hash to the stored checksum (bit flip or
    /// partial overwrite).
    ChecksumMismatch,
    /// The payload's `schema` field is not [`CHECKPOINT_VERSION`].
    VersionMismatch {
        /// The version the file declared.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
    /// The checkpoint's instance digest disagrees with the embedded spec's —
    /// the state image belongs to a different problem instance.
    InstanceDigestMismatch {
        /// The digest the checkpoint envelope declared.
        found: u64,
        /// The digest the embedded spec carries.
        expected: u64,
    },
    /// The payload parsed but its shape or values are invalid (wrong vector
    /// lengths, spin values outside ±1, rng key of the wrong width, a state
    /// that does not match the spec's solver …).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(message) => write!(f, "checkpoint I/O error: {message}"),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint payload does not match its checksum")
            }
            CheckpointError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} not supported (expected {expected})"
                )
            }
            CheckpointError::InstanceDigestMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint instance digest {found:#x} does not match the spec's {expected:#x}"
                )
            }
            CheckpointError::Malformed(message) => write!(f, "malformed checkpoint: {message}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

/// FNV-1a 64-bit digest — the checksum the checkpoint file format uses.
/// Public so external tooling (and the corruption tests) can produce or
/// verify the digest line without reimplementing it.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// --------------------------------------------------------- run control

/// How a controlled solve ended. Mirrors the wire field
/// `JobOutcome::outcome_kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// The run finished its full schedule; the outcome is final and
    /// bit-identical to an uncontrolled run.
    Completed,
    /// The run was cancelled; the outcome is the partial best-so-far.
    Cancelled,
    /// The run hit its deadline; the outcome is the partial best-so-far.
    DeadlineExceeded,
    /// The run stopped at a trajectory boundary and captured an
    /// [`EngineState`]; resuming replays the remainder bit-identically.
    Checkpointed,
}

/// Default polling stride of [`RunController::poll`], in sweeps.
pub const DEFAULT_POLL_INTERVAL: u64 = 8;

/// A shared handle that lets a caller cancel, checkpoint, or deadline a
/// running solve from outside.
///
/// Clones share the same flags, so one controller can govern a whole
/// fleet of jobs: workers poll their clone inside the sweep loop, the owner calls
/// [`RunController::request_cancel`] / [`RunController::request_checkpoint`]
/// from another thread. Polling is cooperative — a request takes effect at
/// the engine's next poll boundary, which is at most
/// [`RunController::poll_interval`] sweeps away.
#[derive(Debug, Clone)]
pub struct RunController {
    cancel: Arc<AtomicBool>,
    checkpoint: Arc<AtomicBool>,
    deadline: Option<Instant>,
    /// Deterministic test hook: report [`OutcomeKind::Checkpointed`] once
    /// this many sweeps are done, independent of wall clock. This is what
    /// makes interrupt-at-sweep-k reproducible in the resume proptests.
    stop_after: Option<u64>,
    poll_interval: u64,
}

impl Default for RunController {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl RunController {
    /// A controller with no deadline and nothing requested — the solve runs
    /// to completion unless a flag is raised from another thread.
    pub fn unlimited() -> Self {
        RunController {
            cancel: Arc::new(AtomicBool::new(false)),
            checkpoint: Arc::new(AtomicBool::new(false)),
            deadline: None,
            stop_after: None,
            poll_interval: DEFAULT_POLL_INTERVAL,
        }
    }

    /// Sets an absolute wall-clock deadline; polls at or after it report
    /// [`OutcomeKind::DeadlineExceeded`].
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` from now.
    pub fn with_deadline_in(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Requests a deterministic checkpoint once `sweeps` sweeps are done —
    /// the reproducible interrupt the resume tests are built on.
    pub fn with_stop_after(mut self, sweeps: u64) -> Self {
        self.stop_after = Some(sweeps);
        self
    }

    /// Sets how many sweeps pass between polls of the shared flags.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_poll_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "poll interval must be positive");
        self.poll_interval = interval;
        self
    }

    /// Sweeps between polls of the shared flags.
    pub fn poll_interval(&self) -> u64 {
        self.poll_interval
    }

    /// Asks every solve polling this controller to stop with a partial
    /// result at its next poll boundary.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Asks every solve polling this controller to capture its state and
    /// stop at its next poll boundary.
    pub fn request_checkpoint(&self) {
        self.checkpoint.store(true, Ordering::Relaxed);
    }

    /// Whether [`RunController::request_cancel`] has been called.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Poll gate for sweep loops: a cheap no-op except every
    /// [`RunController::poll_interval`]-th sweep, where it checks the stop
    /// conditions. `sweeps_done` is the engine's completed-sweep count.
    #[inline]
    pub fn poll(&self, sweeps_done: u64) -> Option<OutcomeKind> {
        if !sweeps_done.is_multiple_of(self.poll_interval) {
            return None;
        }
        self.check(sweeps_done)
    }

    /// Unconditional stop-condition check (used at coarse boundaries like a
    /// tempering swap round, where every boundary is worth a check).
    ///
    /// Priority: cancel over checkpoint over deadline — a cancelled job must
    /// not linger to capture state, and a deterministic stop must not be
    /// masked by a wall-clock deadline racing it.
    pub fn check(&self, sweeps_done: u64) -> Option<OutcomeKind> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(OutcomeKind::Cancelled);
        }
        if self.checkpoint.load(Ordering::Relaxed)
            || self.stop_after.is_some_and(|s| sweeps_done >= s)
        {
            return Some(OutcomeKind::Checkpointed);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(OutcomeKind::DeadlineExceeded);
        }
        None
    }
}

/// Result of a controlled solve: the (possibly partial) outcome, how the
/// run ended, and — iff it ended [`OutcomeKind::Checkpointed`] — the state
/// image that resumes it.
#[derive(Debug, Clone)]
pub struct Controlled<S> {
    /// The solve outcome. Final for [`OutcomeKind::Completed`]; for every
    /// other kind a well-formed partial: `best` is the best state observed
    /// so far, `last` the in-progress state, `mcs` the sweeps actually
    /// consumed.
    pub outcome: SolveOutcome,
    /// How the run ended.
    pub status: OutcomeKind,
    /// The resumable state image, present iff `status` is
    /// [`OutcomeKind::Checkpointed`].
    pub state: Option<S>,
}

// ------------------------------------------------------- state images

/// A ChaCha stream position: key plus block counter plus intra-block word
/// index. The keystream block is a pure function of `(key, counter)` and is
/// regenerated on rebuild, so it is never stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RngState {
    /// The eight 32-bit key words (stored as a vector for the JSON round
    /// trip; must have length 8).
    pub key: Vec<u32>,
    /// 64-bit block counter.
    pub counter: u64,
    /// Next unread word index in the current block; 16 = exhausted.
    pub word_pos: u64,
}

impl RngState {
    pub(crate) fn capture(rng: &ChaCha8Rng) -> Self {
        let (key, counter, word_pos) = rng.state_words();
        RngState {
            key: key.to_vec(),
            counter,
            word_pos: word_pos as u64,
        }
    }

    fn parts(&self) -> Result<([u32; 8], u64, usize), CheckpointError> {
        let key: [u32; 8] = self.key.as_slice().try_into().map_err(|_| {
            CheckpointError::Malformed(format!("rng key has {} words, expected 8", self.key.len()))
        })?;
        if self.word_pos > 16 {
            return Err(CheckpointError::Malformed(format!(
                "rng word position {} out of range 0..=16",
                self.word_pos
            )));
        }
        Ok((key, self.counter, self.word_pos as usize))
    }

    pub(crate) fn rebuild(&self) -> Result<ChaCha8Rng, CheckpointError> {
        let (key, counter, word_pos) = self.parts()?;
        Ok(ChaCha8Rng::from_state_words(key, counter, word_pos))
    }
}

/// A [`crate::NoiseSource`] image: the generator position plus the full
/// block buffer. The buffer straddles sweep boundaries, so it must travel
/// with the checkpoint (capture rule 2 in the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseState {
    /// The underlying generator's position.
    pub rng: RngState,
    /// The buffered raw words (must have length 64).
    pub buf: Vec<u64>,
    /// Next unconsumed buffer index; 64 = buffer empty.
    pub pos: u64,
}

impl NoiseState {
    pub(crate) fn capture(snap: &NoiseSnapshot) -> Self {
        NoiseState {
            rng: RngState {
                key: snap.key.to_vec(),
                counter: snap.counter,
                word_pos: snap.word_pos as u64,
            },
            buf: snap.buf.clone(),
            pos: snap.pos as u64,
        }
    }

    pub(crate) fn rebuild(&self) -> Result<NoiseSnapshot, CheckpointError> {
        let (key, counter, word_pos) = self.rng.parts()?;
        if self.buf.len() != NOISE_SNAPSHOT_WORDS {
            return Err(CheckpointError::Malformed(format!(
                "noise buffer has {} words, expected {NOISE_SNAPSHOT_WORDS}",
                self.buf.len()
            )));
        }
        if self.pos as usize > NOISE_SNAPSHOT_WORDS {
            return Err(CheckpointError::Malformed(format!(
                "noise buffer position {} out of range 0..={NOISE_SNAPSHOT_WORDS}",
                self.pos
            )));
        }
        Ok(NoiseSnapshot {
            key,
            counter,
            word_pos,
            buf: self.buf.clone(),
            pos: self.pos as usize,
        })
    }
}

/// A p-bit machine image: spins plus the incrementally-maintained books
/// (local fields, energy, flip count) stored verbatim as bit patterns —
/// recomputing them on restore would change summation order and break
/// bit-exactness (capture rule 3 in the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineState {
    /// Spin values, each ±1.
    pub spins: Vec<i8>,
    /// Per-spin local fields as IEEE-754 bit patterns.
    pub field_bits: Vec<u64>,
    /// Current energy as an IEEE-754 bit pattern.
    pub energy_bits: u64,
    /// Accepted-flip counter.
    pub flips: u64,
}

impl MachineState {
    pub(crate) fn capture(snap: &MachineSnapshot) -> Self {
        MachineState {
            spins: snap.spins.values().to_vec(),
            field_bits: snap.fields.iter().map(|f| f.to_bits()).collect(),
            energy_bits: snap.energy.to_bits(),
            flips: snap.flips,
        }
    }

    pub(crate) fn rebuild(&self, n: usize) -> Result<MachineSnapshot, CheckpointError> {
        if self.spins.len() != n || self.field_bits.len() != n {
            return Err(CheckpointError::Malformed(format!(
                "machine state holds {} spins / {} fields for a model of {n} spins",
                self.spins.len(),
                self.field_bits.len()
            )));
        }
        check_spins(&self.spins)?;
        Ok(MachineSnapshot {
            spins: SpinState::from_values(&self.spins),
            fields: self.field_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            energy: f64::from_bits(self.energy_bits),
            flips: self.flips,
        })
    }
}

fn check_spins(spins: &[i8]) -> Result<(), CheckpointError> {
    if let Some(bad) = spins.iter().find(|&&s| s != 1 && s != -1) {
        return Err(CheckpointError::Malformed(format!(
            "spin value {bad} is not ±1"
        )));
    }
    Ok(())
}

/// An `(energy, state)` pair — a best-so-far record, or either half of a
/// finished outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BestState {
    /// The energy as an IEEE-754 bit pattern.
    pub energy_bits: u64,
    /// The spin state, each value ±1.
    pub spins: Vec<i8>,
}

impl BestState {
    pub(crate) fn capture(energy: f64, state: &SpinState) -> Self {
        BestState {
            energy_bits: energy.to_bits(),
            spins: state.values().to_vec(),
        }
    }

    pub(crate) fn rebuild(&self, n: usize) -> Result<(f64, SpinState), CheckpointError> {
        if self.spins.len() != n {
            return Err(CheckpointError::Malformed(format!(
                "state holds {} spins for a model of {n}",
                self.spins.len()
            )));
        }
        check_spins(&self.spins)?;
        Ok((
            f64::from_bits(self.energy_bits),
            SpinState::from_values(&self.spins),
        ))
    }
}

/// A mid-run [`crate::SimulatedAnnealing`] image, captured at a sweep
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaState {
    /// The next schedule step to execute (sweeps completed so far).
    pub next_step: u64,
    /// The machine at the boundary.
    pub machine: MachineState,
    /// The solver's noise stream, buffer included.
    pub noise: NoiseState,
    /// Best-so-far record.
    pub best: BestState,
}

/// A mid-run [`crate::GreedyDescent`] image, captured at a sweep boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DescentState {
    /// Greedy sweeps completed so far.
    pub sweeps_done: u64,
    /// The machine at the boundary.
    pub machine: MachineState,
    /// The restart stream (greedy sweeps themselves draw no noise, but the
    /// stream position after the initial randomization is part of the
    /// solver's replayable state).
    pub rng: RngState,
}

/// One [`crate::ReplicaBatch`] lane: machine books plus the lane's noise
/// stream. Lane trajectories are batch-width-invariant, so images captured
/// at one grouping can be resumed under any other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneState {
    /// The lane's machine image.
    pub machine: MachineState,
    /// The lane's noise stream, buffer included.
    pub noise: NoiseState,
}

impl LaneState {
    pub(crate) fn capture(snap: &(MachineSnapshot, NoiseSnapshot)) -> Self {
        LaneState {
            machine: MachineState::capture(&snap.0),
            noise: NoiseState::capture(&snap.1),
        }
    }

    pub(crate) fn rebuild(
        &self,
        n: usize,
    ) -> Result<(MachineSnapshot, NoiseSnapshot), CheckpointError> {
        Ok((self.machine.rebuild(n)?, self.noise.rebuild()?))
    }
}

/// A finished replica's outcome, recorded so a resumed ensemble re-emits
/// completed lanes verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoneLane {
    /// The final sample and its energy.
    pub last: BestState,
    /// The best sample observed and its energy.
    pub best: BestState,
    /// Sweeps the lane consumed.
    pub mcs: u64,
}

impl DoneLane {
    pub(crate) fn capture(outcome: &SolveOutcome) -> Self {
        DoneLane {
            last: BestState::capture(outcome.last_energy, &outcome.last),
            best: BestState::capture(outcome.best_energy, &outcome.best),
            mcs: outcome.mcs,
        }
    }

    pub(crate) fn rebuild(&self, n: usize) -> Result<SolveOutcome, CheckpointError> {
        let (last_energy, last) = self.last.rebuild(n)?;
        let (best_energy, best) = self.best.rebuild(n)?;
        Ok(SolveOutcome {
            last,
            last_energy,
            best,
            best_energy,
            mcs: self.mcs,
        })
    }
}

/// One ensemble replica group at interrupt time. Groups preserve their
/// interrupt-time membership: each variant carries the replica seeds it was
/// built from, so a resume regenerates the exact same lane streams no
/// matter how many workers it runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupState {
    /// The group had not started when the run stopped.
    Pending {
        /// The replica seeds the group will run.
        seeds: Vec<u64>,
    },
    /// A single-replica group image written by older builds, which ran
    /// one-lane groups on the serial annealer. Legacy and read-only: no
    /// build writes it any more, but drain directories holding it still
    /// resume — as a one-lane [`GroupState::Batch`] built from the
    /// annealer's machine, noise stream and best, which is exactly the
    /// lane the annealer replays.
    Serial {
        /// The replica's seed.
        seed: u64,
        /// The annealer image at the boundary.
        sa: SaState,
    },
    /// A group of one or more lanes running through the replica batch.
    Batch {
        /// The replica seeds, one per lane.
        seeds: Vec<u64>,
        /// The next schedule step to execute.
        next_step: u64,
        /// Per-lane machine + noise images.
        lanes: Vec<LaneState>,
        /// Per-lane best-so-far records.
        bests: Vec<BestState>,
    },
    /// The group finished before the run stopped.
    Done {
        /// The finished per-replica outcomes, in lane order.
        lanes: Vec<DoneLane>,
    },
}

/// A mid-run [`crate::EnsembleAnnealer`] image: the batch index and every
/// replica group in submission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleState {
    /// Which solve-call batch this was (seeds derive from it).
    pub batch_index: u64,
    /// The replica groups, in replica order.
    pub groups: Vec<GroupState>,
}

/// A mid-run [`crate::ParallelTempering`] image, captured at a swap-round
/// boundary (swaps for the recorded rounds already applied).
///
/// Slots are stored flat — not grouped — because group width depends on the
/// worker count and lane trajectories are batch-width-invariant: a resume
/// regroups the same slots under its own worker count and replays
/// identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PtState {
    /// Which solve-call batch this was (stream seeds derive from it).
    pub batch_index: u64,
    /// The next swap round to execute (absolute index — swap-pair parity
    /// derives from it).
    pub next_round: u64,
    /// Per-slot machine + noise images, hottest to coldest.
    pub lanes: Vec<LaneState>,
    /// Per-slot best-so-far records.
    pub bests: Vec<BestState>,
    /// The swap-decision stream.
    pub swap_rng: RngState,
    /// Swap attempts so far.
    pub swap_attempts: u64,
    /// Accepted swaps so far.
    pub swap_accepts: u64,
}

/// A complete engine state image — everything a bit-exact resume needs,
/// tagged by the engine a served [`JobSpec`] runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineState {
    /// A [`crate::GreedyDescent`] run.
    Descent(DescentState),
    /// An [`crate::EnsembleAnnealer`] run.
    Ensemble(EnsembleState),
    /// A [`crate::ParallelTempering`] run.
    Pt(PtState),
}

// ------------------------------------------------------ the checkpoint

/// A self-contained checkpoint: the full [`JobSpec`] plus the engine state
/// image, with the job identifiers echoed at the envelope for cheap
/// inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The spec's job identifier, echoed.
    pub job: u64,
    /// The spec's instance digest, echoed; [`Checkpoint::load`] rejects
    /// files where envelope and embedded spec disagree.
    pub instance_digest: u64,
    /// The job being resumed, embedded whole so the checkpoint needs no
    /// side channel.
    pub spec: JobSpec,
    /// The engine state image.
    pub engine: EngineState,
}

impl Checkpoint {
    /// Wraps a spec and its captured engine state, echoing the spec's
    /// identifiers into the envelope.
    pub fn new(spec: JobSpec, engine: EngineState) -> Self {
        Checkpoint {
            job: spec.job,
            instance_digest: spec.instance_digest,
            spec,
            engine,
        }
    }

    /// Serializes the payload line (no checksum) to compact JSON with a
    /// fixed field order.
    pub fn to_json(&self) -> String {
        let value = Value::Object(vec![
            ("schema".into(), CHECKPOINT_VERSION.to_value()),
            ("job".into(), self.job.to_value()),
            ("instance_digest".into(), self.instance_digest.to_value()),
            ("spec".into(), self.spec.to_value()),
            ("engine".into(), self.engine.to_value()),
        ]);
        serde_json::to_string(&value).expect("checkpoint serialization is infallible")
    }

    /// Parses a payload line.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`] on a foreign `schema` (checked
    /// before anything else), [`CheckpointError::InstanceDigestMismatch`]
    /// when envelope and embedded spec disagree, and
    /// [`CheckpointError::Malformed`] on any shape problem — including a
    /// rejected embedded spec, which gets the strictness of
    /// [`JobSpec::from_json`].
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let value = serde_json::parse_value_str(text)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let schema: u32 = read_field(&value, "schema")?;
        if schema != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: schema,
                expected: CHECKPOINT_VERSION,
            });
        }
        let job: u64 = read_field(&value, "job")?;
        let instance_digest: u64 = read_field(&value, "instance_digest")?;
        let spec_value = value
            .field("spec")
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let spec = JobSpec::from_value_strict(spec_value)
            .map_err(|e| CheckpointError::Malformed(format!("embedded spec: {e}")))?;
        let engine: EngineState = read_field(&value, "engine")?;
        if instance_digest != spec.instance_digest {
            return Err(CheckpointError::InstanceDigestMismatch {
                found: instance_digest,
                expected: spec.instance_digest,
            });
        }
        if job != spec.job {
            return Err(CheckpointError::Malformed(format!(
                "envelope job {job} does not match embedded spec job {}",
                spec.job
            )));
        }
        Ok(Checkpoint {
            job,
            instance_digest,
            spec,
            engine,
        })
    }

    /// Atomically writes the checkpoint file: payload line, then checksum
    /// line, staged in a `<path>.tmp` sibling and `rename`d into place. A
    /// crash mid-save leaves the previous file (or none) — never a torn one.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem says no.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let payload = self.to_json();
        write_atomic(
            path,
            &format!("{payload}\n{:016x}\n", digest64(payload.as_bytes())),
        )
    }

    /// Reads and fully verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// In check order: [`CheckpointError::Io`] (unreadable),
    /// [`CheckpointError::Truncated`] (payload or checksum line missing or
    /// cut), [`CheckpointError::ChecksumMismatch`] (payload does not hash
    /// to the stored digest), then everything [`Checkpoint::from_json`]
    /// rejects.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(io_err)?;
        Self::from_json(verify_payload(&text)?)
    }
}

/// Stages `text` in a `<path>.tmp` sibling and `rename`s it into place, so
/// a crash mid-write leaves the previous file (or none) — never a torn one.
/// The one atomic write behind [`Checkpoint::save`], the spec files a
/// drain persists alongside checkpoints, and journal compaction. It does
/// not fsync: the file survives a process crash, not a power loss.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)
}

/// Splits a checkpoint file's text into payload and checksum and verifies
/// the digest. Returns the payload line.
fn verify_payload(text: &str) -> Result<&str, CheckpointError> {
    let mut lines = text.lines();
    let (Some(payload), Some(digest_line)) = (lines.next(), lines.next()) else {
        return Err(CheckpointError::Truncated);
    };
    if lines.next().is_some() {
        return Err(CheckpointError::Malformed(
            "trailing data after the checksum line".into(),
        ));
    }
    if digest_line.len() != 16 || !digest_line.bytes().all(|b| b.is_ascii_hexdigit()) {
        // a cut mid-checksum leaves a short (or non-hex) tail
        return Err(CheckpointError::Truncated);
    }
    let stored = u64::from_str_radix(digest_line, 16).expect("validated hex");
    if digest64(payload.as_bytes()) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(payload)
}

fn read_field<T: Deserialize>(value: &Value, name: &str) -> Result<T, CheckpointError> {
    let field = value
        .field(name)
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    T::from_value(field).map_err(|e| CheckpointError::Malformed(format!("field `{name}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{new_rng, NoiseSource};

    #[test]
    fn digest64_matches_fnv1a_vectors() {
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn rng_state_roundtrips_mid_stream() {
        use rand_chacha::rand_core::RngCore;
        let mut rng = new_rng(7);
        for _ in 0..11 {
            let _ = rng.next_u32();
        }
        let state = RngState::capture(&rng);
        let mut back = state.rebuild().expect("valid state");
        for _ in 0..40 {
            assert_eq!(rng.next_u64(), back.next_u64());
        }
    }

    #[test]
    fn rng_state_rejects_bad_shapes() {
        let short = RngState {
            key: vec![1, 2, 3],
            counter: 0,
            word_pos: 0,
        };
        assert!(matches!(
            short.rebuild(),
            Err(CheckpointError::Malformed(_))
        ));
        let oob = RngState {
            key: vec![0; 8],
            counter: 0,
            word_pos: 17,
        };
        assert!(matches!(oob.rebuild(), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn noise_state_roundtrips_through_serde_value() {
        let mut source = NoiseSource::from_seed(3);
        for _ in 0..77 {
            let _ = source.symmetric();
        }
        let state = NoiseState::capture(&source.snapshot());
        let back = NoiseState::from_value(&state.to_value()).expect("serde round trip");
        assert_eq!(back, state);
        let mut restored = NoiseSource::from_snapshot(&back.rebuild().expect("valid"));
        for _ in 0..130 {
            assert_eq!(source.symmetric().to_bits(), restored.symmetric().to_bits());
        }
    }

    #[test]
    fn noise_state_rejects_wrong_buffer_len() {
        let mut source = NoiseSource::from_seed(3);
        let _ = source.unit();
        let mut state = NoiseState::capture(&source.snapshot());
        state.buf.pop();
        assert!(matches!(
            state.rebuild(),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn machine_state_rejects_non_spin_values() {
        let state = MachineState {
            spins: vec![1, 0, -1],
            field_bits: vec![0; 3],
            energy_bits: 0,
            flips: 0,
        };
        assert!(matches!(
            state.rebuild(3),
            Err(CheckpointError::Malformed(_))
        ));
        let wrong_len = MachineState {
            spins: vec![1, -1],
            field_bits: vec![0; 3],
            energy_bits: 0,
            flips: 0,
        };
        assert!(matches!(
            wrong_len.rebuild(3),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn controller_stop_after_reports_checkpointed_at_the_boundary() {
        let ctrl = RunController::unlimited()
            .with_stop_after(10)
            .with_poll_interval(1);
        assert_eq!(ctrl.poll(9), None);
        assert_eq!(ctrl.poll(10), Some(OutcomeKind::Checkpointed));
        assert_eq!(ctrl.poll(11), Some(OutcomeKind::Checkpointed));
    }

    #[test]
    fn controller_poll_respects_the_interval() {
        let ctrl = RunController::unlimited().with_stop_after(1);
        // default interval 8: sweep counts not divisible by 8 skip checks
        assert_eq!(ctrl.poll(9), None);
        assert_eq!(ctrl.poll(16), Some(OutcomeKind::Checkpointed));
    }

    #[test]
    fn controller_cancel_beats_checkpoint_beats_deadline() {
        let ctrl = RunController::unlimited()
            .with_poll_interval(1)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(ctrl.poll(1), Some(OutcomeKind::DeadlineExceeded));
        ctrl.request_checkpoint();
        assert_eq!(ctrl.poll(1), Some(OutcomeKind::Checkpointed));
        ctrl.request_cancel();
        assert_eq!(ctrl.poll(1), Some(OutcomeKind::Cancelled));
        assert!(ctrl.cancel_requested());
    }

    #[test]
    fn controller_clones_share_flags() {
        let ctrl = RunController::unlimited().with_poll_interval(1);
        let remote = ctrl.clone();
        assert_eq!(ctrl.poll(1), None);
        remote.request_cancel();
        assert_eq!(ctrl.poll(1), Some(OutcomeKind::Cancelled));
    }

    #[test]
    fn verify_payload_distinguishes_truncation_from_corruption() {
        let payload = "{\"x\":1}";
        let good = format!("{payload}\n{:016x}\n", digest64(payload.as_bytes()));
        assert_eq!(verify_payload(&good).expect("valid"), payload);
        assert_eq!(verify_payload(""), Err(CheckpointError::Truncated));
        assert_eq!(verify_payload("{\"x\""), Err(CheckpointError::Truncated));
        assert_eq!(
            verify_payload(&good[..good.len() - 10]),
            Err(CheckpointError::Truncated)
        );
        let flipped = good.replacen("\"x\":1", "\"x\":2", 1);
        assert_eq!(
            verify_payload(&flipped),
            Err(CheckpointError::ChecksumMismatch)
        );
    }
}
