//! The job layer: the wire schema, the unit of work a worker executes,
//! and the directory layout a drained fleet leaves behind.
//!
//! - [`JobSpec`] / [`JobOutcome`] are the serialized job and result that
//!   the network front-end, the router, checkpoints and the journal all
//!   speak (see *Wire schema* below).
//! - [`SolverJob`] is what a worker executes: a fresh spec, or a
//!   [`Checkpoint`] being resumed, run under a [`RunController`] by
//!   [`SolverJob::execute`]. The worker fleet of
//!   [`Frontend`](crate::frontend::Frontend) is the crate's one persistent
//!   job pool; an ordered one-shot fan-out over many specs is
//!   [`parallel_map_indexed`](crate::parallel::parallel_map_indexed) over
//!   [`JobSpec::run`].
//! - The drain directory is what
//!   [`Frontend::shutdown_to`](crate::frontend::Frontend::shutdown_to)
//!   writes and [`Frontend::resume`](crate::frontend::Frontend::resume)
//!   reads back (see *Drain directory* below).
//!
//! # Stream derivation and determinism
//!
//! A job adds **no randomness of its own**: every spec carries its own root
//! seed, every solver derives its internal SplitMix64 streams from that
//! seed exactly as it would in a direct call, and no RNG is ever shared
//! between jobs. Scheduling therefore affects only *when* a job runs, never
//! *what* it computes: a job's outcome is bit-identical to calling the
//! underlying engine directly with the same seed, **for any worker count or
//! submission interleaving** (`tests/service_replay.rs` asserts this through
//! the front-end across worker counts 1/2/8 and shuffled submission
//! orders). A job interrupted at a checkpoint and resumed later completes
//! bit-identically too (see [`crate::checkpoint`] for the format and the
//! capture rules that make this hold).
//!
//! # Wire schema
//!
//! [`JobSpec`] and [`JobOutcome`] are the serialized forms (schema version
//! [`SCHEMA_VERSION`]): a spec carries the QUBO payload, solver selection
//! ([`SolverSpec`]), seed and an instance digest; an outcome echoes the
//! identifiers and reports energies, states, sweep counts and wall-clock
//! timing. Parsing is **strict**: schema-version mismatches and unknown
//! fields (at the envelope, the solver selection, and the model's top-level
//! fields) are rejected with a typed [`SchemaError`], and
//! `serialize → parse → re-serialize` is byte-stable (proptests in
//! `crates/machine/tests/schema_roundtrip.rs`).
//!
//! # Drain directory
//!
//! A drained fleet leaves one file per unfinished job, named by its
//! zero-padded scheduler sequence number `NNNNNN`, so lexicographic order
//! is submission order:
//!
//! - `job-NNNNNN.ckpt` — a job stopped mid-run, in the [`Checkpoint::save`]
//!   format; resuming continues it from the captured engine state;
//! - `job-NNNNNN.spec.json` — a job that had not started, as
//!   [`JobSpec::to_json`]; resuming runs it from scratch, which is the same
//!   trajectory.
//!
//! Both are staged in a `.tmp` sibling and renamed into place, so a crash
//! mid-drain never leaves a torn file.
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::parallel::parallel_map_indexed;
//! use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
//! use saim_machine::EnsembleConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = QuboBuilder::new(3);
//! for i in 0..3 { b.add_linear(i, -1.0)?; }
//! let model = b.build();
//!
//! let solver = SolverSpec::Ensemble(EnsembleConfig {
//!     replicas: 2,
//!     mcs_per_run: 50,
//!     ..EnsembleConfig::default()
//! });
//! let specs: Vec<JobSpec> = (0..4u64)
//!     .map(|seed| JobSpec::new(seed, model.clone(), solver.clone(), seed))
//!     .collect();
//! let outcomes = parallel_map_indexed(specs.len(), 0, |i| specs[i].run()); // job order
//! assert!((outcomes[0].best_energy - (-3.0)).abs() < 1e-9);
//! // the wire form round-trips byte for byte
//! let json = outcomes[0].to_json();
//! assert_eq!(JobOutcome::from_json(&json)?.to_json(), json);
//! # Ok(())
//! # }
//! ```

use crate::checkpoint::{Checkpoint, CheckpointError, EngineState, OutcomeKind, RunController};
use crate::descent::GreedyDescent;
use crate::ensemble::{EnsembleAnnealer, EnsembleConfig};
use crate::pt::{ParallelTempering, PtConfig};
use crate::solver::SolveOutcome;
use saim_ising::{Qubo, SpinState};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

// ------------------------------------------------------------- wire schema

/// Version tag every [`JobSpec`]/[`JobOutcome`] carries. Bump on any field
/// change; parsers reject other versions with
/// [`SchemaError::VersionMismatch`] instead of guessing. Version 2 added
/// [`JobOutcome::outcome_kind`] (partial results from cancelled,
/// deadline-stopped, or checkpointed runs); version 3 added the
/// queue-depth and ETA fields to the front-end's `stats` frame (the spec
/// and outcome shapes are unchanged, but the whole protocol versions as
/// one unit).
pub const SCHEMA_VERSION: u32 = 3;

/// Which solver a job runs, with its full configuration. The seed lives on
/// the [`JobSpec`], not here, so one spec can be fanned out over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// A replica-ensemble annealing run ([`EnsembleAnnealer`]); the job is
    /// bit-identical to `EnsembleAnnealer::new(config, seed).solve(&model)`.
    Ensemble(EnsembleConfig),
    /// A parallel-tempering solve ([`ParallelTempering`]); bit-identical to
    /// `ParallelTempering::new(config, seed).solve(&model)`.
    Pt(PtConfig),
    /// Greedy single-flip descent ([`GreedyDescent`]); bit-identical to
    /// `GreedyDescent::new(seed).with_max_sweeps(max_sweeps).solve(&model)`.
    Descent {
        /// Cap on greedy sweeps before giving up (descent usually
        /// terminates much earlier at a 1-flip local optimum).
        max_sweeps: usize,
    },
}

/// A serialized job: everything a worker (local or remote) needs to produce
/// the deterministic [`JobOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Wire-schema version; always [`SCHEMA_VERSION`] for specs built here.
    pub schema: u32,
    /// Client-chosen job identifier, echoed verbatim in the outcome so
    /// completion-order streams can be re-associated.
    pub job: u64,
    /// Digest of the instance this model encodes (e.g.
    /// `QkpInstance::digest` from `saim-knapsack`); `0` when unknown. Lets
    /// a result store detect payload mix-ups without shipping instances.
    pub instance_digest: u64,
    /// Root seed of the job's RNG streams. Jobs never share streams: two
    /// specs with different seeds are fully independent, and the same spec
    /// replays bit-identically anywhere.
    pub seed: u64,
    /// Solver selection and configuration.
    pub solver: SolverSpec,
    /// The QUBO payload (converted with [`Qubo::to_ising`] at run time,
    /// which is itself deterministic).
    pub model: Qubo,
}

impl JobSpec {
    /// Builds a spec at the current [`SCHEMA_VERSION`] with no instance
    /// digest.
    pub fn new(job: u64, model: Qubo, solver: SolverSpec, seed: u64) -> Self {
        JobSpec {
            schema: SCHEMA_VERSION,
            job,
            instance_digest: 0,
            seed,
            solver,
            model,
        }
    }

    /// Attaches an instance digest (see [`JobSpec::instance_digest`]).
    pub fn with_instance_digest(mut self, digest: u64) -> Self {
        self.instance_digest = digest;
        self
    }

    /// Runs the job to completion on the calling thread: a direct call to
    /// [`JobSpec::run_controlled`] under [`RunController::unlimited`].
    /// Bit-identical to the direct engine call each [`SolverSpec`] documents.
    ///
    /// # Panics
    ///
    /// Panics if the solver configuration is invalid (the same conditions
    /// as constructing the solver directly). On a front-end worker the
    /// panic becomes the job's typed failure frame.
    pub fn run(&self) -> JobOutcome {
        self.run_controlled(&RunController::unlimited()).outcome
    }

    /// Runs the job under a [`RunController`]: the run can be cancelled,
    /// timed out, or stopped at a checkpoint, returning a partial
    /// [`JobOutcome`] (tagged via [`JobOutcome::outcome_kind`]) and — when
    /// checkpointed — the resumable [`Checkpoint`]. The one dispatch from a
    /// [`SolverSpec`] to a fresh engine run.
    pub fn run_controlled(&self, ctrl: &RunController) -> ControlledOutcome {
        let started = Instant::now();
        let model = self.model.to_ising();
        let (solved, status, engine) = match &self.solver {
            SolverSpec::Ensemble(config) => {
                let run = EnsembleAnnealer::new(*config, self.seed).solve_controlled(&model, ctrl);
                (
                    run.outcome,
                    run.status,
                    run.state.map(EngineState::Ensemble),
                )
            }
            SolverSpec::Pt(config) => {
                let run = ParallelTempering::new(*config, self.seed).solve_controlled(&model, ctrl);
                (run.outcome, run.status, run.state.map(EngineState::Pt))
            }
            SolverSpec::Descent { max_sweeps } => {
                let run = GreedyDescent::new(self.seed)
                    .with_max_sweeps(*max_sweeps)
                    .solve_controlled(&model, ctrl);
                (run.outcome, run.status, run.state.map(EngineState::Descent))
            }
        };
        ControlledOutcome {
            outcome: JobOutcome::new(self, &solved, started.elapsed()).with_outcome_kind(status),
            checkpoint: engine.map(|e| Box::new(Checkpoint::new(self.clone(), e))),
        }
    }

    /// Continues this job from a captured [`EngineState`] under a
    /// [`RunController`]. A resumed run that completes is bit-identical —
    /// same energies, states, and consumed RNG words — to one that was
    /// never interrupted; [`JobOutcome::mcs`] then reports the full
    /// schedule, not just the sweeps after the cut.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the engine state's variant does
    /// not match [`JobSpec::solver`] or its image fails the engine's
    /// validation (wrong model size, schedule position out of range, …).
    pub fn resume_controlled(
        &self,
        engine: &EngineState,
        ctrl: &RunController,
    ) -> Result<ControlledOutcome, CheckpointError> {
        let started = Instant::now();
        let model = self.model.to_ising();
        let (solved, status, engine) = match (&self.solver, engine) {
            (SolverSpec::Ensemble(config), EngineState::Ensemble(state)) => {
                let run = EnsembleAnnealer::new(*config, self.seed)
                    .resume_controlled(&model, state, ctrl)?;
                (
                    run.outcome,
                    run.status,
                    run.state.map(EngineState::Ensemble),
                )
            }
            (SolverSpec::Pt(config), EngineState::Pt(state)) => {
                let run = ParallelTempering::new(*config, self.seed)
                    .resume_controlled(&model, state, ctrl)?;
                (run.outcome, run.status, run.state.map(EngineState::Pt))
            }
            (SolverSpec::Descent { max_sweeps }, EngineState::Descent(state)) => {
                let run = GreedyDescent::new(self.seed)
                    .with_max_sweeps(*max_sweeps)
                    .resume_controlled(&model, state, ctrl)?;
                (run.outcome, run.status, run.state.map(EngineState::Descent))
            }
            _ => {
                return Err(CheckpointError::Malformed(
                    "engine state does not match the spec's solver selection".into(),
                ))
            }
        };
        Ok(ControlledOutcome {
            outcome: JobOutcome::new(self, &solved, started.elapsed()).with_outcome_kind(status),
            checkpoint: engine.map(|e| Box::new(Checkpoint::new(self.clone(), e))),
        })
    }

    /// Serializes to compact JSON with a fixed field order, so equal specs
    /// always yield identical bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// Strictly parses a spec from JSON.
    ///
    /// Strictness covers the envelope (top-level fields), the solver
    /// selection (variant tag and every solver-config field set), and the
    /// model's top-level fields; trees below that (the coupling matrix,
    /// the β schedule payload) are shape-validated by their deserializers,
    /// which reject missing or mistyped fields and unknown enum variants.
    /// The model must also hold the invariants [`Qubo::new`] keeps (`n × n`
    /// finite symmetric couplings, zero diagonal, `n` finite linear terms).
    ///
    /// # Errors
    ///
    /// [`SchemaError::Json`] on malformed JSON,
    /// [`SchemaError::VersionMismatch`] when `schema` ≠ [`SCHEMA_VERSION`]
    /// (checked first, so a future version's new fields read as a version
    /// problem), [`SchemaError::UnknownField`] on any unrecognized field
    /// at the strict depths above, and [`SchemaError::Malformed`] on
    /// missing fields, shape mismatches, or a model that breaks its
    /// invariants.
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        Self::from_value_strict(&parse_json(text)?)
    }

    /// [`JobSpec::from_json`] on an already-parsed [`Value`] — the network
    /// front-end embeds specs inside frame envelopes and must apply the
    /// identical strictness to the nested tree.
    pub(crate) fn from_value_strict(value: &Value) -> Result<Self, SchemaError> {
        check_version(value)?;
        check_known_fields(
            value,
            &[
                "schema",
                "job",
                "instance_digest",
                "seed",
                "solver",
                "model",
            ],
        )?;
        check_solver_fields(
            value
                .field("solver")
                .map_err(|e| SchemaError::Malformed(e.to_string()))?,
        )?;
        if let Ok(model) = value.field("model") {
            // Qubo's serde shape; the round-trip tests pin it, so drift in
            // saim-ising surfaces here rather than as silent acceptance
            check_known_fields(model, &["pairs", "linear", "offset"])?;
        }
        Ok(JobSpec {
            schema: SCHEMA_VERSION,
            job: parse_field(value, "job")?,
            instance_digest: parse_field(value, "instance_digest")?,
            seed: parse_field(value, "seed")?,
            solver: parse_field(value, "solver")?,
            model: parse_field(value, "model")?,
        })
    }
}

/// A serialized result: identifiers echoed from the spec plus everything
/// the solve produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Wire-schema version; always [`SCHEMA_VERSION`] for outcomes built
    /// here.
    pub schema: u32,
    /// The spec's job identifier, echoed.
    pub job: u64,
    /// The spec's instance digest, echoed.
    pub instance_digest: u64,
    /// How the run ended: [`OutcomeKind::Completed`] for a full solve, or
    /// the stop reason of a partial one (cancelled, past its deadline, or
    /// stopped at a checkpoint). Partial outcomes report the best-so-far
    /// and the in-progress state, with [`JobOutcome::mcs`] counting only
    /// the sweeps actually consumed.
    pub outcome_kind: OutcomeKind,
    /// Energy of the best state observed during the run.
    pub best_energy: f64,
    /// Energy of the final sample (what a hardware IM reads out).
    pub last_energy: f64,
    /// Monte Carlo sweeps consumed, summed over replicas.
    pub mcs: u64,
    /// Wall-clock nanoseconds the solve took on its worker. The **only**
    /// machine-dependent field — compare [`JobOutcome::canonical`] forms
    /// when checking determinism.
    pub elapsed_ns: u64,
    /// The lowest-energy state observed.
    pub best: SpinState,
    /// The final sample.
    pub last: SpinState,
}

impl JobOutcome {
    /// Assembles the outcome for `spec` from a solver's [`SolveOutcome`].
    /// Public so replay tests can build the direct-call oracle through the
    /// exact same constructor the job layer uses.
    pub fn new(spec: &JobSpec, solved: &SolveOutcome, elapsed: std::time::Duration) -> Self {
        JobOutcome {
            schema: SCHEMA_VERSION,
            job: spec.job,
            instance_digest: spec.instance_digest,
            outcome_kind: OutcomeKind::Completed,
            best_energy: solved.best_energy,
            last_energy: solved.last_energy,
            mcs: solved.mcs,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            best: solved.best.clone(),
            last: solved.last.clone(),
        }
    }

    /// The same outcome tagged with how its run actually ended (see
    /// [`JobOutcome::outcome_kind`]).
    pub fn with_outcome_kind(mut self, kind: OutcomeKind) -> Self {
        self.outcome_kind = kind;
        self
    }

    /// The terminal response for a job whose deadline passed **before any
    /// work started** — expired while still queued, shed at dequeue without
    /// spinning up an engine. [`JobOutcome::outcome_kind`] is
    /// [`OutcomeKind::DeadlineExceeded`] and [`JobOutcome::mcs`] is `0` (the
    /// marker distinguishing it from a run the deadline interrupted, which
    /// reports its partial best-so-far and the sweeps it consumed). The
    /// energy and state fields are placeholder zeros/empties — finite, so
    /// the outcome still serializes losslessly through the wire schema.
    pub fn expired(spec: &JobSpec) -> Self {
        JobOutcome {
            schema: SCHEMA_VERSION,
            job: spec.job,
            instance_digest: spec.instance_digest,
            outcome_kind: OutcomeKind::DeadlineExceeded,
            best_energy: 0.0,
            last_energy: 0.0,
            mcs: 0,
            elapsed_ns: 0,
            best: SpinState::from_values(&[]),
            last: SpinState::from_values(&[]),
        }
    }

    /// The outcome with its wall-clock timing zeroed — every remaining
    /// field is a pure function of the spec, so two canonical outcomes of
    /// the same job are equal (and serialize to identical bytes) no matter
    /// where or how they ran.
    pub fn canonical(&self) -> JobOutcome {
        JobOutcome {
            elapsed_ns: 0,
            ..self.clone()
        }
    }

    /// Serializes to compact JSON with a fixed field order.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("outcome serialization is infallible")
    }

    /// Strictly parses an outcome from JSON; same error contract as
    /// [`JobSpec::from_json`].
    ///
    /// # Errors
    ///
    /// See [`JobSpec::from_json`].
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        Self::from_value_strict(&parse_json(text)?)
    }

    /// [`JobOutcome::from_json`] on an already-parsed [`Value`]; see
    /// [`JobSpec::from_value_strict`].
    pub(crate) fn from_value_strict(value: &Value) -> Result<Self, SchemaError> {
        check_version(value)?;
        check_known_fields(
            value,
            &[
                "schema",
                "job",
                "instance_digest",
                "outcome_kind",
                "best_energy",
                "last_energy",
                "mcs",
                "elapsed_ns",
                "best",
                "last",
            ],
        )?;
        Ok(JobOutcome {
            schema: SCHEMA_VERSION,
            job: parse_field(value, "job")?,
            instance_digest: parse_field(value, "instance_digest")?,
            outcome_kind: parse_field(value, "outcome_kind")?,
            best_energy: parse_field(value, "best_energy")?,
            last_energy: parse_field(value, "last_energy")?,
            mcs: parse_field(value, "mcs")?,
            elapsed_ns: parse_field(value, "elapsed_ns")?,
            best: parse_field(value, "best")?,
            last: parse_field(value, "last")?,
        })
    }
}

/// Why a [`JobSpec`]/[`JobOutcome`] failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The input was not valid JSON.
    Json(String),
    /// The `schema` field did not match [`SCHEMA_VERSION`].
    VersionMismatch {
        /// The version the input declared.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
    /// The input carried a field this schema version does not define — at
    /// the envelope, the solver selection, or the model's top-level fields
    /// (strict parsing: silently dropping data a client sent is worse than
    /// rejecting the message).
    UnknownField(String),
    /// A required field was missing or had the wrong shape.
    Malformed(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Json(message) => write!(f, "invalid JSON: {message}"),
            SchemaError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "schema version {found} not supported (expected {expected})"
                )
            }
            SchemaError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            SchemaError::Malformed(message) => write!(f, "malformed payload: {message}"),
        }
    }
}

impl std::error::Error for SchemaError {}

pub(crate) fn parse_json(text: &str) -> Result<Value, SchemaError> {
    serde_json::parse_value_str(text).map_err(|e| SchemaError::Json(e.to_string()))
}

/// Reads and checks the `schema` field — before anything else, so inputs
/// from a different schema version surface as [`SchemaError::VersionMismatch`]
/// rather than as unknown-field or shape noise.
fn check_version(value: &Value) -> Result<(), SchemaError> {
    let field = value
        .field("schema")
        .map_err(|e| SchemaError::Malformed(e.to_string()))?;
    let found = u32::from_value(field).map_err(|e| SchemaError::Malformed(e.to_string()))?;
    if found != SCHEMA_VERSION {
        return Err(SchemaError::VersionMismatch {
            found,
            expected: SCHEMA_VERSION,
        });
    }
    Ok(())
}

/// Rejects any top-level field outside `known`.
pub(crate) fn check_known_fields(value: &Value, known: &[&str]) -> Result<(), SchemaError> {
    match value {
        Value::Object(fields) => {
            for (key, _) in fields {
                if !known.contains(&key.as_str()) {
                    return Err(SchemaError::UnknownField(key.clone()));
                }
            }
            Ok(())
        }
        other => Err(SchemaError::Malformed(format!(
            "expected object, found {}",
            other.kind()
        ))),
    }
}

/// Strict field-set check one level into the solver selection: the variant
/// tag must be known and its config payload must carry exactly the fields
/// this crate's solver configs define — a client's typo'd or misplaced
/// config field (say, `swap_interval` inside an `Ensemble` payload) must
/// not be dropped silently.
fn check_solver_fields(value: &Value) -> Result<(), SchemaError> {
    match value {
        Value::Object(fields) if fields.len() == 1 => {
            let (tag, inner) = &fields[0];
            match tag.as_str() {
                "Ensemble" => check_known_fields(
                    inner,
                    &[
                        "replicas",
                        "threads",
                        "batch_width",
                        "schedule",
                        "mcs_per_run",
                        "dynamics",
                    ],
                ),
                "Pt" => check_known_fields(
                    inner,
                    &[
                        "replicas",
                        "beta_min",
                        "beta_max",
                        "sweeps",
                        "swap_interval",
                        "threads",
                    ],
                ),
                "Descent" => check_known_fields(inner, &["max_sweeps"]),
                other => Err(SchemaError::Malformed(format!(
                    "unknown solver variant `{other}`"
                ))),
            }
        }
        other => Err(SchemaError::Malformed(format!(
            "expected single-variant solver object, found {}",
            other.kind()
        ))),
    }
}

pub(crate) fn parse_field<T: Deserialize>(value: &Value, name: &str) -> Result<T, SchemaError> {
    let field = value
        .field(name)
        .map_err(|e| SchemaError::Malformed(e.to_string()))?;
    T::from_value(field).map_err(|e| SchemaError::Malformed(format!("field `{name}`: {e}")))
}

// ------------------------------------------------ controlled execution & drain

/// A controlled execution's result: the (possibly partial) [`JobOutcome`]
/// plus — iff the run stopped at a checkpoint — the image that resumes it.
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The outcome, tagged with how the run ended via
    /// [`JobOutcome::outcome_kind`].
    pub outcome: JobOutcome,
    /// Present iff the run ended [`OutcomeKind::Checkpointed`]. Boxed:
    /// a full engine image dwarfs the outcome it rides with.
    pub checkpoint: Option<Box<Checkpoint>>,
}

/// What a worker executes: a fresh spec, or a checkpoint being resumed.
#[derive(Debug, Clone)]
pub enum SolverJob {
    /// Run the spec from the beginning of its schedule.
    Fresh(JobSpec),
    /// Continue the embedded spec from its captured engine state.
    Resume(Box<Checkpoint>),
}

impl SolverJob {
    /// The job's spec (for `Resume`, the one embedded in the checkpoint).
    pub fn spec(&self) -> &JobSpec {
        match self {
            SolverJob::Fresh(spec) => spec,
            SolverJob::Resume(checkpoint) => &checkpoint.spec,
        }
    }

    /// Executes the job under `ctrl` — the front-end's worker body.
    ///
    /// # Panics
    ///
    /// Panics when a `Resume` checkpoint's engine state does not fit its
    /// own embedded spec — possible only for hand-built checkpoints, since
    /// [`Checkpoint::load`] and the capture paths keep the pair consistent.
    /// On a front-end worker the panic becomes that job's typed failure
    /// frame; the fleet keeps serving.
    pub fn execute(&self, ctrl: &RunController) -> ControlledOutcome {
        // a job whose deadline already passed while it sat in the queue is
        // shed here, before any engine is constructed: it gets the typed
        // DeadlineExceeded terminal outcome a worker poll would eventually
        // have produced, at none of the spin-up cost
        if ctrl.check(0) == Some(OutcomeKind::DeadlineExceeded) {
            return ControlledOutcome {
                outcome: JobOutcome::expired(self.spec()),
                checkpoint: None,
            };
        }
        match self {
            SolverJob::Fresh(spec) => spec.run_controlled(ctrl),
            SolverJob::Resume(checkpoint) => checkpoint
                .spec
                .resume_controlled(&checkpoint.engine, ctrl)
                .unwrap_or_else(|e| panic!("checkpoint does not fit its embedded spec: {e}")),
        }
    }
}

/// Extracts a printable message from a caught panic payload — the text a
/// worker reports when [`SolverJob::execute`] panics.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_string()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

/// Reads a drain directory (see the [module docs](self)) back into jobs, in
/// the original submission order — the restart path of
/// [`Frontend::resume`](crate::frontend::Frontend::resume).
pub(crate) fn load_drain_dir(dir: &Path) -> Result<Vec<SolverJob>, CheckpointError> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CheckpointError::Io(e.to_string()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| CheckpointError::Io(e.to_string()))?;
    // zero-padded names: lexicographic order == submission order
    names.sort();
    let mut jobs = Vec::new();
    for path in names {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".ckpt") {
            jobs.push(SolverJob::Resume(Box::new(Checkpoint::load(&path)?)));
        } else if name.ends_with(".spec.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| CheckpointError::Io(e.to_string()))?;
            let spec =
                JobSpec::from_json(&text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
            jobs.push(SolverJob::Fresh(spec));
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BetaSchedule;
    use crate::solver::IsingSolver;
    use crate::Dynamics;
    use saim_ising::QuboBuilder;

    fn toy_model(n: usize) -> Qubo {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, -1.0).expect("index in range");
        }
        for i in 1..n {
            b.add_pair(i - 1, i, 0.5).expect("indices in range");
        }
        b.build()
    }

    fn small_ensemble() -> SolverSpec {
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            batch_width: 0,
            schedule: BetaSchedule::linear(6.0),
            mcs_per_run: 40,
            dynamics: Dynamics::Gibbs,
        })
    }

    fn small_pt() -> PtConfig {
        PtConfig {
            replicas: 3,
            sweeps: 50,
            threads: 1,
            ..PtConfig::default()
        }
    }

    /// One spec per solver kind, `job` identifier == index.
    fn mixed_specs(model: &Qubo) -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, model.clone(), small_ensemble(), 100).with_instance_digest(777),
            JobSpec::new(1, model.clone(), SolverSpec::Pt(small_pt()), 101),
            JobSpec::new(
                2,
                model.clone(),
                SolverSpec::Descent { max_sweeps: 100 },
                102,
            ),
        ]
    }

    #[test]
    fn run_matches_direct_engine_calls() {
        let model = toy_model(6);
        let ising = model.to_ising();
        for spec in mixed_specs(&model) {
            let direct = match &spec.solver {
                SolverSpec::Ensemble(config) => {
                    EnsembleAnnealer::new(*config, spec.seed).solve(&ising)
                }
                SolverSpec::Pt(config) => ParallelTempering::new(*config, spec.seed).solve(&ising),
                SolverSpec::Descent { max_sweeps } => GreedyDescent::new(spec.seed)
                    .with_max_sweeps(*max_sweeps)
                    .solve(&ising),
            };
            let oracle = JobOutcome::new(&spec, &direct, std::time::Duration::ZERO);
            let outcome = spec.run();
            assert_eq!(outcome.canonical(), oracle.canonical());
            assert_eq!(outcome.job, spec.job);
            assert_eq!(outcome.instance_digest, spec.instance_digest);
        }
    }

    #[test]
    fn spec_json_roundtrip_is_byte_stable() {
        let spec = JobSpec::new(9, toy_model(4), small_ensemble(), 1234).with_instance_digest(5);
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).expect("round-trips");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn outcome_json_roundtrip_is_byte_stable() {
        let spec = JobSpec::new(2, toy_model(3), small_ensemble(), 7);
        let outcome = spec.run();
        let json = outcome.to_json();
        let back = JobOutcome::from_json(&json).expect("round-trips");
        assert_eq!(back, outcome);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parser_rejects_unknown_fields_and_wrong_versions() {
        let spec = JobSpec::new(1, toy_model(2), SolverSpec::Descent { max_sweeps: 10 }, 3);
        let json = spec.to_json();

        let extra = json.replacen('{', "{\"surprise\":1,", 1);
        assert_eq!(
            JobSpec::from_json(&extra),
            Err(SchemaError::UnknownField("surprise".into()))
        );

        let wrong_version = json.replacen("\"schema\":3", "\"schema\":99", 1);
        assert_eq!(
            JobSpec::from_json(&wrong_version),
            Err(SchemaError::VersionMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            })
        );

        // a future version's unknown fields must read as a version problem
        let future = extra.replacen("\"schema\":3", "\"schema\":4", 1);
        assert_eq!(
            JobSpec::from_json(&future),
            Err(SchemaError::VersionMismatch {
                found: 4,
                expected: SCHEMA_VERSION
            })
        );

        assert!(matches!(
            JobSpec::from_json("{\"schema\":3}"),
            Err(SchemaError::Malformed(_))
        ));

        // strictness reaches into the solver config and the model header: a
        // typo'd or misplaced field there must not be dropped silently
        let ens_spec = JobSpec::new(1, toy_model(2), small_ensemble(), 3);
        let ens_json = ens_spec.to_json();
        let misplaced =
            ens_json.replacen("\"Ensemble\":{", "\"Ensemble\":{\"swap_interval\":5,", 1);
        assert_eq!(
            JobSpec::from_json(&misplaced),
            Err(SchemaError::UnknownField("swap_interval".into()))
        );
        let bogus_model = ens_json.replacen("\"model\":{", "\"model\":{\"bogus\":1,", 1);
        assert_eq!(
            JobSpec::from_json(&bogus_model),
            Err(SchemaError::UnknownField("bogus".into()))
        );
        assert!(matches!(
            JobSpec::from_json("not json"),
            Err(SchemaError::Json(_))
        ));
        assert!(matches!(
            JobSpec::from_json("[1,2]"),
            Err(SchemaError::Malformed(_))
        ));
    }

    #[test]
    fn execute_sheds_an_expired_deadline_without_engine_spinup() {
        let ctrl = RunController::unlimited()
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        // a spec whose engine construction would panic: if the shed ever
        // spins the engine up, this test fails with that panic
        let poisoned = JobSpec::new(
            9,
            toy_model(3),
            SolverSpec::Ensemble(EnsembleConfig {
                replicas: 0,
                ..EnsembleConfig::default()
            }),
            1,
        )
        .with_instance_digest(13);
        let run = SolverJob::Fresh(poisoned).execute(&ctrl);
        assert_eq!(run.outcome.outcome_kind, OutcomeKind::DeadlineExceeded);
        assert_eq!(run.outcome.job, 9);
        assert_eq!(run.outcome.instance_digest, 13);
        assert_eq!(run.outcome.mcs, 0, "no sweeps were consumed");
        assert!(run.checkpoint.is_none());
        // and the synthesized outcome survives the wire schema losslessly
        let text = run.outcome.to_json();
        assert_eq!(
            JobOutcome::from_json(&text).expect("round-trips"),
            run.outcome
        );
    }

    #[test]
    fn execute_with_an_idle_controller_matches_run() {
        for spec in mixed_specs(&toy_model(6)) {
            let run = SolverJob::Fresh(spec.clone()).execute(&RunController::unlimited());
            assert_eq!(run.outcome.outcome_kind, OutcomeKind::Completed);
            assert!(run.checkpoint.is_none());
            assert_eq!(run.outcome.canonical(), spec.run().canonical());
        }
    }

    #[test]
    fn execute_under_a_cancelled_controller_returns_partial_outcomes() {
        // cancelled before anything runs: every job stops at its entry
        // check with zero sweeps consumed
        let ctrl = RunController::unlimited();
        ctrl.request_cancel();
        for spec in mixed_specs(&toy_model(6)).into_iter().take(2) {
            let run = SolverJob::Fresh(spec).execute(&ctrl);
            assert_eq!(run.outcome.outcome_kind, OutcomeKind::Cancelled);
            assert!(run.checkpoint.is_none(), "cancel does not capture state");
            assert_eq!(run.outcome.mcs, 0);
            assert!(run.outcome.best_energy.is_finite());
            assert!(run.outcome.best_energy <= run.outcome.last_energy);
        }
    }
}
