//! Property tests of the job wire schema: `serialize → parse →
//! re-serialize` must be byte-stable for arbitrary specs and outcomes —
//! including degenerate instances (n = 0/1, no quadratic terms) — and
//! strict parsing must reject unknown fields and version mismatches with
//! the right typed error.

use proptest::prelude::*;
use saim_ising::{BinaryState, Qubo, QuboBuilder, SpinState};
use saim_machine::service::{JobOutcome, JobSpec, SchemaError, SolverSpec, SCHEMA_VERSION};
use saim_machine::{BetaSchedule, Dynamics, EnsembleConfig, OutcomeKind, PtConfig};

/// Scrubs the one float value whose JSON round-trip is not byte-stable:
/// `-0.0` prints as `-0` but parses back as the integer `0`.
fn definite(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// A small random QUBO, including the degenerate shapes n = 0 and n = 1
/// (which necessarily have no quadratic terms — the "empty synergies"
/// edge of the knapsack encodings).
fn arb_qubo() -> impl Strategy<Value = Qubo> {
    (0usize..6).prop_flat_map(|n| {
        let pairs = if n >= 2 {
            proptest::collection::vec(((0..n, 0..n), -2.0..2.0f64), 0..8).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        let linear = proptest::collection::vec(-2.0..2.0f64, n);
        (pairs, linear, -1.0..1.0f64).prop_map(move |(pairs, linear, offset)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, definite(v)).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, definite(v)).expect("index in range");
            }
            b.add_offset(definite(offset));
            b.build()
        })
    })
}

/// One of the three solver kinds with small but arbitrary configurations.
fn arb_solver() -> impl Strategy<Value = SolverSpec> {
    (
        0usize..3,
        1usize..5,    // replicas (ensemble) / extra replicas (pt)
        0usize..3,    // threads
        1usize..60,   // sweeps
        0.5..12.0f64, // beta_max
        1usize..12,   // swap interval / batch width
    )
        .prop_map(
            |(kind, replicas, threads, sweeps, beta_max, aux)| match kind {
                0 => SolverSpec::Ensemble(EnsembleConfig {
                    replicas,
                    threads,
                    batch_width: aux % 4,
                    schedule: BetaSchedule::linear(definite(beta_max)),
                    mcs_per_run: sweeps,
                    dynamics: if sweeps % 2 == 0 {
                        Dynamics::Gibbs
                    } else {
                        Dynamics::Metropolis
                    },
                }),
                1 => SolverSpec::Pt(PtConfig {
                    replicas: replicas + 1,
                    beta_min: 0.05,
                    beta_max: definite(beta_max),
                    sweeps,
                    swap_interval: aux,
                    threads,
                }),
                _ => SolverSpec::Descent {
                    max_sweeps: sweeps * 10,
                },
            },
        )
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        arb_qubo(),
        arb_solver(),
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    )
        .prop_map(|(model, solver, job, digest, seed)| {
            JobSpec::new(job, model, solver, seed).with_instance_digest(digest)
        })
}

/// An arbitrary outcome built directly (running solvers per case would
/// dominate the test's runtime without exercising the schema any harder).
fn arb_outcome() -> impl Strategy<Value = JobOutcome> {
    (0usize..6).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec(0u8..2u8, n),
                proptest::collection::vec(0u8..2u8, n),
            ),
            (-50.0..50.0f64, -50.0..50.0f64),
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        )
            .prop_map(
                |((best_bits, last_bits), (best_energy, last_energy), (job, mcs, elapsed))| {
                    JobOutcome {
                        schema: SCHEMA_VERSION,
                        job,
                        instance_digest: job.wrapping_mul(3),
                        // partial-result kinds must survive the wire, too
                        outcome_kind: match job % 4 {
                            0 => OutcomeKind::Completed,
                            1 => OutcomeKind::Cancelled,
                            2 => OutcomeKind::DeadlineExceeded,
                            _ => OutcomeKind::Checkpointed,
                        },
                        best_energy: definite(best_energy),
                        last_energy: definite(last_energy),
                        mcs,
                        elapsed_ns: elapsed,
                        best: BinaryState::from_bits(&best_bits).to_spins(),
                        last: BinaryState::from_bits(&last_bits).to_spins(),
                    }
                },
            )
    })
}

proptest! {
    /// serialize → parse → re-serialize is byte-stable for specs, and the
    /// parsed struct equals the original.
    #[test]
    fn spec_roundtrip_is_byte_stable(spec in arb_spec()) {
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).expect("round-trips");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json);
    }

    /// The same byte-stability for outcomes.
    #[test]
    fn outcome_roundtrip_is_byte_stable(outcome in arb_outcome()) {
        let json = outcome.to_json();
        let back = JobOutcome::from_json(&json).expect("round-trips");
        prop_assert_eq!(&back, &outcome);
        prop_assert_eq!(back.to_json(), json);
    }

    /// An extra top-level field — whatever the rest of the payload — is
    /// rejected with the typed unknown-field error.
    #[test]
    fn unknown_fields_are_rejected(spec in arb_spec(), outcome in arb_outcome()) {
        let spec_extra = spec.to_json().replacen('{', "{\"zzz\":0,", 1);
        prop_assert_eq!(
            JobSpec::from_json(&spec_extra),
            Err(SchemaError::UnknownField("zzz".into()))
        );
        let outcome_extra = outcome.to_json().replacen('{', "{\"zzz\":0,", 1);
        prop_assert_eq!(
            JobOutcome::from_json(&outcome_extra),
            Err(SchemaError::UnknownField("zzz".into()))
        );
    }

    /// Any schema version other than the current one is rejected with the
    /// typed version error — even when the rest of the payload is valid.
    #[test]
    fn version_mismatches_are_rejected(spec in arb_spec(), version in 0u32..1000) {
        prop_assume!(version != SCHEMA_VERSION);
        let mut wrong = spec;
        wrong.schema = version;
        prop_assert_eq!(
            JobSpec::from_json(&wrong.to_json()),
            Err(SchemaError::VersionMismatch { found: version, expected: SCHEMA_VERSION })
        );
    }
}

#[test]
fn degenerate_models_roundtrip_exactly() {
    // n = 0 (empty model) and n = 1 (no possible synergies) — the smallest
    // payloads a front-end could legally submit
    for n in [0usize, 1] {
        let mut b = QuboBuilder::new(n);
        if n == 1 {
            b.add_linear(0, -1.5).expect("index in range");
        }
        let spec = JobSpec::new(1, b.build(), SolverSpec::Descent { max_sweeps: 5 }, 2);
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).expect("round-trips");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn empty_state_outcome_roundtrips() {
    let outcome = JobOutcome {
        schema: SCHEMA_VERSION,
        job: 0,
        instance_digest: 0,
        outcome_kind: OutcomeKind::Completed,
        best_energy: 0.0,
        last_energy: 0.0,
        mcs: 0,
        elapsed_ns: 0,
        best: SpinState::all_up(0),
        last: SpinState::all_up(0),
    };
    let json = outcome.to_json();
    let back = JobOutcome::from_json(&json).expect("round-trips");
    assert_eq!(back, outcome);
    assert_eq!(back.to_json(), json);
}
