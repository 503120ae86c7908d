//! Frame-fuzz property tests: arbitrary byte-level corruption of valid
//! wire frames — truncations, byte replacements, insertions, deletions,
//! and outright garbage — must always land on a typed error
//! ([`SchemaError`] for the spec/outcome schema, [`FrameError`] for the
//! front-end protocol), never a panic. This is the contract that lets the
//! server parse untrusted sockets inside the accept path with no
//! `catch_unwind` around the parser. Models that parse as JSON but break
//! the model invariants (shape, symmetry, diagonal, finiteness) are
//! rejected there too, with the `malformed` code.

use proptest::prelude::*;
use saim_ising::QuboBuilder;
use saim_machine::frontend::{
    ClientHandle, FrameError, Frontend, FrontendConfig, Request, Response, MAX_FRAME_BYTES,
};
use saim_machine::service::{JobOutcome, JobSpec, SchemaError, SolverSpec};
use saim_machine::ClientStats;
use std::time::{Duration, Instant};

/// A small but real spec: enough structure that mutations can land inside
/// nested objects, arrays, floats, and string literals.
fn sample_spec(job: u64, seed: u64, n: usize) -> JobSpec {
    let mut b = QuboBuilder::new(n);
    for i in 0..n {
        b.add_linear(i, -1.0 - i as f64 / 4.0)
            .expect("index in range");
    }
    for i in 1..n {
        b.add_pair(0, i, 0.5).expect("indices in range");
    }
    JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 8 }, seed)
        .with_instance_digest(job.wrapping_mul(0x9E37))
}

/// One byte-level corruption of a frame.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(usize),
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..4096, 0u8..=255u8).prop_map(|(kind, i, b)| match kind {
        0 => Mutation::Truncate(i),
        1 => Mutation::Replace(i, b),
        2 => Mutation::Insert(i, b),
        _ => Mutation::Delete(i),
    })
}

/// Applies `mutations` to `line`'s bytes; indices wrap into the current
/// length so every generated mutation lands somewhere.
fn corrupt(line: &str, mutations: &[Mutation]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for m in mutations {
        if bytes.is_empty() {
            break;
        }
        match *m {
            Mutation::Truncate(i) => bytes.truncate(i % bytes.len()),
            Mutation::Replace(i, b) => {
                let i = i % bytes.len();
                bytes[i] = b;
            }
            Mutation::Insert(i, b) => bytes.insert(i % (bytes.len() + 1), b),
            Mutation::Delete(i) => {
                let i = i % bytes.len();
                bytes.remove(i);
            }
        }
    }
    // the TCP reader hands the parser lossily-decoded text, so invalid
    // UTF-8 produced by a mutation exercises the same path here
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The five frame producers under test, by index.
fn frame_line(kind: usize, job: u64, seed: u64, n: usize) -> String {
    let spec = sample_spec(job, seed, n);
    match kind {
        0 => spec.to_json(),
        1 => spec.run().to_json(),
        2 => Request::Submit {
            spec,
            priority: (seed % 4) as u8,
            deadline_ms: if seed.is_multiple_of(2) {
                None
            } else {
                Some(seed)
            },
        }
        .to_line(),
        3 => Response::Outcome {
            outcome: spec.run(),
        }
        .to_line(),
        _ => Response::Stats {
            client: sample_stats(seed),
            fleet: sample_stats(seed.rotate_left(13)),
            queue_depth: seed % 512,
            eta_ms: seed.rotate_right(7) % 100_000,
        }
        .to_line(),
    }
}

/// Deterministic nonzero tallies so mutations land on real digits.
fn sample_stats(seed: u64) -> ClientStats {
    ClientStats {
        accepted: seed % 97,
        rejected: seed % 13,
        completed: seed % 89,
        failed: seed % 7,
        cancelled: seed % 5,
        expired: seed % 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Corrupted spec/outcome JSON parses to `Ok` (when the mutation was
    /// immaterial) or a typed `SchemaError` — reaching the assertion at
    /// all proves no panic escaped the parser.
    #[test]
    fn corrupted_schema_json_never_panics(
        job in 0u64..1000,
        seed in 0u64..=u64::MAX,
        n in 1usize..5,
        mutations in proptest::collection::vec(arb_mutation(), 1..8),
    ) {
        let spec_line = corrupt(&frame_line(0, job, seed, n), &mutations);
        let outcome_line = corrupt(&frame_line(1, job, seed, n), &mutations);
        let spec_parse = JobSpec::from_json(&spec_line);
        let outcome_parse = JobOutcome::from_json(&outcome_line);
        prop_assert!(spec_parse.is_ok() || spec_parse.is_err());
        prop_assert!(outcome_parse.is_ok() || outcome_parse.is_err());
    }

    /// Corrupted protocol frames parse to `Ok` or a typed `FrameError`;
    /// the error's wire code is always one of the documented rejection
    /// codes, so a client can dispatch on it.
    #[test]
    fn corrupted_protocol_frames_earn_documented_codes(
        kind in 2usize..5,
        job in 0u64..1000,
        seed in 0u64..=u64::MAX,
        n in 1usize..5,
        mutations in proptest::collection::vec(arb_mutation(), 1..8),
    ) {
        let line = corrupt(&frame_line(kind, job, seed, n), &mutations);
        let parsed = if kind == 2 {
            Request::from_line(&line).map(|_| ())
        } else {
            Response::from_line(&line).map(|_| ())
        };
        if let Err(error) = parsed {
            let documented = [
                "oversized", "json", "version", "unknown_field",
                "malformed", "unknown_frame", "unknown_job",
            ];
            prop_assert!(
                documented.contains(&error.code()),
                "undocumented rejection code {:?} for line {line:?}",
                error.code()
            );
        }
    }

    /// Unmutated frames still round-trip after the harness plumbing —
    /// guards the fuzzers themselves against testing a broken producer.
    #[test]
    fn pristine_frames_roundtrip(
        job in 0u64..1000,
        seed in 0u64..=u64::MAX,
        n in 1usize..5,
    ) {
        let spec = sample_spec(job, seed, n);
        prop_assert_eq!(
            JobSpec::from_json(&spec.to_json()).expect("valid"),
            spec.clone()
        );
        let submit = Request::Submit { spec, priority: 0, deadline_ms: None };
        prop_assert_eq!(
            Request::from_line(&submit.to_line()).expect("valid"),
            submit
        );
        let stats = Response::Stats {
            client: sample_stats(seed),
            fleet: sample_stats(seed.rotate_left(13)),
            queue_depth: seed % 512,
            eta_ms: seed.rotate_right(7) % 100_000,
        };
        prop_assert_eq!(
            Response::from_line(&stats.to_line()).expect("valid"),
            stats
        );
    }

    /// Raw garbage bytes — not derived from any valid frame — also land on
    /// typed errors.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255u8, 0..256)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = JobSpec::from_json(&line);
        let _ = JobOutcome::from_json(&line);
        let _ = Request::from_line(&line);
        let _ = Response::from_line(&line);
        // reaching here is the property: no panic for any input
        let _ = FrameError::UnknownFrame(String::new()).code();
    }
}

/// Nesting far past the parser's depth cap, inside the 1 MiB frame cap.
/// Each line must earn the ordinary `json` rejection. Without the cap the
/// parser recursed once per `[` and overflowed the stack of the spawned
/// connection-reader thread, aborting the whole process.
#[test]
fn deep_nesting_lands_on_the_json_code() {
    let frame_cap = FrontendConfig::default().max_frame_bytes;
    let brackets = "[".repeat(100_000);
    let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
    for line in [brackets, objects] {
        assert!(line.len() <= frame_cap, "{} bytes", line.len());
        // parsed on a spawned thread, as the TCP reader does
        let code = std::thread::spawn(move || {
            Request::from_line(&line)
                .expect_err("too deep to be a frame")
                .code()
        })
        .join()
        .expect("the parser returned instead of overflowing the stack");
        assert_eq!(code, "json");
    }
}

/// Submits a valid job on `client` and checks that it completes
/// bit-identically to running its spec directly.
fn serves_a_valid_job(client: &ClientHandle) {
    let spec = sample_spec(5, 9, 4);
    client.submit(spec.clone(), 0, None);
    assert_eq!(client.recv(), Some(Response::Accepted { job: 5 }));
    match client.recv() {
        Some(Response::Outcome { outcome }) => {
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        other => panic!("expected the job's outcome, got {other:?}"),
    }
}

/// After a too-deep line is rejected, the same session still completes a
/// valid job bit-identically.
#[test]
fn a_session_survives_a_too_deep_line() {
    let frontend = Frontend::start(FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    });
    let client = frontend.connect();
    assert!(!client.send_line(&"[".repeat(100_000)));
    match client.recv() {
        Some(Response::Rejected { code, .. }) => assert_eq!(code, "json"),
        other => panic!("expected a json rejection, got {other:?}"),
    }
    serves_a_valid_job(&client);
}

/// Specs whose model lies about its shape or breaks the invariants
/// `Qubo::new` and `SymmetricMatrix::set` keep, each as bare spec JSON and
/// as a submit frame. Each must be rejected at ingest: the first two used
/// to panic in `Qubo::to_ising` on a worker, the third used to be solved as
/// if it were a valid model.
fn hostile_models() -> Vec<(String, String)> {
    let lie = |spec: &JobSpec, field: &str, payload: String, replacement: &str| {
        let json = spec.to_json();
        let needle = format!("\"{field}\":{payload}");
        assert!(json.contains(&needle), "{needle} not in {json}");
        let hostile = json.replacen(&needle, &format!("\"{field}\":{replacement}"), 1);
        let line = Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        }
        .to_line();
        assert!(line.contains(&json), "the frame embeds the spec verbatim");
        let line = line.replacen(&json, &hostile, 1);
        (hostile, line)
    };
    let text = |v: Result<String, _>| v.expect("serializable");
    let three = sample_spec(1, 2, 3);
    let two = sample_spec(3, 4, 2);
    vec![
        // 2 entries for a 3 × 3 matrix
        lie(
            &three,
            "pairs",
            text(serde_json::to_string(three.model.pairs())),
            r#"{"n":3,"data":[0.0,1.0]}"#,
        ),
        // 2 linear terms for 3 variables
        lie(
            &three,
            "linear",
            text(serde_json::to_string(three.model.linear())),
            "[-1.0,-1.25]",
        ),
        // asymmetric, with a non-zero diagonal
        lie(
            &two,
            "pairs",
            text(serde_json::to_string(two.model.pairs())),
            r#"{"n":2,"data":[5.0,1.0,-3.0,0.0]}"#,
        ),
    ]
}

#[test]
fn hostile_models_land_on_the_malformed_code() {
    for (spec, line) in hostile_models() {
        assert!(
            matches!(JobSpec::from_json(&spec), Err(SchemaError::Malformed(_))),
            "{spec}"
        );
        let error = Request::from_line(&line).expect_err("not a valid model");
        assert_eq!(error.code(), "malformed", "{line}");
    }
}

/// After each hostile model is rejected, the same session still completes a
/// valid job bit-identically, and no hostile job was ever admitted.
#[test]
fn a_session_survives_hostile_models() {
    let frontend = Frontend::start(FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    });
    let client = frontend.connect();
    for (_, line) in hostile_models() {
        assert!(!client.send_line(&line));
        match client.recv() {
            Some(Response::Rejected { code, .. }) => assert_eq!(code, "malformed"),
            other => panic!("expected a malformed rejection, got {other:?}"),
        }
    }
    serves_a_valid_job(&client);
    let fleet = frontend.fleet_stats();
    assert_eq!((fleet.accepted, fleet.completed, fleet.failed), (1, 1, 0));
}

/// Lines of one shape, sized `units` repetitions long: one long string in
/// the `frame` tag, and an array of one-character strings. Each shape's
/// rejection code does not depend on its size.
fn string_heavy_lines(units: usize) -> [(String, &'static str); 2] {
    [
        (
            format!("{{\"schema\":3,\"frame\":\"{}\"}}", "a".repeat(units)),
            "unknown_frame",
        ),
        (format!("[{}\"a\"]", "\"a\",".repeat(units)), "malformed"),
    ]
}

/// String-heavy lines just under the frame cap are rejected within 2 s, with
/// the code a short line of the same shape earns, and the session then still
/// completes a valid job bit-identically. A parser that re-scans the rest of
/// the line for each string character spends seconds to tens of seconds of
/// CPU on each of these lines, on a thread that serves a client.
#[test]
fn a_session_survives_cap_sized_string_lines() {
    let frontend = Frontend::start(FrontendConfig {
        workers: 1,
        ..FrontendConfig::default()
    });
    let client = frontend.connect();
    // each shape sized to just under the cap
    let [long_string, _] = string_heavy_lines(MAX_FRAME_BYTES - 24);
    let [_, long_array] = string_heavy_lines((MAX_FRAME_BYTES - 5) / 4);
    for (line, code) in string_heavy_lines(4)
        .into_iter()
        .chain([long_string, long_array])
    {
        assert!(line.len() < MAX_FRAME_BYTES, "{} bytes", line.len());
        let started = Instant::now();
        assert!(!client.send_line(&line));
        match client.recv() {
            Some(Response::Rejected { code: got, .. }) => assert_eq!(got, code),
            other => panic!("expected a {code} rejection, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "a {}-byte line took {took:?} to reject",
            line.len()
        );
    }
    serves_a_valid_job(&client);
}
