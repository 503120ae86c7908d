//! The `--stdio` face of `saim-server`: one protocol session over
//! stdin/stdout. Its end-of-input rule differs from a TCP session's: a TCP
//! client's EOF disconnects it and cancels its work, while closing stdin
//! waits for every accepted job to settle and only then exits.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use saim_ising::QuboBuilder;
use saim_machine::frontend::{Request, Response};
use saim_machine::service::{JobSpec, SolverSpec};
use saim_machine::EnsembleConfig;

/// A job slow enough to still be queued or running when stdin closes.
fn slow_spec(job: u64) -> JobSpec {
    let mut b = QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    b.add_pair(0, 1, 0.5).expect("indices in range");
    JobSpec::new(
        job,
        b.build(),
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            mcs_per_run: 200_000,
            ..EnsembleConfig::default()
        }),
        job + 7,
    )
}

#[test]
fn stdin_eof_waits_for_every_accepted_job_then_exits() {
    let specs = [slow_spec(1), slow_spec(2)];
    let mut child = Command::new(env!("CARGO_BIN_EXE_saim-server"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("saim-server starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut input = Request::Hello { weight: 2 }.to_line() + "\n";
    for spec in &specs {
        // a blank line between frames is skipped, as on a TCP session
        input += "\n";
        input += &Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        }
        .to_line();
        input += "\n";
    }
    stdin.write_all(input.as_bytes()).expect("write frames");
    drop(stdin); // EOF

    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut accepted = Vec::new();
    let mut outcomes = HashMap::new();
    for line in stdout.lines() {
        match Response::from_line(&line.expect("stdout line")).expect("a protocol frame") {
            Response::Accepted { job } => accepted.push(job),
            Response::Outcome { outcome } => {
                assert!(accepted.contains(&outcome.job), "outcome before its accept");
                assert!(outcomes.insert(outcome.job, outcome).is_none());
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(child.wait().expect("saim-server exits").success());
    assert_eq!(accepted, vec![1, 2]);
    for spec in &specs {
        let outcome = outcomes.get(&spec.job).expect("every accepted job settles");
        assert_eq!(outcome.canonical(), spec.run().canonical());
    }
}
