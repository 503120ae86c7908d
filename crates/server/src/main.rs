//! `saim-server` — the NDJSON network front-end binary over the
//! `saim-machine` job pool (`frontend::Frontend`).
//!
//! The binary is a thin shell: every scheduling, framing, and
//! fault-tolerance decision lives in [`saim_machine::frontend`] where it is
//! unit-tested without sockets. What this file adds is deployment glue:
//!
//! - a TCP listener speaking the NDJSON protocol (one session per
//!   connection),
//! - a stdin admin channel — `shutdown` drains every queued and running job
//!   into the checkpoint drain layout and exits; `stats` prints fleet
//!   counters as JSON; closing stdin is treated as `shutdown` (the SIGTERM
//!   analog available without signal-handler dependencies),
//! - `--resume DIR` to continue a drained fleet bit-identically, streaming
//!   the recovered outcomes to stdout,
//! - `--stdio` to speak the protocol over stdin/stdout instead of serving
//!   TCP (for harnesses that pipe frames), and
//! - `--smoke` — a self-contained loopback round-trip used by CI: submit a
//!   job over a real socket, verify the outcome is bit-identical to a
//!   direct in-process run, and verify a malformed frame and a shape-lie
//!   model each earn a typed rejection on a connection that keeps serving.
//!
//! Run `saim-server --help` for the flag list.

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use saim_ising::QuboBuilder;
use saim_machine::frontend::{
    Backoff, ClientHandle, Frontend, FrontendConfig, NdjsonClient, Request, Response,
};
use saim_machine::service::{JobSpec, SolverSpec};

const USAGE: &str = "\
saim-server: NDJSON job server for the SAIM solver fleet

USAGE:
    saim-server [OPTIONS]

OPTIONS:
    --listen ADDR       TCP address to serve (default 127.0.0.1:7878)
    --workers N         worker threads; 0 = all cores (default 0)
    --max-queued N      fleet-wide admission budget (default 256)
    --drain-dir PATH    where `shutdown` persists unfinished jobs
                        (default saim-drain)
    --resume            load PATH's drained jobs before serving and stream
                        their outcomes to stdout
    --stdio             speak the NDJSON protocol on stdin/stdout instead
                        of TCP (one session, exits when stdin closes)
    --smoke             run a loopback self-test and exit (CI hook)
    --help              print this text

ADMIN (stdin, TCP mode):
    shutdown            drain to --drain-dir and exit; closing stdin does
                        the same
    stats               print fleet counters as JSON
";

struct Options {
    listen: String,
    workers: usize,
    max_queued: usize,
    drain_dir: PathBuf,
    resume: bool,
    stdio: bool,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: "127.0.0.1:7878".into(),
            workers: 0,
            max_queued: 256,
            drain_dir: PathBuf::from("saim-drain"),
            resume: false,
            stdio: false,
            smoke: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--max-queued" => {
                let n: usize = value("--max-queued")?
                    .parse()
                    .map_err(|_| "--max-queued needs an integer".to_string())?;
                if n == 0 {
                    return Err("--max-queued must be positive".into());
                }
                opts.max_queued = n;
            }
            "--drain-dir" => opts.drain_dir = PathBuf::from(value("--drain-dir")?),
            "--resume" => opts.resume = true,
            "--stdio" => opts.stdio = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn config_of(opts: &Options) -> FrontendConfig {
    FrontendConfig {
        workers: opts.workers,
        max_queued: opts.max_queued,
        ..FrontendConfig::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("saim-server: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.smoke {
        run_smoke(&opts)
    } else if opts.stdio {
        run_stdio(&opts)
    } else {
        run_server(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("saim-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Starts the fleet — resuming a drain directory when asked — and returns
/// the frontend plus the recovery handle's response stream, already being
/// forwarded to stdout by a background thread.
fn start_fleet(opts: &Options) -> Result<Frontend, String> {
    if opts.resume {
        let (frontend, recovery) = Frontend::resume(config_of(opts), &opts.drain_dir)
            .map_err(|e| format!("cannot resume {}: {e}", opts.drain_dir.display()))?;
        eprintln!(
            "saim-server: resumed drained jobs from {}",
            opts.drain_dir.display()
        );
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            while let Some(response) = recovery.recv() {
                let mut out = stdout.lock();
                let _ = writeln!(out, "{}", response.to_line());
                let _ = out.flush();
            }
        });
        Ok(frontend)
    } else {
        Ok(Frontend::start(config_of(opts)))
    }
}

/// TCP mode: serve connections and run the stdin admin loop until
/// `shutdown` (or stdin EOF) drains the fleet.
fn run_server(opts: &Options) -> Result<(), String> {
    let frontend = start_fleet(opts)?;
    let listener =
        TcpListener::bind(&opts.listen).map_err(|e| format!("cannot bind {}: {e}", opts.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "saim-server: listening on {addr} with {} workers",
        frontend.workers()
    );
    let serving = frontend.serve(listener);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match line.trim() {
            "" => {}
            "shutdown" => break,
            "stats" => {
                let stats = serde_json::to_string(&frontend.fleet_stats())
                    .expect("stats serialize to finite JSON");
                println!("{stats}");
            }
            other => {
                // the admin channel answers in frames too: a typed error
                // line a wrapping supervisor can parse, never a silent drop
                let error = Response::Rejected {
                    code: "unknown_admin".into(),
                    error: format!("unknown admin command {other:?} (try `shutdown` or `stats`)"),
                };
                println!("{}", error.to_line());
            }
        }
    }
    // `shutdown` typed, or stdin closed under us: drain either way.
    let report = frontend
        .shutdown_to(&opts.drain_dir)
        .map_err(|e| format!("drain failed: {e}"))?;
    let _ = serving.join();
    eprintln!(
        "saim-server: drained to {} ({} checkpointed mid-run, {} still queued)",
        opts.drain_dir.display(),
        report.checkpointed,
        report.pending
    );
    Ok(())
}

/// Stdio mode: one protocol session over stdin/stdout. A pump thread owns
/// the client handle, forwarding stdin frames in and responses out; after
/// stdin closes it waits for every accepted job to settle before exiting.
fn run_stdio(opts: &Options) -> Result<(), String> {
    let frontend = start_fleet(opts)?;
    let handle = frontend.connect();
    let (line_tx, line_rx) = mpsc::channel::<String>();
    let pump = std::thread::spawn(move || pump_session(handle, &line_rx));
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line_tx.send(line).is_err() {
            break;
        }
    }
    drop(line_tx);
    pump.join()
        .map_err(|_| "session pump panicked".to_string())?;
    drop(frontend);
    Ok(())
}

/// The stdio session pump: interleaves forwarding request lines with
/// draining response frames, then settles the tail after EOF.
fn pump_session(handle: ClientHandle, lines: &mpsc::Receiver<String>) {
    let stdout = std::io::stdout();
    let emit = |response: Response| {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{}", response.to_line());
        let _ = out.flush();
    };
    loop {
        while let Some(response) = handle.try_recv() {
            emit(response);
        }
        match lines.recv_timeout(Duration::from_millis(10)) {
            Ok(line) => {
                handle.send_line(&line);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // stdin is gone; deliver every outstanding terminal response before
    // exiting so piped harnesses never lose accepted jobs.
    loop {
        handle.send(Request::Stats);
        let mut in_flight = None;
        while in_flight.is_none() {
            match handle.recv_timeout(Duration::from_secs(30)) {
                Some(Response::Stats { client, .. }) => in_flight = Some(client.in_flight()),
                Some(response) => emit(response),
                None => return,
            }
        }
        if in_flight == Some(0) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The CI smoke test: a full loopback round-trip plus typed-rejection
/// checks (malformed frame, shape-lie model), self-contained in one process.
fn run_smoke(opts: &Options) -> Result<(), String> {
    let spec = smoke_spec();
    let expected = spec.run().canonical();

    let frontend = Frontend::start(config_of(opts));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let serving = frontend.serve(listener);

    let mut client = NdjsonClient::connect(&addr.to_string()).map_err(|e| e.to_string())?;
    client
        .send(&Request::Hello { weight: 1 })
        .map_err(|e| e.to_string())?;
    let mut backoff = Backoff::new(1, 5, 100);
    let response = client
        .submit_retrying(&spec, 0, None, &mut backoff, 16)
        .map_err(|e| e.to_string())?;
    if !matches!(response, Response::Accepted { job: 1 }) {
        return Err(format!("expected acceptance, got {response:?}"));
    }
    match client.recv().map_err(|e| e.to_string())? {
        Response::Outcome { outcome } if outcome.canonical() == expected => {}
        other => return Err(format!("loopback outcome diverged: {other:?}")),
    }

    client
        .send_raw(b"{malformed\n")
        .map_err(|e| e.to_string())?;
    match client.recv().map_err(|e| e.to_string())? {
        Response::Rejected { code, .. } if code == "json" => {}
        other => return Err(format!("expected a typed json rejection, got {other:?}")),
    }

    // a model that lies about its shape is rejected at ingest, and the
    // same connection then serves the honest frame bit-identically
    let after = JobSpec { job: 2, ..spec };
    let line = Request::Submit {
        spec: after.clone(),
        priority: 0,
        deadline_ms: None,
    }
    .to_line();
    let lie = line.replacen("\"n\":6,", "\"n\":3,", 1);
    for frame in [lie, line] {
        client
            .send_raw(format!("{frame}\n").as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let mut next = || client.recv().map_err(|e| e.to_string());
    match (next()?, next()?, next()?) {
        (
            Response::Rejected { code, .. },
            Response::Accepted { job: 2 },
            Response::Outcome { outcome },
        ) if code == "malformed" && outcome.canonical() == after.run().canonical() => {}
        other => return Err(format!("expected malformed, then the job; got {other:?}")),
    }

    let report = frontend
        .shutdown_to(&opts.drain_dir)
        .map_err(|e| format!("smoke drain failed: {e}"))?;
    let _ = serving.join();
    if report.checkpointed + report.pending != 0 {
        return Err("smoke fleet drained with unfinished jobs".into());
    }
    let _ = std::fs::remove_dir_all(&opts.drain_dir);
    println!("smoke ok: loopback outcome bit-identical, malformed and shape-lie frames rejected");
    Ok(())
}

/// A tiny deterministic instance for the smoke round-trip.
fn smoke_spec() -> JobSpec {
    let mut b = QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    b.add_pair(0, 1, 0.5).expect("indices in range");
    JobSpec::new(1, b.build(), SolverSpec::Descent { max_sweeps: 64 }, 7)
}
