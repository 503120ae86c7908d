//! Run provenance: one history record per run, schema-versioned.
//!
//! Each record is one NDJSON line:
//! `{"schema_version", "provenance": {rev, dirty, cores, workload, seed,
//! seconds, trace, unix_s}, "metrics": {...}}`. The revision is read from
//! `.git` when the benchmark runs inside a git checkout and is `"unknown"`
//! otherwise; `dirty` is `null` when it cannot be told.

use crate::metrics::{json_object, Values};
use std::io::Write;
use std::path::Path;

/// Version of the history record layout; bump on any field change.
pub const SCHEMA_VERSION: u32 = 1;

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Whether tracked files differ from the commit; `None` outside a checkout.
fn git_dirty() -> Option<bool> {
    if !Path::new(".git").is_dir() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()?;
    out.status.success().then_some(!out.stdout.is_empty())
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Appends this run's record to `path`.
pub fn append(
    path: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    values: &Values,
) -> std::io::Result<()> {
    let rev = git_rev().unwrap_or_else(|| "unknown".into());
    let dirty = git_dirty().map_or("null".to_string(), |d| d.to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"provenance\": {{\"rev\": \"{rev}\", \"dirty\": {dirty}, \
         \"cores\": {cores}, \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"unix_s\": {unix_s}}}, \"metrics\": {}}}\n",
        json_object(values)
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}
