//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into each
//! layer (the program itself carries no tracing). They stay in memory while
//! the run measures and are written out as NDJSON when it ends, one span per
//! line: `{"id","parent","trace","name","start_ns","end_ns","value"}`, times
//! in nanoseconds since the recorder started. Spans of one SAIM attempt or
//! one served job share a `trace` id; `parent` is the id of the span that
//! caused this one when that span was recorded first, else `0` (an
//! attempt's solves are recorded before the attempt span that holds them).

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the span covered, in the span's own unit (updates, bytes, …).
    pub value: f64,
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span and returns its id, for children to name as parent.
    pub fn record(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        value: f64,
    ) -> u64 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            value,
        });
        id
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span buffer lock is never poisoned")
            .len()
    }

    /// Writes every span as one NDJSON line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span buffer lock is never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"value\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.value
            )?;
        }
        out.flush()
    }
}
