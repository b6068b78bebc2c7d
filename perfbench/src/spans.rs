//! In-memory span recording for the traced run. Spans are taken only
//! around calls the benchmark makes into the program; they are kept in
//! memory and written out once, when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::self_time;

/// One timed call: what was called, when, under which parent span, and
/// for which batch of the session.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the process's trace origin.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same [`Spans`] log.
    pub parent: Option<usize>,
    /// Batch index within the session (`None` for whole-session spans).
    pub batch: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The process-wide time origin every span is measured from, so spans
/// recorded on different threads line up.
pub fn ns_since_origin(at: Instant) -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    at.saturating_duration_since(origin).as_nanos() as u64
}

pub fn now_ns() -> u64 {
    ns_since_origin(Instant::now())
}

/// An append-only span log.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Appends a span and returns its index (the id children name as
    /// their parent).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: usize, end: u64) {
        self.spans[id].end = end;
    }

    /// Appends another log's spans, re-basing their parent indices; its
    /// root spans become children of `parent`.
    pub fn adopt(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Total duration of the direct children of `parent` named `name`.
    pub fn child_ns(&self, parent: usize, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Every span's self time: its duration minus what its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time(s.start, s.end, c))
            .collect()
    }

    /// Writes one JSON object per span: id, name, start, end, self time,
    /// parent and batch.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"batch\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.batch),
            )?;
        }
        out.flush()
    }
}
