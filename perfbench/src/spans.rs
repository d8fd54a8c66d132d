//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out as JSON lines when the run ends.
//!
//! Only traced runs (`--trace 1`) record spans; untraced runs pass no
//! sink, so their hot paths read no clock beyond what their end-to-end
//! metrics need.

use crate::json::Json;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock shared by
/// the load generator and the batch functions it reaches over TCP.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One batch-function call, with its child spans as boundaries:
/// `start..decoded` payload decode, `decoded..forwarded` the model's
/// forward, `forwarded..end` output encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpan {
    /// Registration index.
    pub reg: usize,
    /// Request ids in the batch (the ids the client stamped).
    pub ids: Vec<u64>,
    /// Batch function entered.
    pub start: u64,
    /// Payloads decoded.
    pub decoded: u64,
    /// Forward returned.
    pub forwarded: u64,
    /// Batch function about to return.
    pub end: u64,
}

impl BatchSpan {
    /// Items in the batch.
    pub fn size(&self) -> usize {
        self.ids.len()
    }

    /// Forward duration in nanoseconds.
    pub fn forward_ns(&self) -> u64 {
        self.forwarded - self.decoded
    }

    /// Decode plus encode duration in nanoseconds.
    pub fn codec_ns(&self) -> u64 {
        (self.decoded - self.start) + (self.end - self.forwarded)
    }
}

/// A named span with a free-form key (model, candidate index, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lpq.run`.
    pub name: &'static str,
    /// What the span was about.
    pub key: String,
    /// Start, nanoseconds on [`now_ns`]'s clock.
    pub start: u64,
    /// End, nanoseconds on [`now_ns`]'s clock.
    pub end: u64,
}

/// Thread-safe span store of one traced run.
#[derive(Debug, Default)]
pub struct Sink {
    batches: Mutex<Vec<BatchSpan>>,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    /// Records a batch span.
    pub fn batch(&self, s: BatchSpan) {
        self.batches.lock().expect("span sink poisoned").push(s);
    }

    /// Records a named span.
    pub fn span(&self, name: &'static str, key: impl Into<String>, start: u64, end: u64) {
        self.spans.lock().expect("span sink poisoned").push(Span {
            name,
            key: key.into(),
            start,
            end,
        });
    }

    /// Batch spans recorded so far.
    pub fn batches(&self) -> Vec<BatchSpan> {
        self.batches.lock().expect("span sink poisoned").clone()
    }

    /// Named spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Renders a batch span with its three children, naming the
/// registration through `reg_name`.
pub fn batch_json(s: &BatchSpan, reg_name: &str) -> Json {
    let child = |name: &str, a: u64, b: u64| {
        Json::obj([
            ("span", Json::Str(name.into())),
            ("start_ns", Json::Int(a)),
            ("end_ns", Json::Int(b)),
        ])
    };
    Json::obj([
        ("span", Json::Str("adapter.batch".into())),
        ("reg", Json::Str(reg_name.into())),
        (
            "ids",
            Json::Arr(s.ids.iter().map(|&i| Json::Int(i)).collect()),
        ),
        ("start_ns", Json::Int(s.start)),
        ("end_ns", Json::Int(s.end)),
        (
            "children",
            Json::Arr(vec![
                child("adapter.decode", s.start, s.decoded),
                child("dnn.forward_batch_quant", s.decoded, s.forwarded),
                child("adapter.encode", s.forwarded, s.end),
            ]),
        ),
    ])
}

/// Renders a named span.
pub fn span_json(s: &Span) -> Json {
    Json::obj([
        ("span", Json::Str(s.name.into())),
        ("key", Json::Str(s.key.clone())),
        ("start_ns", Json::Int(s.start)),
        ("end_ns", Json::Int(s.end)),
    ])
}

/// Writes one JSON value per line to `path`, creating its directory.
pub fn write_lines(
    path: &std::path::Path,
    lines: impl IntoIterator<Item = Json>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for l in lines {
        writeln!(w, "{}", l.render())?;
    }
    w.flush()
}
