//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions (the program itself is not instrumented
//! here). Each span carries a name, start and end offsets from the
//! tracer's origin, the span that caused it, and the request it belongs
//! to. Nothing is written until the run ends: [`Tracer::write_jsonl`]
//! dumps every span once, after all timing is done.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls its
/// closure, so untraced runs pay one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id
    /// so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        self.record(name, id, parent, request, start, end);
        out
    }

    /// Record a span whose interval was measured elsewhere (for
    /// example by a generator thread that only knows send and receive
    /// times).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// A fresh span id for [`Tracer::record`].
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the part of it its children cover. Children that ran in
    /// parallel on other threads can cover more than their parent's
    /// wall time, so self time is clamped at zero.
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.nanos();
            }
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for span in spans.iter() {
            let own = span
                .nanos()
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            *out.entry(span.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
