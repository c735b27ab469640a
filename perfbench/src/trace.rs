//! In-memory spans recorded by the benchmark around each call into a
//! layer. A span carries its name, the request it served, the span that
//! caused it, and start/end offsets from the run's time origin. Spans
//! are kept in memory during the run and written out when it ends.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span (its index in the trace, plus one; 0 means
/// "no parent").
pub type SpanId = usize;

/// One recorded layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `engine.execute_batch`.
    pub name: &'static str,
    /// The request (or batch) id this span served.
    pub request: u64,
    /// The causing span, 0 for a root.
    pub parent: SpanId,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; disabled tracers record nothing and cost one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `origin`; records only when `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Turns recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
        self.spans.len()
    }

    /// Times `f` as a span named `name`, returning its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Opens a root span that children can name as their parent; close
    /// it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if id > 0 {
            let end = self.offset(Instant::now());
            self.spans[id - 1].end_ns = end;
        }
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.request,
                s.parent,
                s.start_ns,
                s.end_ns
            );
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.time("x", 1, 0, || 5), 5);
        assert_eq!(t.open("root", 0, 0), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_keep_request_parent_and_duration() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, true);
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let root = t.record("root", 0, 0, at(0), at(10_000));
        t.record("child", 7, root, at(1_000), at(4_000));
        assert_eq!(t.micros_of("root"), vec![10.0]);
        assert_eq!(t.micros_of("child"), vec![3.0]);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[1].request, 7);
    }
}
