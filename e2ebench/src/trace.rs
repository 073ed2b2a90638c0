//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the name of the span that caused it, and the id of the
//! operation it belongs to; every span of one operation shares that id.
//! Spans stay in memory until the run ends, then go to a CSV file.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span buffer; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent,
                op,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, op, start, Instant::now());
        out
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Duration (µs) of the span called `name` per operation id.
pub fn by_op(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.op, s.us()))
        .collect()
}

/// Per-operation self time of `outer` less `inner`, for every
/// operation that has both.
pub fn self_times(spans: &[Span], outer: &str, inner: &str) -> Vec<f64> {
    let inner = by_op(spans, inner);
    spans
        .iter()
        .filter(|s| s.name == outer)
        .filter_map(|s| inner.get(&s.op).map(|i| s.us() - i))
        .collect()
}

/// Write the spans as CSV: `name,parent,op,start_ns,end_ns`.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,parent,op,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.name,
            s.parent.unwrap_or(""),
            s.op,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
