//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written as one JSON
//! array (`name`, `start_ns`, `end_ns`, `parent`, `op`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Operation the span belongs to; 0 for probes outside any operation.
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        // Reserved up front so recording never reallocates inside a span.
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as one operation: every span it records carries a fresh
    /// operation id, which is returned with `f`'s result.
    pub fn operation<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (u64, R) {
        let id = self.next_op;
        self.next_op += 1;
        self.op = id;
        let r = f(self);
        self.op = 0;
        (id, r)
    }

    /// Record a span around `f`; spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Seconds spent in spans called `name` within operation `op`.
    pub fn seconds_in(&self, op: u64, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.op == op && s.name == name).map(Span::seconds).sum()
    }

    /// Seconds spent in spans called `name`, one total per operation that
    /// has such a span (probes outside operations excluded).
    pub fn per_op(&self, name: &str) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.op != 0 && s.name == name) {
            *totals.entry(s.op).or_insert(0.0) += s.seconds();
        }
        totals.into_values().collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
