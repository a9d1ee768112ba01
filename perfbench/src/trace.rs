//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer:
//! name, start, end and the span that caused it.  All spans of one timed
//! operation share an op id.  They are kept in memory and written out once,
//! when the run ends, so recording costs two clock reads and a push.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover; summed over every span of an op, self
//! times add up to the op's root span exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u32,
    /// Layer boundary the span was recorded at, e.g. `solver.solve`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Runs one timed operation under a root span `name`; every span opened
    /// inside `f` shares its op id.  A panic inside `f` closes the open
    /// spans and returns `None`, so a failed op is counted, not fatal.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        assert!(self.open.is_empty(), "ops do not nest");
        let op = self.next_op;
        self.next_op += 1;
        let out = catch_unwind(AssertUnwindSafe(|| self.record(op, name, f)));
        while let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
        out.ok()
    }

    /// Runs `f` under a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = *self.open.last().expect("spans are recorded inside an op");
        let op = self.spans[parent].op;
        self.record(op, name, f)
    }

    fn record<T>(&mut self, op: u32, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The op id the next [`Self::op`] call will record under.
    pub fn next_op(&self) -> u32 {
        self.next_op
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            for kid in &mut kids {
                kid.0 = kid.0.clamp(span.start_ns, span.end_ns);
                kid.1 = kid.1.clamp(span.start_ns, span.end_ns);
            }
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer name within each op, in nanoseconds: the op's time
/// split by the layer that spent it.  The values of one op sum to its root
/// span's duration.
pub fn layer_self_by_op(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut by_op: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_op
            .entry(span.op)
            .or_default()
            .entry(span.name)
            .or_default() += own;
    }
    by_op
}

/// Wall time of each op's root span, in nanoseconds.
pub fn op_durations(spans: &[Span]) -> BTreeMap<u32, u64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.op, s.duration_ns()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u32, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, "op", None, 0, 100),
            span(0, "a", Some(0), 10, 40),
            // Overlaps `a`: the overlap is covered once, not twice.
            span(0, "b", Some(0), 30, 60),
            span(0, "c", Some(2), 35, 45),
            // Sticks out past its parent: only the inside part counts.
            span(0, "d", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30 - 10, 10, 40]);
    }

    #[test]
    fn layer_self_times_sum_to_the_op() {
        let spans = [
            span(0, "op", None, 0, 50),
            span(0, "solve", Some(0), 5, 25),
            span(0, "solve", Some(0), 30, 40),
            span(1, "op", None, 60, 70),
        ];
        let layers = layer_self_by_op(&spans);
        assert_eq!(layers[&0]["solve"], 30);
        assert_eq!(layers[&0]["op"], 20);
        assert_eq!(layers[&0].values().sum::<u64>(), 50);
        assert_eq!(layers[&1]["op"], 10);
        assert_eq!(op_durations(&spans), BTreeMap::from([(0, 50), (1, 10)]));
    }

    #[test]
    fn tracer_nests_spans_under_one_op_id() {
        let mut tracer = Tracer::new();
        let out = tracer.op("op", |t| t.span("outer", |t| t.span("inner", |_| 7)));
        assert_eq!(out, Some(7));
        tracer.op("op", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[2].op, spans[3].op), (0, 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_panicking_op_closes_its_spans_and_reports_none() {
        let mut tracer = Tracer::new();
        let out: Option<()> = tracer.op("op", |t| t.span("boom", |_| panic!("injected")));
        assert_eq!(out, None);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        // The recorder is usable again afterwards.
        assert_eq!(tracer.op("op", |_| 1), Some(1));
    }
}
