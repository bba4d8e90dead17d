//! In-memory spans for the traced pass.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans: name, start, end, the enclosing span, and the cell, session
//! or slice the call served. Each driving thread records into its own
//! [`Recorder`]; the spans are merged and written out when the run ends.
//! Span names carry their layer as a prefix (`traces.open`,
//! `pipeline.run_block`, …); `bench.*` spans group one unit of work and
//! belong to no layer, so their self time is the time no layer accounts
//! for.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name.
    pub name: &'static str,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// The cell, session or slice this call served.
    pub id: u64,
    /// The recording thread.
    pub thread: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log.
pub struct Recorder {
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (shared by every thread
    /// of one pass).
    pub fn new(origin: Instant, thread: usize) -> Self {
        Recorder { origin, thread, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id, thread: self.thread });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// The recorded spans; every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, id);
        let out = f();
        self.exit(s);
        out
    }
}

/// Concatenates span lists (per-thread logs, or whole passes) into one,
/// rebasing parent indices.
pub fn merge(parts: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of each span: its duration minus the durations of its
/// direct children (never below zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Per-name totals of a span list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals by span name, in name order.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Whether a span belongs to a layer (as opposed to a `bench.*` grouping).
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

/// Share of the pass's thread time that no layer span covers:
/// `1 - Σ layer self time / (threads × wall)`, where `threads` is the
/// number of threads that recorded spans for the whole pass.
pub fn unattributed_share(spans: &[Span], threads: usize, wall_ns: u64) -> f64 {
    let layer_ns: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| is_layer(s.name))
        .map(|(_, own)| own)
        .sum();
    let budget = (threads as f64 * wall_ns as f64).max(1.0);
    (1.0 - layer_ns as f64 / budget).max(0.0)
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("traces.next_block", 10, 30, Some(0)),
            span("pipeline.run_block", 30, 80, Some(0)),
            span("core.inner", 40, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let t = totals(&spans);
        assert_eq!(t["pipeline.run_block"], Total { count: 1, total_ns: 50, self_ns: 30 });
    }

    #[test]
    fn self_time_never_negative() {
        let spans = vec![span("bench.cell", 0, 10, None), span("traces.open", 0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn unattributed_share_counts_bench_self_time_and_idle() {
        // Two threads over a 100 ns pass: layers cover 50 + 30 ns.
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("traces.open", 0, 50, Some(0)),
            Span { thread: 1, ..span("serve.session", 10, 40, None) },
        ];
        let share = unattributed_share(&spans, 2, 100);
        assert!((share - 0.6).abs() < 1e-12, "{share}");
    }

    #[test]
    fn recorder_nests_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0);
        let outer = a.enter("bench.cell", 7);
        a.time("traces.open", 7, || ());
        a.exit(outer);
        let mut b = Recorder::new(origin, 1);
        let outer_b = b.enter("bench.cell", 8);
        b.time("pipeline.finish", 8, || ());
        b.exit(outer_b);
        let spans = merge([a.into_spans(), b.into_spans()]);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[3].id, spans[3].thread), (8, 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
