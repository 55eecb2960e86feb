//! The harness's own span recorder, used only by the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans are recorded around calls from the
//! benchmark into each layer's public functions — nothing inside the
//! program is instrumented — kept in memory, and written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, times in nanoseconds since the recorder's
/// anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink owned by one thread.
#[derive(Debug)]
pub struct Recorder {
    anchor: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `anchor`; recorders sharing an anchor
    /// can be merged onto one time line.
    pub fn new(anchor: Instant) -> Self {
        Recorder {
            anchor,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = self.now_ns();
        self.push(name, parent, request, now, now)
    }

    /// Record a finished span with explicit times.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, re-numbering them after ours.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Fold spans into per-name counts, total time and self time.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let slot = out.entry(s.name).or_default();
        slot.count += 1;
        slot.total_ns += s.duration_ns();
        slot.self_ns += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let parent = span(0, None, "request", 100, 200);
        let a = span(1, Some(0), "parse", 110, 130);
        // Overlaps `a`: only 130..140 is new cover.
        let b = span(2, Some(0), "handle", 120, 140);
        // Sticks out past the parent: clipped to 190..200.
        let c = span(3, Some(0), "serialize", 190, 250);
        // Entirely outside: covers nothing.
        let d = span(4, Some(0), "late", 300, 400);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c, &d]), 100 - 30 - 10);
    }

    #[test]
    fn totals_fold_by_name_and_self_times_sum_to_the_root() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "parse", 0, 20),
            span(2, Some(0), "handle", 20, 90),
            span(3, Some(2), "execute", 30, 80),
            span(4, None, "request", 100, 150),
            span(5, Some(4), "parse", 100, 110),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["request"].count, 2);
        assert_eq!(totals["request"].total_ns, 150);
        assert_eq!(totals["request"].self_ns, 10 + 40);
        assert_eq!(totals["handle"].self_ns, 20);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, totals["request"].total_ns);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let anchor = Instant::now();
        let mut a = Recorder::new(anchor);
        let root = a.open("request", None, 7);
        a.close(root);
        let mut b = Recorder::new(anchor);
        let root_b = b.open("request", None, 8);
        b.span("parse", Some(root_b), 8, || ());
        b.close(root_b);
        a.absorb(b);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 8);
    }
}
