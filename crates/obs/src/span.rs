//! Request-scoped tracing: timed spans with propagated request IDs,
//! retained in a bounded ring of slots and optionally mirrored to a
//! JSONL file sink.
//!
//! A [`Tracer`] mints one [`TraceHandle`] per request. The handle is a
//! cheap `Arc` clone, so it survives arbitrary hand-offs between
//! thread pools (HTTP worker → model-call worker): any clone can open
//! child spans or attach attributes, and the request's span tree is
//! assembled no matter which thread closed which span. Timestamps are
//! injected by the caller (simulation clock or a monotonic anchor) —
//! the tracer itself never reads a clock, which keeps simulated traces
//! deterministic.
//!
//! A trace is a flat record ([`RequestTrace`]): spans, one attribute
//! list for the whole trace, and one text buffer, all plain data.
//! Finished traces are *copied* into a ring of preallocated slots
//! (oldest overwritten first), readable via [`Tracer::recent`]; each
//! finished trace can also be appended as one JSON line to a file sink
//! for offline correlation with load-generator logs.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans a handle keeps inside its own `Arc` block before spilling to
/// a `Vec`, and the room it reserves for attributes and per-request
/// attribute text the first time it needs either: enough for a
/// single-version or two-stage request, whose trace is then built in
/// three allocations (the handle, the attribute list, the text).
const INLINE_SPANS: usize = 8;
const ATTRS_RESERVED: usize = 24;
const TEXT_RESERVED: usize = 128;

/// An attribute value read back from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// An integer attribute (counts, versions, microseconds).
    Int(i64),
    /// A string attribute (names, outcomes).
    Str(&'a str),
}

/// An attribute value as a trace holds it: plain data, so a trace
/// copies with three `memcpy`s. Static labels are kept by reference;
/// text built per request lives in the trace's own `text` buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
enum Stored {
    Int(i64),
    Label(&'static str),
    Text { start: u32, end: u32 },
}

/// One attribute in a trace's flat list, in attachment order.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct Attr {
    span: u32,
    key: &'static str,
    value: Stored,
}

/// One timed span inside a request trace. Its attributes are in the
/// trace's flat list: [`RequestTrace::attrs`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpanEvent {
    /// Span ID, unique within the request.
    pub id: u32,
    /// Parent span ID; `None` for the root.
    pub parent: Option<u32>,
    /// Span name (static, from the instrumentation site).
    pub name: &'static str,
    /// Start timestamp in caller-defined microseconds.
    pub start_us: u64,
    /// End timestamp; `u64::MAX` until closed.
    pub end_us: u64,
}

impl SpanEvent {
    /// Whether the span was closed before the trace finished.
    pub fn closed(&self) -> bool {
        self.end_us != u64::MAX
    }
}

/// The wire-carried distributed-tracing context: which fleet-wide
/// trace a request belongs to, which remote span is its parent, and
/// how many proxy hops deep it is.
///
/// The front tier originates a context (hop 0, no parent) and stamps
/// it on proxied requests via the `X-Trace-Id` / `X-Parent-Span`
/// headers; a node receiving those headers joins its local span tree
/// to the remote parent via [`Tracer::begin_remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceContext {
    /// Fleet-wide trace ID, minted once at the originating tier.
    pub trace_id: u64,
    /// The remote parent span's ID (in the hop-above trace); `None`
    /// at the originating tier.
    pub parent_span: Option<u32>,
    /// Proxy depth: 0 at the originating tier, parent's hop + 1 below.
    pub hop: u32,
}

impl TraceContext {
    /// A locally-originated context: this request is its own trace.
    pub fn local(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: None,
            hop: 0,
        }
    }
}

/// A request trace: the request ID plus its spans in open order and
/// their attributes in one flat list.
///
/// The record is plain data in three buffers of its own, so it is
/// overwritten in place without touching the allocator — which is
/// what lets a [`Tracer`] slot keep its storage across the traces that
/// pass through it.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RequestTrace {
    /// The propagated request ID (local to the tracing process).
    pub request_id: u64,
    /// Fleet-wide trace ID (equals `request_id` when locally minted).
    pub trace_id: u64,
    /// Remote parent span ID, when this trace joined a remote parent.
    pub parent_span: Option<u32>,
    /// Proxy depth of this trace within its fleet-wide tree.
    pub hop: u32,
    /// Spans in the order they were opened.
    pub spans: Vec<SpanEvent>,
    /// Every span's attributes, in attachment order.
    attrs: Vec<Attr>,
    /// The bytes `Stored::Text` ranges point into.
    text: String,
}

impl RequestTrace {
    /// The first span with `name`, if any.
    pub fn span(&self, name: &str) -> Option<&SpanEvent> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The attributes of span `span`, in attachment order.
    pub fn attrs(&self, span: u32) -> impl Iterator<Item = (&'static str, AttrValue<'_>)> + '_ {
        attrs_of(&self.attrs, &self.text, span)
    }

    /// Render as a single JSON line (hand-rolled: IDs and integer
    /// microseconds need no float formatting).
    pub fn to_json_line(&self) -> String {
        let context = TraceContext {
            trace_id: self.trace_id,
            parent_span: self.parent_span,
            hop: self.hop,
        };
        json_line(
            self.request_id,
            context,
            self.spans.iter(),
            &self.attrs,
            &self.text,
        )
    }
}

/// The attributes of `span` in a trace's flat list, in attachment
/// order.
fn attrs_of<'a>(
    attrs: &'a [Attr],
    text: &'a str,
    span: u32,
) -> impl Iterator<Item = (&'static str, AttrValue<'a>)> + 'a {
    attrs.iter().filter(move |a| a.span == span).map(move |a| {
        let value = match a.value {
            Stored::Int(n) => AttrValue::Int(n),
            Stored::Label(label) => AttrValue::Str(label),
            Stored::Text { start, end } => AttrValue::Str(&text[start as usize..end as usize]),
        };
        (a.key, value)
    })
}

/// One trace as a JSON line: the renderer behind `/trace/recent`,
/// `/trace/{id}` and the file sink.
fn json_line<'a>(
    request_id: u64,
    context: TraceContext,
    spans: impl Iterator<Item = &'a SpanEvent>,
    attrs: &[Attr],
    text: &str,
) -> String {
    let mut out = String::with_capacity(192 + attrs.len() * 48);
    let _ = write!(
        out,
        "{{\"request_id\": {}, \"trace_id\": {}, \"hop\": {}, \"parent_span\": ",
        request_id, context.trace_id, context.hop
    );
    match context.parent_span {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"spans\": [");
    for (i, s) in spans.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"id\": {}, \"parent\": ", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"name\": \"{}\", \"start_us\": {}",
            s.name, s.start_us
        );
        if s.closed() {
            let _ = write!(out, ", \"end_us\": {}", s.end_us);
        } else {
            out.push_str(", \"end_us\": null");
        }
        let mut own = attrs_of(attrs, text, s.id).peekable();
        if own.peek().is_some() {
            out.push_str(", \"attrs\": {");
            for (j, (k, v)) in own.enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{k}\": ");
                match v {
                    AttrValue::Int(n) => {
                        let _ = write!(out, "{n}");
                    }
                    AttrValue::Str(text) => {
                        out.push('"');
                        for ch in text.chars() {
                            match ch {
                                '"' => out.push_str("\\\""),
                                '\\' => out.push_str("\\\\"),
                                '\n' => out.push_str("\\n"),
                                '\r' => out.push_str("\\r"),
                                '\t' => out.push_str("\\t"),
                                c if (c as u32) < 0x20 => {
                                    let _ = write!(out, "\\u{:04x}", c as u32);
                                }
                                c => out.push(c),
                            }
                        }
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The trace a handle is building: a [`RequestTrace`]'s three lists,
/// with the first [`INLINE_SPANS`] spans held inline so a typical
/// request never allocates a span buffer.
#[derive(Debug, Default)]
struct Building {
    inline: [SpanEvent; INLINE_SPANS],
    /// Spans past the inline ones.
    spilled: Vec<SpanEvent>,
    /// Spans opened, inline and spilled.
    opened: usize,
    attrs: Vec<Attr>,
    text: String,
}

impl Building {
    fn open(&mut self, name: &'static str, parent: Option<u32>, start_us: u64) -> u32 {
        let span = SpanEvent {
            id: self.opened as u32,
            parent,
            name,
            start_us,
            end_us: u64::MAX,
        };
        match self.inline.get_mut(self.opened) {
            Some(slot) => *slot = span,
            None => self.spilled.push(span),
        }
        self.opened += 1;
        span.id
    }

    fn span_mut(&mut self, id: u32) -> Option<&mut SpanEvent> {
        let at = id as usize;
        if at >= self.opened {
            None
        } else if at < INLINE_SPANS {
            Some(&mut self.inline[at])
        } else {
            self.spilled.get_mut(at - INLINE_SPANS)
        }
    }

    fn push_attr(&mut self, span: u32, key: &'static str, value: Stored) {
        if (span as usize) < self.opened {
            if self.attrs.capacity() == 0 {
                self.attrs.reserve(ATTRS_RESERVED);
            }
            self.attrs.push(Attr { span, key, value });
        }
    }

    /// Attach `value`, formatted onto the end of `text`.
    fn push_text(&mut self, span: u32, key: &'static str, value: impl std::fmt::Display) {
        if self.text.capacity() == 0 {
            self.text.reserve(TEXT_RESERVED);
        }
        let start = self.text.len() as u32;
        let _ = write!(self.text, "{value}");
        let end = self.text.len() as u32;
        self.push_attr(span, key, Stored::Text { start, end });
    }

    /// Overwrite `out` with this trace, reusing `out`'s buffers.
    fn copy_into(&self, request_id: u64, context: TraceContext, out: &mut RequestTrace) {
        out.request_id = request_id;
        out.trace_id = context.trace_id;
        out.parent_span = context.parent_span;
        out.hop = context.hop;
        out.spans.clear();
        out.spans.extend(self.spans());
        out.attrs.clone_from(&self.attrs);
        out.text.clone_from(&self.text);
    }

    fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.inline[..self.opened.min(INLINE_SPANS)]
            .iter()
            .chain(&self.spilled)
    }

    /// Forget the spans, keep the buffers.
    fn clear(&mut self) {
        self.opened = 0;
        self.spilled.clear();
        self.attrs.clear();
        self.text.clear();
    }
}

#[derive(Debug)]
struct HandleInner {
    request_id: u64,
    context: TraceContext,
    /// The trace under construction; emptied by [`Tracer::finish`].
    state: Mutex<Building>,
}

/// A per-request tracing handle. Clone freely across threads; all
/// clones append to the same span tree.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    inner: Arc<HandleInner>,
}

impl TraceHandle {
    /// A standalone handle (not attached to a [`Tracer`]) — useful in
    /// tests and simulations that only want the span tree. The trace
    /// context is local: the request is its own trace at hop 0.
    pub fn detached(request_id: u64) -> Self {
        Self::detached_with_context(request_id, TraceContext::local(request_id))
    }

    /// A standalone handle joined to an explicit (possibly remote)
    /// trace context.
    pub fn detached_with_context(request_id: u64, context: TraceContext) -> Self {
        TraceHandle {
            inner: Arc::new(HandleInner {
                request_id,
                context,
                state: Mutex::new(Building::default()),
            }),
        }
    }

    /// The propagated request ID.
    pub fn request_id(&self) -> u64 {
        self.inner.request_id
    }

    /// The fleet-wide trace ID this handle's spans belong to.
    pub fn trace_id(&self) -> u64 {
        self.inner.context.trace_id
    }

    /// The full trace context (trace ID, remote parent, hop).
    pub fn context(&self) -> TraceContext {
        self.inner.context
    }

    fn state(&self) -> std::sync::MutexGuard<'_, Building> {
        self.inner.state.lock().expect("trace handle poisoned")
    }

    /// Open a span; returns its ID for closing and parenting.
    pub fn open(&self, name: &'static str, parent: Option<u32>, start_us: u64) -> u32 {
        self.state().open(name, parent, start_us)
    }

    /// Close a span at `end_us`. Unknown IDs and double-closes are
    /// ignored (a cancelled hedge call may race the trace finishing).
    pub fn close(&self, id: u32, end_us: u64) {
        if let Some(span) = self.state().span_mut(id) {
            if !span.closed() {
                span.end_us = end_us;
            }
        }
    }

    /// Attach an integer attribute to a span. Attributes for unknown
    /// span IDs are ignored, as in [`TraceHandle::close`].
    pub fn attr_int(&self, id: u32, key: &'static str, value: i64) {
        self.state().push_attr(id, key, Stored::Int(value));
    }

    /// Attach a static label (an outcome, a level, an objective) to a
    /// span: kept by reference, nothing is copied or allocated.
    pub fn attr_str(&self, id: u32, key: &'static str, value: &'static str) {
        self.state().push_attr(id, key, Stored::Label(value));
    }

    /// Attach text built for this request (an error message, a policy
    /// rendering) to a span, formatted straight into the trace's own
    /// text buffer.
    pub fn attr_text(&self, id: u32, key: &'static str, value: impl std::fmt::Display) {
        self.state().push_text(id, key, value);
    }

    /// Record an already-timed span in one call.
    pub fn span(&self, name: &'static str, parent: Option<u32>, start_us: u64, end_us: u64) -> u32 {
        let id = self.open(name, parent, start_us);
        self.close(id, end_us);
        id
    }

    /// A copy of the trace as built so far.
    pub fn snapshot(&self) -> RequestTrace {
        let mut trace = RequestTrace::default();
        self.state()
            .copy_into(self.inner.request_id, self.inner.context, &mut trace);
        trace
    }
}

/// The retained traces. Slot `n % capacity` holds the `n`-th finished
/// trace, so the ring is `slots` read from `finished % capacity` on
/// once it has wrapped.
#[derive(Debug)]
struct Ring {
    slots: Vec<RequestTrace>,
    finished: u64,
}

impl Ring {
    /// How many traces are retained.
    fn retained(&self) -> usize {
        self.finished.min(self.slots.len() as u64) as usize
    }

    /// The retained traces, oldest finish first.
    fn iter(&self) -> impl Iterator<Item = &RequestTrace> {
        let capacity = self.slots.len() as u64;
        (self.finished - self.retained() as u64..self.finished)
            .map(move |n| &self.slots[(n % capacity) as usize])
    }
}

/// The per-process trace collector: mints request IDs, retains the
/// last `capacity` finished traces, and optionally appends each as a
/// JSON line to `file_sink`.
///
/// Retention follows one ownership rule: **a heap block allocated
/// while serving a request is freed by the thread that allocated it.**
/// The ring is `capacity` slots made once; [`Tracer::finish`] copies
/// the finished trace into the next slot, overwriting the slot's own
/// buffers in place, and the handle's buffers die with the handle on
/// the thread that served the request. No block changes owner, so no
/// thread frees into another's allocator arena: a ring that takes a
/// trace's blocks has them dropped `capacity` requests later by
/// whichever thread finishes next, and that cross-arena traffic costs
/// two callers sharing a tracer more than the second caller adds.
pub struct Tracer {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<Ring>,
    sink: Option<Mutex<std::fs::File>>,
    sink_path: Option<PathBuf>,
    sink_error: AtomicBool,
}

impl Tracer {
    /// A tracer retaining the last `capacity` traces in memory. The
    /// slot table is built here; each slot's buffers grow to the
    /// largest trace it has held and are never handed back.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            capacity,
            next_id: AtomicU64::new(1),
            ring: Mutex::new(Ring {
                slots: (0..capacity).map(|_| RequestTrace::default()).collect(),
                finished: 0,
            }),
            sink: None,
            sink_path: None,
            sink_error: AtomicBool::new(false),
        }
    }

    /// Attach a JSONL file sink: every finished trace is appended as
    /// one line. Sink I/O errors are recorded (see
    /// [`Tracer::sink_healthy`]) but never fail the request path.
    pub fn with_file_sink(mut self, path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        self.sink = Some(Mutex::new(file));
        self.sink_path = Some(path);
        Ok(self)
    }

    /// Begin a trace for a new request, minting the next request ID.
    /// The request is the origin of its own fleet-wide trace (hop 0).
    pub fn begin(&self) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::detached(id)
    }

    /// Begin a trace for a request that arrived with a remote trace
    /// context (`X-Trace-Id` / `X-Parent-Span` on the wire): a local
    /// request ID is minted as usual, but the finished trace carries
    /// the remote trace ID, parent span, and hop so a fleet-level
    /// assembler can join this node's span tree to the remote parent.
    pub fn begin_remote(&self, context: TraceContext) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::detached_with_context(id, context)
    }

    /// Finish a trace: copy its spans into the next ring slot (over
    /// the oldest retained trace once the ring is full), mirror to the
    /// file sink if attached, and empty the handle. Spans opened or
    /// closed on surviving handle clones *after* this call never reach
    /// the published copy — a cancelled hedge call that loses the race
    /// cannot resurrect or amend the request's trace.
    pub fn finish(&self, handle: &TraceHandle) {
        let HandleInner {
            request_id,
            context,
            state,
        } = &*handle.inner;
        let line = {
            let mut building = state.lock().expect("trace handle poisoned");
            let line = self.sink.is_some().then(|| {
                json_line(
                    *request_id,
                    *context,
                    building.spans(),
                    &building.attrs,
                    &building.text,
                )
            });
            {
                let mut ring = self.ring.lock().expect("tracer poisoned");
                let slot = (ring.finished % self.capacity as u64) as usize;
                building.copy_into(*request_id, *context, &mut ring.slots[slot]);
                ring.finished += 1;
            }
            building.clear();
            line
        };
        if let (Some(sink), Some(line)) = (&self.sink, line) {
            let mut file = sink.lock().expect("trace sink poisoned");
            if writeln!(file, "{line}").is_err() {
                self.sink_error.store(true, Ordering::Relaxed);
            }
        }
    }

    /// The most recent finished traces, newest last, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<RequestTrace> {
        let ring = self.ring.lock().expect("tracer poisoned");
        let skip = ring.retained().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Every retained trace belonging to fleet-wide trace `trace_id`,
    /// oldest first. A node that served several hops of the same trace
    /// (e.g. a retry relanded here) returns them all.
    pub fn find(&self, trace_id: u64) -> Vec<RequestTrace> {
        let ring = self.ring.lock().expect("tracer poisoned");
        ring.iter()
            .filter(|t| t.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Total traces finished (including overwritten ones).
    pub fn finished_count(&self) -> u64 {
        self.ring.lock().expect("tracer poisoned").finished
    }

    /// Finished traces overwritten in the bounded ring — the tracer's
    /// drop count, exactly `finished − capacity` once the ring has
    /// wrapped. Zero in any run whose request count stays within the
    /// configured retention.
    pub fn dropped_traces(&self) -> u64 {
        self.finished_count().saturating_sub(self.capacity as u64)
    }

    /// In-memory retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the file sink (if any) has seen no write errors.
    pub fn sink_healthy(&self) -> bool {
        !self.sink_error.load(Ordering::Relaxed)
    }

    /// Path of the attached file sink, if any.
    pub fn sink_path(&self) -> Option<&std::path::Path> {
        self.sink_path.as_deref()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("finished", &self.finished_count())
            .field("sink", &self.sink_path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_across_clones() {
        let tracer = Tracer::new(8);
        let handle = tracer.begin();
        let root = handle.open("request", None, 0);
        let clone = handle.clone();
        let worker = std::thread::spawn(move || {
            let call = clone.open("model_call", Some(root), 10);
            clone.attr_str(call, "version", "fast");
            clone.attr_int(call, "attempt", 1);
            clone.close(call, 30);
        });
        worker.join().unwrap();
        handle.close(root, 40);
        tracer.finish(&handle);

        let recent = tracer.recent(10);
        assert_eq!(recent.len(), 1);
        let trace = &recent[0];
        assert_eq!(trace.request_id, 1);
        let call = trace.span("model_call").unwrap();
        assert_eq!(call.parent, Some(0));
        assert_eq!(
            trace.attrs(call.id).next(),
            Some(("version", AttrValue::Str("fast")))
        );
        assert!(trace.span("request").unwrap().closed());
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = Tracer::new(2);
        for _ in 0..5 {
            let h = tracer.begin();
            h.span("request", None, 0, 1);
            tracer.finish(&h);
        }
        let recent = tracer.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].request_id, 4);
        assert_eq!(recent[1].request_id, 5);
        assert_eq!(tracer.finished_count(), 5);
        assert_eq!(tracer.dropped_traces(), 3);
    }

    #[test]
    fn remote_context_joins_and_is_findable() {
        let tracer = Tracer::new(8);
        // A locally-minted request is its own trace.
        let local = tracer.begin();
        assert_eq!(local.trace_id(), local.request_id());
        assert_eq!(local.context().hop, 0);
        local.span("request", None, 0, 1);
        tracer.finish(&local);

        // A proxied request joins the remote parent.
        let ctx = TraceContext {
            trace_id: 9_001,
            parent_span: Some(3),
            hop: 1,
        };
        let remote = tracer.begin_remote(ctx);
        assert_eq!(remote.trace_id(), 9_001);
        assert_ne!(remote.request_id(), 9_001, "local id minted as usual");
        remote.span("request", None, 5, 9);
        tracer.finish(&remote);

        let found = tracer.find(9_001);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].parent_span, Some(3));
        assert_eq!(found[0].hop, 1);
        assert!(tracer.find(424_242).is_empty());
        assert_eq!(tracer.dropped_traces(), 0);

        let line = found[0].to_json_line();
        assert!(line.contains("\"trace_id\": 9001"));
        assert!(line.contains("\"hop\": 1"));
        assert!(line.contains("\"parent_span\": 3"));
    }

    #[test]
    fn late_spans_after_finish_are_dropped() {
        let tracer = Tracer::new(4);
        let h = tracer.begin();
        h.span("request", None, 0, 5);
        tracer.finish(&h);
        h.open("straggler", None, 6); // cancelled hedge, lost the race
        assert_eq!(tracer.recent(10)[0].spans.len(), 1);
    }

    #[test]
    fn json_line_escapes_strings() {
        let h = TraceHandle::detached(7);
        let s = h.span("request", None, 1, 2);
        h.attr_text(s, "note", "quo\"te\nline");
        let line = h.snapshot().to_json_line();
        assert!(line.contains("\"request_id\": 7"));
        assert!(line.contains("quo\\\"te\\nline"));
        assert!(line.contains("\"parent\": null"));
    }

    #[test]
    fn file_sink_appends_one_line_per_trace() {
        let dir = std::env::temp_dir().join("tt-obs-span-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let tracer = Tracer::new(4).with_file_sink(&path).unwrap();
        for _ in 0..3 {
            let h = tracer.begin();
            h.span("request", None, 0, 1);
            tracer.finish(&h);
        }
        assert!(tracer.sink_healthy());
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.lines().all(|l| l.starts_with("{\"request_id\": ")));
        let _ = std::fs::remove_file(&path);
    }
}
