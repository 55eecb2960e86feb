//! Request-scoped tracing: timed spans with propagated request IDs,
//! retained in bounded per-thread rings of slots and optionally
//! mirrored to a JSONL file sink.
//!
//! A [`Tracer`] mints one [`TraceHandle`] per request. The handle is a
//! cheap `Arc` clone, so it survives arbitrary hand-offs between
//! thread pools (HTTP worker → model-call worker): any clone can open
//! child spans or attach attributes, and the request's span tree is
//! assembled no matter which thread closed which span. An
//! instrumentation site that records several facts at once takes the
//! handle's lock once, through [`TraceHandle::edit`]. Timestamps are
//! injected by the caller (simulation clock or a monotonic anchor) —
//! the tracer itself never reads a clock, which keeps simulated traces
//! deterministic.
//!
//! A trace is a flat record ([`RequestTrace`]): spans, one attribute
//! list for the whole trace, and one text buffer, all plain data.
//! Finished traces are *copied* into the finishing thread's ring of
//! slots (oldest overwritten first); [`Tracer::recent`] merges the
//! rings by finish number. Each finished trace can also be appended as
//! one JSON line to a file sink for offline correlation with
//! load-generator logs.
//!
//! At steady state tracing a request touches neither the allocator nor
//! a lock another thread takes: [`Tracer::retire`] keeps a handle no
//! clone outlives as the thread's spare, and the next
//! [`Tracer::begin`] on that thread resets it in place, buffers and
//! all.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::shard::Shards;

/// Spans a handle keeps inside its own `Arc` block before spilling to
/// a `Vec`, and the room it reserves for attributes and per-request
/// attribute text the first time it needs either: enough for a
/// single-version or two-stage request, whose first trace on a thread
/// is then built in three allocations (the handle, the attribute list,
/// the text) and every later one, on the recycled handle, in none.
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

thread_local! {
    /// The calling thread's spare handle: the last one
    /// [`Tracer::retire`] got back with no clone alive, kept with its
    /// buffers for the thread's next [`Tracer::begin`].
    static SPARE: Cell<Option<Arc<HandleInner>>> = const { Cell::new(None) };
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

    /// A handle for a new request: the calling thread's spare, emptied
    /// and renamed in place, or a new block when the thread has none.
    fn recycled(request_id: u64, context: TraceContext) -> Self {
        if let Some(mut inner) = SPARE.try_with(Cell::take).ok().flatten() {
            // A spare is kept only while no clone of it is alive, so
            // this always succeeds; a poisoned one is never reused.
            if let Some(spare) = Arc::get_mut(&mut inner) {
                if let Ok(building) = spare.state.get_mut() {
                    building.clear();
                    spare.request_id = request_id;
                    spare.context = context;
                    return TraceHandle { inner };
                }
            }
        }
        Self::detached_with_context(request_id, context)
    }

    /// Keep this handle as the calling thread's spare if it is the
    /// last clone; drop it otherwise.
    fn into_spare(self) {
        let mut inner = self.inner;
        if Arc::get_mut(&mut inner).is_some() {
            let _ = SPARE.try_with(|spare| spare.set(Some(inner)));
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

    fn state(&self) -> MutexGuard<'_, Building> {
        self.inner.state.lock().expect("trace handle poisoned")
    }

    /// Record several facts at one instrumentation site under a single
    /// acquisition of the handle's lock: `f` opens, closes and
    /// annotates spans through the [`TraceEdit`] it is lent, exactly as
    /// the handle's own one-call methods would.
    pub fn edit<R>(&self, f: impl FnOnce(&mut TraceEdit<'_>) -> R) -> R {
        f(&mut TraceEdit {
            building: &mut self.state(),
        })
    }

    /// Open a span; returns its ID for closing and parenting.
    pub fn open(&self, name: &'static str, parent: Option<u32>, start_us: u64) -> u32 {
        self.edit(|t| t.open(name, parent, start_us))
    }

    /// Close a span at `end_us`. Unknown IDs and double-closes are
    /// ignored (a cancelled hedge call may race the trace finishing).
    pub fn close(&self, id: u32, end_us: u64) {
        self.edit(|t| t.close(id, end_us));
    }

    /// Attach an integer attribute to a span. Attributes for unknown
    /// span IDs are ignored, as in [`TraceHandle::close`].
    pub fn attr_int(&self, id: u32, key: &'static str, value: i64) {
        self.edit(|t| t.attr_int(id, key, value));
    }

    /// Attach a static label (an outcome, a level, an objective) to a
    /// span: kept by reference, nothing is copied or allocated.
    pub fn attr_str(&self, id: u32, key: &'static str, value: &'static str) {
        self.edit(|t| t.attr_str(id, key, value));
    }

    /// Attach text built for this request (an error message, a policy
    /// rendering) to a span, formatted straight into the trace's own
    /// text buffer.
    pub fn attr_text(&self, id: u32, key: &'static str, value: impl std::fmt::Display) {
        self.edit(|t| t.attr_text(id, key, value));
    }

    /// Record an already-timed span in one call.
    pub fn span(&self, name: &'static str, parent: Option<u32>, start_us: u64, end_us: u64) -> u32 {
        self.edit(|t| {
            let id = t.open(name, parent, start_us);
            t.close(id, end_us);
            id
        })
    }

    /// A copy of the trace as built so far.
    pub fn snapshot(&self) -> RequestTrace {
        let mut trace = RequestTrace::default();
        self.state()
            .copy_into(self.inner.request_id, self.inner.context, &mut trace);
        trace
    }
}

/// A trace held under one acquisition of its handle's lock (see
/// [`TraceHandle::edit`]). Its operations are the handle's, and mean
/// the same.
#[derive(Debug)]
pub struct TraceEdit<'a> {
    building: &'a mut Building,
}

impl TraceEdit<'_> {
    /// Open a span; returns its ID for closing and parenting.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, start_us: u64) -> u32 {
        self.building.open(name, parent, start_us)
    }

    /// Close a span at `end_us`. Unknown IDs and double-closes are
    /// ignored.
    pub fn close(&mut self, id: u32, end_us: u64) {
        if let Some(span) = self.building.span_mut(id) {
            if !span.closed() {
                span.end_us = end_us;
            }
        }
    }

    /// Attach an integer attribute to a span.
    pub fn attr_int(&mut self, id: u32, key: &'static str, value: i64) {
        self.building.push_attr(id, key, Stored::Int(value));
    }

    /// Attach a static label to a span.
    pub fn attr_str(&mut self, id: u32, key: &'static str, value: &'static str) {
        self.building.push_attr(id, key, Stored::Label(value));
    }

    /// Attach text built for this request to a span.
    pub fn attr_text(&mut self, id: u32, key: &'static str, value: impl std::fmt::Display) {
        self.building.push_text(id, key, value);
    }
}

/// One thread's retained traces, each stamped with its finish number.
/// The slot table is reserved at the ring's first finish, so a ring no
/// thread finishes into costs nothing and one that fills never moves;
/// the slots are made one at a time as traces arrive, up to the
/// tracer's capacity, and from then on `next` is the oldest, which the
/// next finish overwrites in place.
#[derive(Debug, Default)]
struct Ring {
    slots: Vec<(u64, RequestTrace)>,
    next: usize,
}

impl Ring {
    /// The slot for the trace finishing as number `finished`.
    fn slot(&mut self, finished: u64, capacity: usize) -> &mut RequestTrace {
        let at = if self.slots.len() < capacity {
            self.slots.reserve_exact(capacity - self.slots.len());
            self.slots.push((finished, RequestTrace::default()));
            self.slots.len() - 1
        } else {
            let oldest = self.next;
            self.next = (oldest + 1) % capacity;
            self.slots[oldest].0 = finished;
            oldest
        };
        &mut self.slots[at].1
    }
}

/// The per-process trace collector: mints request IDs, retains the
/// last `capacity` finished traces, and optionally appends each as a
/// JSON line to `file_sink`.
///
/// Each thread finishes into its own ring (a [`Shards`] part), which
/// keeps that thread's newest `capacity` traces. Every finish takes
/// the next number from one counter while it holds its ring's lock, so
/// the newest `capacity` numbers — what one shared ring would hold —
/// are all in some ring whenever a reader holds every ring;
/// [`Tracer::recent`] and [`Tracer::find`] merge them by that number.
///
/// Retention follows one ownership rule: **a heap block allocated
/// while serving a request is freed by the thread that allocated it.**
/// A ring's slots are made by the thread that finishes into it and
/// overwritten in place, buffers and all; [`Tracer::finish`] copies
/// the trace into the next slot, and the handle stays with the thread
/// that served the request — as its spare, through
/// [`Tracer::retire`], or dropped there. No block changes owner, so no
/// thread frees into another's allocator arena: a ring that takes a
/// trace's blocks has them dropped `capacity` requests later by
/// whichever thread finishes next, and that cross-arena traffic costs
/// two callers sharing a tracer more than the second caller adds.
pub struct Tracer {
    capacity: usize,
    next_id: AtomicU64,
    /// Traces finished so far: the next one's finish number. `Relaxed`
    /// throughout: it publishes no trace, the rings' locks do, and a
    /// reader that holds them all sees every number taken under them.
    finished: AtomicU64,
    rings: Shards<Ring>,
    sink: Option<Mutex<std::fs::File>>,
    sink_path: Option<PathBuf>,
    sink_error: AtomicBool,
}

impl Tracer {
    /// A tracer retaining the last `capacity` traces in memory. No
    /// ring storage is made here: a ring's slots are made as its
    /// thread first fills them, and each slot's buffers grow to the
    /// largest trace it has held and are never handed back.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            finished: AtomicU64::new(0),
            rings: Shards::new(Ring::default),
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
    /// The handle is the thread's spare when it has one.
    pub fn begin(&self) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::recycled(id, TraceContext::local(id))
    }

    /// Begin a trace for a request that arrived with a remote trace
    /// context (`X-Trace-Id` / `X-Parent-Span` on the wire): a local
    /// request ID is minted as usual, but the finished trace carries
    /// the remote trace ID, parent span, and hop so a fleet-level
    /// assembler can join this node's span tree to the remote parent.
    pub fn begin_remote(&self, context: TraceContext) -> TraceHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        TraceHandle::recycled(id, context)
    }

    /// Finish a trace: copy its spans into the next slot of the calling
    /// thread's ring (over its oldest trace once the ring is full),
    /// mirror to the file sink if attached, and empty the handle. Spans
    /// opened or closed on surviving handle clones *after* this call
    /// never reach the published copy — a cancelled hedge call that
    /// loses the race cannot resurrect or amend the request's trace.
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
                let mut ring = self.rings.local();
                // Numbered under the ring's lock: see the type's docs.
                let finished = self.finished.fetch_add(1, Ordering::Relaxed);
                building.copy_into(*request_id, *context, ring.slot(finished, self.capacity));
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

    /// [`Tracer::finish`] by the handle's owner, which then gives the
    /// handle up: if no clone of it is alive, it becomes the calling
    /// thread's spare, kept with its buffers for the thread's next
    /// [`Tracer::begin`] to reset in place. A handle with a live clone
    /// (a raced stage still running on another thread) is dropped as
    /// [`Tracer::finish`]'s caller would drop it.
    pub fn retire(&self, handle: TraceHandle) {
        self.finish(&handle);
        handle.into_spare();
    }

    /// Copies of the newest `newest` (at most `capacity`) finished
    /// traces that pass `keep`, oldest finish first: every ring is
    /// held at once, so each number taken has its trace in one.
    fn newest(&self, newest: usize, keep: impl Fn(&RequestTrace) -> bool) -> Vec<RequestTrace> {
        let rings: Vec<MutexGuard<'_, Ring>> = self.rings.each().collect();
        let finished = self.finished.load(Ordering::Relaxed);
        let from = finished.saturating_sub(newest.min(self.capacity) as u64);
        let mut kept: Vec<&(u64, RequestTrace)> = rings
            .iter()
            .flat_map(|ring| ring.slots.iter())
            .filter(|(number, trace)| *number >= from && keep(trace))
            .collect();
        kept.sort_unstable_by_key(|(number, _)| *number);
        kept.into_iter().map(|(_, trace)| trace.clone()).collect()
    }

    /// The most recent finished traces, newest last, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<RequestTrace> {
        self.newest(limit, |_| true)
    }

    /// Every retained trace belonging to fleet-wide trace `trace_id`,
    /// oldest first. A node that served several hops of the same trace
    /// (e.g. a retry relanded here) returns them all.
    pub fn find(&self, trace_id: u64) -> Vec<RequestTrace> {
        self.newest(self.capacity, |trace| trace.trace_id == trace_id)
    }

    /// Total traces finished (including overwritten ones).
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Finished traces no longer retained — the tracer's drop count,
    /// exactly `finished − capacity` once more than `capacity` have
    /// finished, however they spread over the rings. Zero in any run
    /// whose request count stays within the configured retention.
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
    fn a_spare_written_to_after_its_finish_is_emptied_before_reuse() {
        let tracer = Tracer::new(4);
        let handle = tracer.begin();
        handle.span("request", None, 0, 1);
        let raced = handle.clone();
        // `retire`, with the raced clone writing and going away between
        // the finish and the hand-back.
        tracer.finish(&handle);
        raced.span("straggler", None, 2, 3);
        drop(raced);
        handle.into_spare();

        let next = tracer.begin();
        assert!(next.snapshot().spans.is_empty());
        next.span("request", None, 4, 5);
        tracer.retire(next);
        let published = tracer.recent(10);
        assert_eq!(published.len(), 2);
        assert!(published.iter().all(|t| t.span("straggler").is_none()));
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
