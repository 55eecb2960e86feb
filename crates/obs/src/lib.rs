//! `tt-obs` — observability primitives for the tiered serving stack.
//!
//! The paper's product is a *per-tier guarantee*: each Tolerance Tier
//! promises bounded accuracy degradation versus the premium tier at a
//! differentiated price. A serving stack that cannot *observe* that
//! guarantee at runtime can violate it silently. This crate supplies
//! the three observability layers the stack wires in:
//!
//! * [`registry`] — a sharded metrics registry vending counters,
//!   gauges, and mergeable log-linear histograms ([`hist`]) with O(1)
//!   record and bounded memory;
//! * [`span`] — request-scoped tracing whose handles survive
//!   thread-pool hand-offs, retained in a bounded ring with an
//!   optional JSONL file sink;
//! * [`slo`] — a sentinel that folds live telemetry against each
//!   tier's advertised guarantee over sliding windows and publishes
//!   in/out-of-contract verdicts;
//! * [`window`] — a bounded ring of sealed telemetry windows
//!   (per-tier arrival/admission/cache counts, per-version
//!   service-time histograms) whose cumulative fold is bit-identical
//!   at any thread or node count — the capacity planner's input;
//! * [`shard`] — per-thread shards for state the request path writes
//!   on every request, folded only when read;
//! * [`events`] — a bounded, seq-stamped control-plane event log
//!   (epoch publishes, fences, supervisor transitions) so tests can
//!   assert *why* the system acted, not just that it did.
//!
//! Everything is dependency-free `std` (matching the workspace's
//! vendored-only stance) and deterministic by construction: counts
//! and sums are integers, histogram merge is associative, and no
//! component reads a clock — timestamps are always injected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod registry;
pub mod shard;
pub mod slo;
pub mod span;
pub mod window;

pub use events::{Event, EventLog};
pub use hist::{AtomicHistogram, BucketScheme, Histogram};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
pub use shard::Shards;
pub use slo::{SloSentinel, SloTarget, SloVerdict, TierTelemetry};
pub use span::{AttrValue, RequestTrace, SpanEvent, TraceContext, TraceHandle, Tracer};
pub use window::{AdmissionOutcome, SealedWindow, TierWindow, WindowAccum, WindowStore};
