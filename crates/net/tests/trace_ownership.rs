//! Heap accounting for request tracing, in the style of
//! `crates/core/tests/alloc_free.rs`: a counting global allocator with
//! per-thread tallies of allocations *and* frees.
//!
//! The tracer's ownership rule is that a heap block allocated while
//! serving a request is freed by the thread that allocated it. At
//! steady state that means `Tracer::finish` neither allocates nor
//! frees (the ring's slots keep their own storage, whichever thread
//! filled them first), and everything a traced request allocates it
//! also releases on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tt_core::objective::Objective;
use tt_core::policy::Policy;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_net::demo::demo_service;
use tt_net::service::ServiceConfig;
use tt_obs::{TraceHandle, Tracer};

/// Counts this thread's allocations and frees. The counters are
/// `const`-initialized non-`Drop` thread-locals, so touching them from
/// inside the allocator cannot itself allocate or recurse.
struct CountingAllocator;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }

    // A grown block may move: the old one is freed, a new one made.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + 1));
        FREED.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, frees)` made by the current thread while running `f`.
fn heap_traffic<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    let result = f();
    let after = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), result)
}

/// A two-stage request's worth of spans, static labels and per-request
/// text: the stable shape the steady-state claims are about.
fn build(handle: &TraceHandle, now: u64) {
    let root = handle.open("execute", None, now);
    handle.attr_str(root, "objective", "response-time");
    handle.attr_int(root, "payload", now as i64);
    let route = handle.open("route", Some(root), now + 1);
    handle.attr_text(
        route,
        "policy",
        format_args!("Cascade {{ cheap: 0, accurate: {} }}", now % 3),
    );
    handle.close(route, now + 2);
    for attempt in 1..=2 {
        let call = handle.open("model_call", Some(root), now + 3);
        handle.attr_int(call, "attempt", attempt);
        handle.attr_str(call, "outcome", "ok");
        handle.close(call, now + 4);
    }
    handle.close(root, now + 5);
}

#[test]
fn steady_state_finish_neither_allocates_nor_frees() {
    const CAPACITY: usize = 8;
    let tracer = Arc::new(Tracer::new(CAPACITY));

    // Another thread fills the ring (twice over), so every slot's
    // storage was allocated there, not here.
    let filler = Arc::clone(&tracer);
    std::thread::spawn(move || {
        for i in 0..2 * CAPACITY as u64 {
            let handle = filler.begin();
            build(&handle, i * 10);
            filler.finish(&handle);
        }
    })
    .join()
    .expect("filler thread");

    // This thread overwrites every slot twice. `finish` touches the
    // heap not at all: nothing of the other thread's is freed here,
    // and the ring grows nothing.
    for i in 0..2 * CAPACITY as u64 {
        let handle = tracer.begin();
        build(&handle, 1_000 + i * 10);
        let (traffic, ()) = heap_traffic(|| tracer.finish(&handle));
        assert_eq!(traffic, (0, 0), "finish #{i} touched the heap");
    }

    // And a whole traced request gives back exactly what it took.
    let ((allocated, freed), ()) = heap_traffic(|| {
        for i in 0..2 * CAPACITY as u64 {
            let handle = tracer.begin();
            build(&handle, 2_000 + i * 10);
            tracer.finish(&handle);
        }
    });
    assert_eq!(allocated, freed);
    assert_eq!(tracer.dropped_traces(), 5 * CAPACITY as u64);
    assert_eq!(tracer.recent(1)[0].spans.len(), 4);
}

#[test]
fn a_single_policy_request_builds_its_trace_in_three_allocations() {
    let service = demo_service(60, 9, ServiceConfig::defaults());
    let request = ServiceRequest::new(3, Tolerance::ZERO, Objective::ResponseTime);
    let tracer = Tracer::new(4);
    let traced = || {
        let handle = tracer.begin();
        let outcome = service
            .execute_shaped(&request, None, Some(&handle))
            .expect("fault-free service");
        tracer.finish(&handle);
        outcome
    };
    let untraced = || {
        service
            .execute_shaped(&request, None, None)
            .expect("fault-free service")
    };
    // Warm both paths: lazily-built runtime state, the ring's slots,
    // the telemetry maps' first sight of the tier.
    for _ in 0..8 {
        assert!(matches!(traced().policy, Policy::Single { .. }));
        untraced();
    }
    // The bare request's own count wobbles by one (the service's event
    // log grows now and then), so compare the quietest of a few runs.
    let quietest = |run: &dyn Fn() -> tt_net::ComputeOutcome| {
        (0..8)
            .map(|_| heap_traffic(run).0 .0)
            .min()
            .expect("eight runs")
    };
    let (bare, with_trace) = (quietest(&untraced), quietest(&traced));
    let tracing = with_trace - bare;
    assert!(
        tracing <= 3,
        "tracing a Single-policy request cost {tracing} allocations ({with_trace} traced, {bare} bare)"
    );
    let trace = tracer.recent(1).pop().expect("retained");
    for span in ["execute", "route", "model_call", "bill"] {
        assert!(trace.span(span).is_some(), "missing span {span}");
    }
}
