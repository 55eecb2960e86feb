//! Heap accounting for one steady-state `POST /compute`, in the style
//! of `trace_ownership.rs`: a counting global allocator with a
//! per-thread tally, read around `HttpHandler::handle` on the calling
//! thread.
//!
//! A request's tolerance tier is resolved once at the door and handed
//! down as a handle to its tier-table entry, so no layer builds a
//! tier-key `String` on the request path. The counts below are
//! measured, and pinned exactly (EXPERIMENTS.md holds them beside the
//! figures from before the tier table), so a layer that goes back to
//! formatting its own key fails here by name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tt_net::demo::demo_service;
use tt_net::obs::ObsConfig;
use tt_net::server::HttpHandler;
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::Request;

struct CountingAllocator;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const PAYLOADS: usize = 60;
const SEED: u64 = 42;

fn compute(tolerance: &str, payload: usize) -> Request {
    Request {
        method: "POST".into(),
        target: "/compute".into(),
        headers: vec![
            ("Tolerance".into(), tolerance.into()),
            ("Objective".into(), "response-time".into()),
            ("Payload".into(), payload.to_string()),
        ],
        body: b"steady".to_vec(),
        keep_alive: true,
    }
}

/// The `(min, max)` allocations this thread makes per `/compute` at
/// `tolerance`, over every payload, after warm-up passes that wrap the
/// trace ring twice (its slots, the window store's keys and — with the
/// cache on — every entry have reached their steady state by then, so
/// the cache-on figure is the hit path's).
fn allocations_per_request(service: &ComputeService, tolerance: &str) -> (u64, u64) {
    let shutdown = AtomicBool::new(false);
    let requests: Vec<Request> = (0..PAYLOADS).map(|p| compute(tolerance, p)).collect();
    for _ in 0..10 {
        for request in &requests {
            assert_eq!(service.handle(request, &shutdown).status, 200);
        }
    }
    let mut range = (u64::MAX, 0);
    for request in &requests {
        let before = ALLOCATED.with(Cell::get);
        let reply = service.handle(request, &shutdown);
        let spent = ALLOCATED.with(Cell::get) - before;
        assert_eq!(reply.status, 200);
        range = (range.0.min(spent), range.1.max(spent));
    }
    range
}

fn service(obs: bool, cache: bool) -> ComputeService {
    demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            obs: if obs {
                ObsConfig::defaults()
            } else {
                ObsConfig::disabled()
            },
            cache: cache.then(|| {
                Arc::new(tt_cache::SemanticCache::new(
                    tt_cache::CacheConfig::defaults(),
                ))
            }),
            ..ServiceConfig::defaults()
        },
    )
}

#[test]
fn a_steady_state_compute_allocates_a_pinned_number_of_blocks() {
    // Per request, as (min, max) over the payloads: strict tier, then
    // the 10 % tier.
    let measure = |obs, cache| {
        let service = service(obs, cache);
        [
            allocations_per_request(&service, "0"),
            allocations_per_request(&service, "0.10"),
        ]
    };
    let measured = [
        measure(true, false),
        measure(false, false),
        measure(true, true),
    ];
    println!("allocations per /compute [obs on, obs off, cache on]: {measured:?}");
    // The traced 10 % tier runs a concurrent cascade, whose trace the
    // handler and a pool worker both write: the handler's share of its
    // allocations reads 43 to 45 depending on that race (43 in every
    // debug-build run, where the worker always lands first; constant
    // with observability off). Every other figure repeats exactly.
    let [strict, (least, most)] = measured[0];
    assert_eq!(strict, (40, 40), "obs on, cache off, strict");
    assert!(
        43 <= least && most <= 45,
        "obs on, cache off, 10 %: {least}..{most}"
    );
    assert_eq!(measured[1], [(35, 35), (38, 38)], "obs off");
    assert_eq!(measured[2], [(41, 41), (41, 41)], "obs on, cache on (hits)");
}
