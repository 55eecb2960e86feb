//! Heap accounting for one steady-state `POST /compute`, in the style
//! of `trace_ownership.rs`: a counting global allocator with per-thread
//! tallies of allocations *and* frees, read around each call on the
//! calling thread.
//!
//! A `/compute` reply is streamed into one pre-sized body `String`;
//! its header values are static labels or inline integers; the
//! annotations are read straight off the parsed header pairs; and a
//! tier is a handle to its tier-table entry. What is left is counted
//! below and pinned exactly (EXPERIMENTS.md holds the counts beside the
//! ones from before), so a layer that goes back to building a tree, a
//! `String` per header or a tier key fails here by name. The second
//! test walks the whole bytes → bytes path the benchmark drives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tt_net::demo::demo_service;
use tt_net::http::{write_response_with, Limits, RequestAssembler};
use tt_net::obs::ObsConfig;
use tt_net::server::HttpHandler;
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::Request;

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
/// the cache-on figure is the hit path's). Every block `handle`
/// allocates is the reply's or is freed before it returns, so once the
/// reply is dropped this thread has freed exactly what it allocated —
/// unless `pooled`: a stage handed to the worker pool takes its boxed
/// call, its reply channel and a share of the trace to the worker,
/// which drops them there.
fn allocations_per_request(service: &ComputeService, tolerance: &str, pooled: bool) -> (u64, u64) {
    let shutdown = AtomicBool::new(false);
    let requests: Vec<Request> = (0..PAYLOADS).map(|p| compute(tolerance, p)).collect();
    for _ in 0..10 {
        for request in &requests {
            assert_eq!(service.handle(request, &shutdown).status, 200);
        }
    }
    let mut range = (u64::MAX, 0);
    for request in &requests {
        let ((allocated, freed), status) =
            heap_traffic(|| service.handle(request, &shutdown).status);
        assert_eq!(status, 200);
        if !pooled {
            assert_eq!(
                allocated, freed,
                "a block allocated serving tolerance {tolerance} outlived the reply on this thread"
            );
        }
        range = (range.0.min(allocated), range.1.max(allocated));
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
    // the 10 % tier (a concurrent cascade: one stage goes to the pool
    // unless the cache answers first).
    let measure = |obs, cache| {
        let service = service(obs, cache);
        [
            allocations_per_request(&service, "0", false),
            allocations_per_request(&service, "0.10", !cache),
        ]
    };
    let measured = [
        measure(true, false),
        measure(false, false),
        measure(true, true),
    ];
    println!("allocations per /compute [obs on, obs off, cache on]: {measured:?}");
    // The 10 % tier's pooled stage races the handler: whether the
    // handler finds the worker's answer waiting or parks for it, and —
    // traced — which of the two grows the shared trace, moves the
    // handler's share by a block or two. Every other figure repeats
    // exactly.
    let within = |(least, most): (u64, u64), lo: u64, hi: u64| lo <= least && most <= hi;
    assert_eq!(measured[0][0], (5, 5), "obs on, cache off, strict");
    assert!(within(measured[0][1], 8, 10), "obs on, cache off, 10 %");
    assert_eq!(measured[1][0], (2, 2), "obs off, strict");
    assert!(within(measured[1][1], 5, 6), "obs off, 10 %");
    assert_eq!(measured[2], [(4, 4), (4, 4)], "obs on, cache on (hits)");
}

/// The benchmark's `path_inproc` request, bytes to bytes:
/// `RequestAssembler::push` + `next_request`, `handle`, and
/// `write_response_with` into a reused `Vec`.
#[test]
fn the_bytes_to_bytes_path_serializes_without_allocating() {
    let service = service(true, false);
    let shutdown = AtomicBool::new(false);
    let wire: Vec<Vec<u8>> = (0..PAYLOADS)
        .map(|p| {
            format!(
                "POST /compute HTTP/1.1\r\nTolerance: 0\r\nObjective: response-time\r\n\
                 Payload: {p}\r\nContent-Length: 6\r\nConnection: keep-alive\r\n\r\nsteady"
            )
            .into_bytes()
        })
        .collect();
    let mut assembler = RequestAssembler::new(Limits::default());
    let mut out: Vec<u8> = Vec::with_capacity(1024);
    let mut serve = |bytes: &[u8]| {
        let (parse, request) = heap_traffic(|| {
            assembler.push(bytes);
            assembler
                .next_request()
                .expect("well-formed")
                .expect("complete")
        });
        let (handle, reply) = heap_traffic(|| service.handle(&request, &shutdown));
        assert_eq!(reply.status, 200);
        out.clear();
        let (serialize, ()) = heap_traffic(|| {
            write_response_with(
                &mut out,
                reply.status,
                reply.reason,
                reply.content_type,
                &reply.headers,
                reply.body.as_bytes(),
                true,
            )
            .expect("serializing to a Vec cannot fail")
        });
        assert!(out.starts_with(b"HTTP/1.1 200 OK\r\n"));
        let (release, ()) = heap_traffic(|| drop((request, reply)));
        (parse, handle, serialize, release)
    };
    for _ in 0..10 {
        for bytes in &wire {
            serve(bytes);
        }
    }
    for bytes in &wire {
        let (parse, handle, serialize, release) = serve(bytes);
        println!("parse {parse:?} handle {handle:?} serialize {serialize:?} release {release:?}");
        // The owned `Request`: method, target, the header list, two
        // `String`s per header, the body. Nothing else survives the
        // parse and nothing is freed by it.
        assert_eq!(parse, (14, 0), "parse");
        assert_eq!(handle.0, 5, "handle");
        assert_eq!(serialize, (0, 0), "serialize");
        // Request and reply go back to this thread's heap, to the
        // block: the path leaks nothing and frees nothing of another
        // thread's.
        let allocated = parse.0 + handle.0 + serialize.0 + release.0;
        let freed = parse.1 + handle.1 + serialize.1 + release.1;
        assert_eq!(
            allocated, freed,
            "blocks allocated and freed on this thread"
        );
    }
}
