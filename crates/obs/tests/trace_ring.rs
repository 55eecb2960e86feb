//! The tracer's slot rings: each thread copies its finished traces
//! into its own ring of `capacity` slots, overwritten in place oldest
//! first, and readers merge the rings by finish number. These tests pin
//! what that must not change — which traces are retained, in what
//! order, what is counted as dropped, and the bytes a retained trace
//! renders to — and that a handle reused for the thread's next request
//! carries nothing over.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier, Mutex};
use tt_obs::{AttrValue, RequestTrace, TraceContext, TraceHandle, Tracer};

/// Counts this thread's allocations, so a test can tell a reused
/// handle from a new one. The counter is a `const`-initialized non-`Drop`
/// thread-local, so touching it from inside the allocator cannot
/// itself allocate or recurse.
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

/// Allocations the current thread made while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    (ALLOCATED.with(Cell::get) - before, result)
}

fn int_attr(trace: &RequestTrace, span: u32, key: &str) -> Option<i64> {
    trace.attrs(span).find_map(|(k, v)| match v {
        AttrValue::Int(n) if k == key => Some(n),
        _ => None,
    })
}

#[test]
fn concurrent_finishes_keep_each_threads_latest_and_count_the_rest_dropped() {
    const THREADS: usize = 4;
    const PER_THREAD: i64 = 500;
    const CAPACITY: usize = 64;
    let tracer = Arc::new(Tracer::new(CAPACITY));
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS as i64)
        .map(|thread| {
            let (tracer, start) = (Arc::clone(&tracer), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for seq in 0..PER_THREAD {
                    let handle = tracer.begin();
                    let root = handle.open("request", None, seq as u64);
                    handle.attr_int(root, "thread", thread);
                    handle.attr_int(root, "seq", seq);
                    // A shape that differs by thread and by request, so
                    // a torn or misfiled copy cannot pass for whole.
                    for child in 0..=(thread + seq) % 3 {
                        let id = handle.open("stage", Some(root), seq as u64);
                        handle.attr_int(id, "seq", seq);
                        handle.attr_text(id, "tag", format_args!("{thread}/{seq}/{child}"));
                        handle.close(id, seq as u64 + 1);
                    }
                    handle.close(root, seq as u64 + 2);
                    tracer.finish(&handle);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }

    let finished = (THREADS as i64 * PER_THREAD) as u64;
    assert_eq!(tracer.finished_count(), finished);
    assert_eq!(tracer.dropped_traces(), finished - CAPACITY as u64);
    let retained = tracer.recent(usize::MAX);
    assert_eq!(retained.len(), CAPACITY);

    // The ring holds the most recent finishes: of each thread, then,
    // its last few, consecutive and in order, up to its very last.
    let mut kept_of = vec![Vec::new(); THREADS];
    for trace in &retained {
        let thread = int_attr(trace, 0, "thread").expect("thread attr");
        let seq = int_attr(trace, 0, "seq").expect("seq attr");
        kept_of[thread as usize].push(seq);
        // And every copy is whole.
        let stages = 1 + (thread + seq) % 3;
        assert_eq!(trace.spans.len() as i64, 1 + stages);
        for (child, span) in trace.spans_named("stage").enumerate() {
            assert_eq!(int_attr(trace, span.id, "seq"), Some(seq));
            let tag = format!("{thread}/{seq}/{child}");
            assert!(trace
                .attrs(span.id)
                .any(|(k, v)| k == "tag" && v == AttrValue::Str(&tag)));
        }
    }
    for kept in kept_of {
        let first = PER_THREAD - kept.len() as i64;
        assert_eq!(kept, (first..PER_THREAD).collect::<Vec<_>>());
    }
}

fn finish_one(tracer: &Tracer, context: Option<TraceContext>) -> u64 {
    let handle = match context {
        Some(context) => tracer.begin_remote(context),
        None => tracer.begin(),
    };
    handle.span("request", None, 0, 1);
    tracer.finish(&handle);
    handle.request_id()
}

#[test]
fn recent_and_find_read_the_slots_in_finish_order_across_wrap_around() {
    let ids =
        |traces: Vec<RequestTrace>| -> Vec<u64> { traces.iter().map(|t| t.request_id).collect() };
    let joined = TraceContext {
        trace_id: 9_001,
        parent_span: Some(3),
        hop: 1,
    };
    let tracer = Tracer::new(4);

    // Not yet full.
    finish_one(&tracer, None);
    finish_one(&tracer, Some(joined));
    finish_one(&tracer, None);
    assert_eq!(ids(tracer.recent(10)), [1, 2, 3]);
    assert_eq!(ids(tracer.recent(2)), [2, 3]);
    assert!(tracer.recent(0).is_empty());
    assert_eq!(ids(tracer.find(1)), [1]);
    assert_eq!(ids(tracer.find(9_001)), [2]);
    assert_eq!(tracer.dropped_traces(), 0);

    // Exactly full, then wrapped by two: requests 1 and 2 are gone.
    finish_one(&tracer, None);
    assert_eq!(ids(tracer.recent(10)), [1, 2, 3, 4]);
    assert_eq!(tracer.dropped_traces(), 0);
    finish_one(&tracer, Some(joined));
    finish_one(&tracer, Some(joined));
    assert_eq!(ids(tracer.recent(10)), [3, 4, 5, 6]);
    assert_eq!(ids(tracer.recent(1)), [6]);
    assert_eq!(ids(tracer.recent(3)), [4, 5, 6]);
    assert!(tracer.find(1).is_empty());
    assert_eq!(ids(tracer.find(4)), [4]);
    assert_eq!(ids(tracer.find(9_001)), [5, 6]);
    assert_eq!(tracer.finished_count(), 6);
    assert_eq!(tracer.dropped_traces(), 2);

    // Many laps later the order still follows the finishes.
    for _ in 0..9 {
        finish_one(&tracer, None);
    }
    assert_eq!(ids(tracer.recent(10)), [12, 13, 14, 15]);
    assert_eq!(tracer.dropped_traces(), 11);
}

/// A trace exercising every part of the record: static labels, text
/// that needs escaping, a negative integer, an attribute attached to a
/// parent after its child opened, an unclosed span, a span without
/// attributes.
fn build_reference(handle: &TraceHandle) {
    let root = handle.open("execute", None, 100);
    handle.attr_str(root, "objective", "response-time");
    handle.attr_int(root, "tolerance_milli", -5);
    let call = handle.open("model_call", Some(root), 110);
    handle.attr_int(call, "version", 2);
    handle.attr_text(root, "note", "quo\"te\\back\nline\ttab\u{1}ctl \u{e9}");
    handle.attr_str(call, "outcome", "ok");
    handle.close(call, 150);
    let open = handle.open("straggler", Some(call), 160);
    handle.attr_text(open, "policy", format_args!("{:?}", Some(1.5)));
    handle.span("bill", Some(root), 170, 171);
    handle.close(root, 200);
}

/// What the renderer before the flat record printed for
/// [`build_reference`] on request 12 of trace 77.
const REFERENCE_LINE: &str = r#"{"request_id": 12, "trace_id": 77, "hop": 1, "parent_span": 3, "spans": [{"id": 0, "parent": null, "name": "execute", "start_us": 100, "end_us": 200, "attrs": {"objective": "response-time", "tolerance_milli": -5, "note": "quo\"te\\back\nline\ttab\u0001ctl é"}}, {"id": 1, "parent": 0, "name": "model_call", "start_us": 110, "end_us": 150, "attrs": {"version": 2, "outcome": "ok"}}, {"id": 2, "parent": 1, "name": "straggler", "start_us": 160, "end_us": null, "attrs": {"policy": "Some(1.5)"}}, {"id": 3, "parent": 0, "name": "bill", "start_us": 170, "end_us": 171}]}"#;

#[test]
fn a_retained_trace_renders_the_line_its_handle_rendered() {
    let handle = TraceHandle::detached_with_context(
        12,
        TraceContext {
            trace_id: 77,
            parent_span: Some(3),
            hop: 1,
        },
    );
    build_reference(&handle);
    assert_eq!(handle.snapshot().to_json_line(), REFERENCE_LINE);

    // Through the ring and the file sink, with slots that already held
    // other shapes — more spans than a handle keeps inline among them.
    let dir = std::env::temp_dir().join("tt-obs-trace-ring-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let tracer = Tracer::new(2).with_file_sink(&path).unwrap();
    let mut lines = Vec::new();
    for round in 0..5u64 {
        let handle = tracer.begin();
        if round % 2 == 0 {
            build_reference(&handle);
        } else {
            let root = handle.open("request", None, round);
            for hop in 0..12 {
                let id = handle.open("hop", Some(root), round + hop);
                handle.attr_text(id, "label", format_args!("hop {hop} of round {round}"));
            }
        }
        let before = handle.snapshot();
        lines.push(before.to_json_line());
        tracer.finish(&handle);
        let retained = tracer.recent(1).pop().expect("just finished");
        assert_eq!(retained, before);
        assert_eq!(&retained.to_json_line(), lines.last().unwrap());
    }
    assert_eq!(tracer.recent(2)[0].to_json_line(), lines[3]);
    assert!(tracer.sink_healthy());
    let sunk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(sunk.lines().collect::<Vec<_>>(), lines);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn work_on_a_surviving_clone_after_finish_leaves_the_published_copy_alone() {
    let tracer = Tracer::new(4);
    let handle = tracer.begin();
    let root = handle.open("request", None, 0);
    let hedge = handle.open("model_call", Some(root), 1);
    handle.close(root, 5);
    let loser = handle.clone();
    tracer.finish(&handle);
    let published = tracer.recent(1).pop().expect("retained");
    assert!(!published.spans[hedge as usize].closed());

    // The cancelled hedge call comes home late.
    loser.close(hedge, 9);
    loser.attr_str(hedge, "outcome", "cancelled");
    loser.attr_text(root, "note", "late");
    loser.open("straggler", Some(root), 10);
    assert_eq!(tracer.recent(1).pop().expect("retained"), published);
    assert!(published
        .to_json_line()
        .contains("\"name\": \"model_call\", \"start_us\": 1, \"end_us\": null}"));
    assert_eq!(tracer.finished_count(), 1);
}

/// A trace with a bit of everything, in a remote context: more spans
/// than a handle keeps inline, labels, text and an open span — all of
/// which a handle recycled from it must forget.
fn rich(tracer: &Tracer) -> TraceHandle {
    let handle = tracer.begin_remote(TraceContext {
        trace_id: 4_242,
        parent_span: Some(7),
        hop: 2,
    });
    let root = handle.open("request", None, 10);
    handle.attr_str(root, "outcome", "ok");
    handle.attr_text(root, "note", format_args!("previous request {}", 1));
    for stage in 0..12 {
        let id = handle.span("stage", Some(root), 11 + stage, 12 + stage);
        handle.attr_int(id, "stage", stage as i64);
    }
    handle.open("straggler", Some(root), 30);
    handle
}

/// The same small trace on `handle`: a root with a text attribute.
fn small(handle: &TraceHandle) {
    let root = handle.open("request", None, 1);
    handle.attr_text(root, "note", "fresh");
    handle.close(root, 2);
}

#[test]
fn a_recycled_handle_carries_nothing_from_its_previous_request() {
    let tracer = Tracer::new(8);
    for remote in [
        None,
        Some(TraceContext {
            trace_id: 9,
            parent_span: Some(1),
            hop: 1,
        }),
    ] {
        // The rich trace's handle becomes this thread's spare.
        tracer.retire(rich(&tracer));
        let previous = tracer.recent(1).pop().expect("retained");
        assert_eq!(previous.spans.len(), 14);

        // The next begin reuses it: not one block is made.
        let (allocated, handle) = allocations(|| match remote {
            Some(context) => tracer.begin_remote(context),
            None => tracer.begin(),
        });
        assert_eq!(allocated, 0, "begin reused the thread's spare");
        let id = handle.request_id();
        assert_eq!(id, previous.request_id + 1);
        let context = remote.unwrap_or(TraceContext::local(id));
        assert_eq!(handle.context(), context);
        assert_eq!(
            handle.snapshot(),
            TraceHandle::detached_with_context(id, context).snapshot(),
            "no span, attribute or text survives"
        );

        // What it publishes is exactly what a new handle would: the
        // record's spans, attributes and text all compare.
        let reference = TraceHandle::detached_with_context(id, context);
        small(&reference);
        small(&handle);
        tracer.retire(handle);
        assert_eq!(
            tracer.recent(1).pop().expect("retained"),
            reference.snapshot()
        );
    }
}

#[test]
fn a_handle_with_a_live_clone_is_not_recycled_and_its_late_spans_publish_nowhere() {
    let tracer = Tracer::new(16);
    // This thread has a spare.
    let warm = tracer.begin();
    warm.span("request", None, 0, 1);
    tracer.retire(warm);

    let handle = tracer.begin();
    let root = handle.open("request", None, 2);
    let raced = handle.clone();
    handle.close(root, 5);
    tracer.retire(handle);

    // The clone held the handle at the seal, so it is not this thread's
    // spare: the next request's handle is a new block.
    let (allocated, next) = allocations(|| tracer.begin());
    assert!(allocated > 0, "a handle with a live clone became the spare");

    // The raced stage comes home late, on another thread, while this
    // thread serves its next request and the one after.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let id = raced.open("straggler", Some(root), 6);
            raced.attr_str(id, "outcome", "late");
            raced.attr_text(root, "note", "late");
            raced.close(id, 7);
        });
    });
    next.span("request", None, 10, 11);
    tracer.retire(next);
    drop(raced);
    let after = tracer.begin();
    after.span("request", None, 20, 21);
    tracer.retire(after);

    let published = tracer.recent(usize::MAX);
    assert_eq!(published.len(), 4);
    for trace in &published {
        assert_eq!(trace.spans.len(), 1, "{}", trace.to_json_line());
        assert!(trace.attrs(0).next().is_none(), "{}", trace.to_json_line());
    }
}

#[test]
fn the_merged_rings_hold_exactly_the_newest_traces_in_finish_order() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 300;
    const CAPACITY: usize = 50;
    let tracer = Tracer::new(CAPACITY);
    // `(request_id, trace_id)` in finish order: each finish happens
    // under this lock, so the log is the order, while the threads still
    // finish into their own rings, interleaved.
    let log = Mutex::new(Vec::new());
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS as u64 {
            let (tracer, log, start) = (&tracer, &log, &start);
            scope.spawn(move || {
                start.wait();
                for seq in 0..PER_THREAD {
                    // Every third request joins its thread's fleet trace.
                    let handle = if seq % 3 == 0 {
                        tracer.begin_remote(TraceContext {
                            trace_id: 1_000_000 + thread,
                            parent_span: Some(seq as u32),
                            hop: 1,
                        })
                    } else {
                        tracer.begin()
                    };
                    handle.span("request", None, seq, seq + 1);
                    let entry = (handle.request_id(), handle.trace_id());
                    let mut log = log.lock().unwrap();
                    tracer.retire(handle);
                    log.push(entry);
                }
            });
        }
    });
    let log = log.into_inner().unwrap();
    let ids =
        |traces: Vec<RequestTrace>| -> Vec<u64> { traces.iter().map(|t| t.request_id).collect() };
    let finished = THREADS as u64 * PER_THREAD;
    assert_eq!(tracer.finished_count(), finished);
    assert_eq!(tracer.dropped_traces(), finished - CAPACITY as u64);

    let newest = &log[log.len() - CAPACITY..];
    let newest_ids: Vec<u64> = newest.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids(tracer.recent(CAPACITY)), newest_ids);
    assert_eq!(ids(tracer.recent(usize::MAX)), newest_ids);
    assert_eq!(ids(tracer.recent(7)), newest_ids[CAPACITY - 7..]);

    // `find` sees every retained trace and no other.
    for &(id, trace_id) in &log {
        let found = tracer.find(trace_id).iter().any(|t| t.request_id == id);
        assert_eq!(found, newest_ids.contains(&id), "request {id}");
    }
    for thread in 0..THREADS as u64 {
        let fleet = 1_000_000 + thread;
        let expected: Vec<u64> = newest
            .iter()
            .filter(|&&(_, trace_id)| trace_id == fleet)
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(ids(tracer.find(fleet)), expected, "fleet trace {fleet}");
    }
}
