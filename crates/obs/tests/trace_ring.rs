//! The tracer's slot ring: finished traces are copied into `capacity`
//! slots that are overwritten in place, oldest first. These tests pin
//! what that must not change — which traces are retained, in what
//! order, what is counted as dropped, and the bytes a retained trace
//! renders to.

use std::sync::{Arc, Barrier};
use tt_obs::{AttrValue, RequestTrace, TraceContext, TraceHandle, Tracer};

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
