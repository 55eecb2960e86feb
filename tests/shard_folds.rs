//! The settle path and the telemetry window keep one shard of their
//! books per serving thread and fold the shards only when something
//! reads them. This holds the folds to the repository's determinism
//! contract: one request multiset, served through
//! `HttpHandler::handle` on one service by 1, 2 and 4 threads at once
//! (and sealed into telemetry windows while they run), reads back
//! byte-identically to the one-thread run on every surface that is
//! documented as not depending on thread interleaving — the `/stats`
//! document bar its uptime, the `/metrics` `"totals"`, the
//! `/metrics/windows` cumulative fold, and the snapshot's billing and
//! resilience counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use tt_net::server::HttpHandler;
use tt_net::service::ServiceConfig;
use tt_net::Request;
use tt_workloads::RequestMix;

const PAYLOADS: usize = 120;
const SEED: u64 = 2024;
const REQUESTS: usize = 2_000;
const MIX_SEED: u64 = 45;

fn get(target: &str) -> Request {
    Request {
        method: "GET".into(),
        target: target.into(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    }
}

fn requests() -> Vec<Request> {
    RequestMix::representative()
        .sample(REQUESTS, PAYLOADS, MIX_SEED)
        .into_iter()
        .map(|r| Request {
            method: "POST".into(),
            target: "/compute".into(),
            headers: vec![
                ("Tolerance".into(), r.tolerance.value().to_string()),
                ("Objective".into(), r.objective.to_string()),
                ("Payload".into(), r.payload.to_string()),
            ],
            body: format!("payload-{}", r.payload).into_bytes(),
            keep_alive: true,
        })
        .collect()
}

/// The balanced JSON object that starts at `key` in `body`.
fn object_at(body: &str, key: &str) -> String {
    let start = body.find(key).unwrap_or_else(|| panic!("{key} present"));
    let mut depth = 0usize;
    for (i, ch) in body[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return body[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced {key} object");
}

/// `body` with its `"uptime_ms": N` field's value blanked.
fn without_uptime(body: &str) -> String {
    let key = "\"uptime_ms\": ";
    let start = body.find(key).expect("uptime present") + key.len();
    let digits = body[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("uptime is followed by more document");
    format!("{}{}", &body[..start], &body[start + digits..])
}

/// Every fold, rendered, after `threads` threads served `requests`
/// between them while a heartbeat sealed telemetry windows.
fn folds(threads: usize, requests: &[Request]) -> Vec<(&'static str, String)> {
    let service = tt_net::demo::demo_service(PAYLOADS, SEED, ServiceConfig::defaults());
    let off = AtomicBool::new(false);
    let windows = service
        .observability()
        .expect("observability enabled by default")
        .windows();
    let serving = AtomicBool::new(true);
    // The workers and the heartbeat start together.
    let start = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (service, off, start) = (&service, &off, &start);
                scope.spawn(move || {
                    start.wait();
                    for request in requests.iter().skip(t).step_by(threads) {
                        assert_eq!(service.handle(request, off).status, 200);
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            start.wait();
            let mut now_us = 0;
            while serving.load(Ordering::SeqCst) {
                now_us += windows.window_us();
                windows.tick(now_us);
                std::thread::yield_now();
            }
        });
        for worker in workers {
            worker.join().expect("a serving thread panicked");
        }
        serving.store(false, Ordering::SeqCst);
    });
    let read = |target: &str| {
        let reply = service.handle(&get(target), &off);
        assert_eq!(reply.status, 200, "{target}");
        reply.body
    };
    let snapshot = service.snapshot();
    assert_eq!(snapshot.served, requests.len());
    vec![
        ("/stats", without_uptime(&read("/stats"))),
        (
            "/metrics totals",
            object_at(&read("/metrics"), "\"totals\": {"),
        ),
        (
            "/metrics/windows cumulative",
            object_at(&read("/metrics/windows"), "\"cumulative\": {"),
        ),
        ("billing", format!("{:?}", snapshot.billing)),
        ("resilience", format!("{:?}", snapshot.resilience)),
    ]
}

#[test]
fn folds_do_not_depend_on_how_many_threads_served() {
    let requests = requests();
    let reference = folds(1, &requests);
    for threads in [2, 4] {
        for ((surface, one), (_, many)) in reference.iter().zip(folds(threads, &requests)) {
            assert_eq!(
                *one, many,
                "{surface} read differently after {threads} threads served"
            );
        }
    }
}
