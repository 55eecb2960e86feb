//! The complete wire bytes of every kind of `/compute` reply — status
//! line, every header in order, body — pinned against
//! `golden/compute_replies.txt`, which was recorded from the tree that
//! built replies as a `JsonObject` and formatted the response head
//! line by line.
//!
//! Both handler entry points must reproduce the file through the
//! reactor's `serialize_reply`: the synchronous `HttpHandler::handle`,
//! and `handle_async` (on a twin service that batches, as the reactor
//! deployment does). Everything a reply carries is a
//! function of the request sequence — request ids count up, latencies
//! are the profiled ones — so the scenarios run in a fixed order on
//! fresh services.

// The reactor (and so `serialize_reply`) exists on Linux only, which is
// also the only platform CI runs.
#![cfg(target_os = "linux")]

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tt_net::admission::AdmissionConfig;
use tt_net::batch::BatchConfig;
use tt_net::demo::demo_service;
use tt_net::obs::ObsConfig;
use tt_net::server::{HttpHandler, Reply};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::Request;
use tt_serve::resilience::RetryPolicy;
use tt_sim::{FaultPlan, FaultRates};

const PAYLOADS: usize = 60;
const SEED: u64 = 9;

/// How a scenario's reply goes from the handler to bytes.
#[derive(Clone, Copy)]
enum Path {
    /// `handle` + the reactor's `serialize_reply`.
    Sync,
    /// `handle_async` + the reactor's `serialize_reply`.
    Reactor,
}

fn request(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Request {
    Request {
        method: method.to_string(),
        target: target.to_string(),
        headers: headers
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

fn serve(path: Path, service: &ComputeService, request: &Request, keep_alive: bool) -> Vec<u8> {
    let off = AtomicBool::new(false);
    let is_head = request.method == "HEAD";
    let reply = match path {
        Path::Sync => service.handle(request, &off),
        Path::Reactor => {
            let (tx, rx) = std::sync::mpsc::channel::<Reply>();
            service.handle_async(
                request,
                &off,
                Box::new(move |reply| tx.send(reply).expect("the test is listening")),
            );
            rx.recv().expect("handle_async completes exactly once")
        }
    };
    tt_net::reactor::serialize_reply(&reply, is_head, keep_alive)
}

fn config(path: Path, obs: bool) -> ServiceConfig {
    ServiceConfig {
        obs: if obs {
            ObsConfig::defaults()
        } else {
            ObsConfig::disabled()
        },
        batch: BatchConfig {
            enabled: matches!(path, Path::Reactor),
            ..BatchConfig::defaults()
        },
        ..ServiceConfig::defaults()
    }
}

/// Every scenario's bytes under one observability setting, as the
/// golden file spells them: a `=== name` line, then the reply with
/// each `\r` written out as the two characters `\r`.
fn document(path: Path, obs: bool) -> String {
    let mut out = String::new();
    let mut record = |name: &str, wire: Vec<u8>| {
        let text = String::from_utf8(wire).expect("replies are UTF-8");
        out.push_str("=== ");
        out.push_str(if obs { "obs on: " } else { "obs off: " });
        out.push_str(name);
        out.push('\n');
        out.push_str(&text.replace('\r', "\\r"));
        out.push_str("\n--- end\n");
    };
    let strict = [
        ("Tolerance", "0"),
        ("Objective", "response-time"),
        ("Payload", "3"),
    ];
    let tolerant = [
        ("Tolerance", "0.10"),
        ("Objective", "response-time"),
        ("Payload", "7"),
    ];
    let cost = [
        ("Tolerance", "0.05"),
        ("Objective", "cost"),
        ("Payload", "3"),
    ];

    // A calm service: the tiers, the 400s, HEAD, and the two
    // `Connection` values.
    let plain = demo_service(PAYLOADS, SEED, config(path, obs));
    let post = |headers: &[(&str, &str)], body: &[u8]| request("POST", "/compute", headers, body);
    record(
        "strict 200",
        serve(path, &plain, &post(&strict, b"in"), true),
    );
    record(
        "strict 200, Connection: close",
        serve(path, &plain, &post(&strict, b"in"), false),
    );
    record(
        "10 % cascade 200",
        serve(path, &plain, &post(&tolerant, b"in"), true),
    );
    record(
        "unannotated 200 (hashed payload)",
        serve(path, &plain, &post(&[], b"opaque bytes"), true),
    );
    record(
        "joined to a remote trace",
        serve(
            path,
            &plain,
            &post(
                &[
                    ("Tolerance", "0.01"),
                    ("Objective", "cost"),
                    ("Payload", "11"),
                    ("X-Trace-Id", "9001"),
                    ("X-Parent-Span", "4/2"),
                ],
                b"in",
            ),
            true,
        ),
    );
    record(
        "400 bad Tolerance",
        serve(
            path,
            &plain,
            &post(&[("Tolerance", "\"lots\"\t"), ("Payload", "1")], b""),
            true,
        ),
    );
    record(
        "400 out-of-range Tolerance",
        serve(path, &plain, &post(&[("Tolerance", "-0.5")], b""), true),
    );
    record(
        "400 duplicate Objective",
        serve(
            path,
            &plain,
            &post(&[("Objective", "cost"), ("objective", "latency")], b""),
            true,
        ),
    );
    record(
        "400 bad Objective",
        serve(path, &plain, &post(&[("Objective", " Speed ")], b""), true),
    );
    record(
        "400 bad Payload",
        serve(
            path,
            &plain,
            &post(&[("Tolerance", "0.1"), ("Payload", "x\\y")], b""),
            true,
        ),
    );
    record(
        "400 malformed Rules-Epoch",
        serve(path, &plain, &post(&[("Rules-Epoch", "soon")], b""), true),
    );
    record(
        "409 stale Rules-Epoch",
        serve(path, &plain, &post(&[("Rules-Epoch", "99")], b""), true),
    );
    record(
        "HEAD /healthz",
        serve(path, &plain, &request("HEAD", "/healthz", &[], b""), true),
    );
    record(
        "GET /healthz, Connection: close",
        serve(path, &plain, &request("GET", "/healthz", &[], b""), false),
    );
    record(
        "405 GET /compute",
        serve(path, &plain, &request("GET", "/compute", &[], b""), true),
    );

    // The result cache in front: miss, both kinds of hit, bypass.
    let cached = demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            cache: Some(Arc::new(tt_cache::SemanticCache::new(
                tt_cache::CacheConfig::defaults(),
            ))),
            ..config(path, obs)
        },
    );
    record(
        "cache miss",
        serve(path, &cached, &post(&cost, b"q1"), true),
    );
    record(
        "cache hit, exact",
        serve(path, &cached, &post(&cost, b"q1"), true),
    );
    record(
        "cache hit, semantic",
        serve(path, &cached, &post(&cost, b"q2"), true),
    );
    let mut no_cache = cost.to_vec();
    no_cache.push(("Cache-Control", "no-cache"));
    record(
        "cache bypass",
        serve(path, &cached, &post(&no_cache, b"q1"), true),
    );

    // Admission under pressure: between the limit and `reject_factor`
    // times it a tolerant request is browned out, beyond it refused.
    let pressured = demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            admission: AdmissionConfig {
                initial_limit: 4,
                min_limit: 4,
                ..AdmissionConfig::defaults()
            },
            ..config(path, obs)
        },
    );
    let mut held: Vec<_> = (0..5).map(|_| pressured.admission().begin()).collect();
    record(
        "browned-out 200",
        serve(path, &pressured, &post(&tolerant, b"in"), true),
    );
    held.extend((0..5).map(|_| pressured.admission().begin()));
    record(
        "429 with Retry-After",
        serve(path, &pressured, &post(&tolerant, b"in"), true),
    );
    record(
        "strict 200 under the same pressure",
        serve(path, &pressured, &post(&strict, b"in"), true),
    );
    drop(held);

    // Every version crashes and nothing may degrade: 503.
    let faulty = demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            faults: Some(FaultPlan::new(5, vec![FaultRates::crash_only(1.0); 3])),
            retry: RetryPolicy::NONE,
            breaker: None,
            degrade: false,
            ..config(path, obs)
        },
    );
    record(
        "503 Unavailable",
        serve(path, &faulty, &post(&strict, b"in"), true),
    );
    out
}

fn replies(path: Path) -> String {
    let mut out = document(path, true);
    out.push_str(&document(path, false));
    out
}

const GOLDEN: &str = include_str!("golden/compute_replies.txt");

#[test]
fn handle_and_serialize_reply_reproduce_the_recorded_bytes() {
    let actual = replies(Path::Sync);
    assert!(actual == GOLDEN, "sync path diverged:\n{actual}");
}

#[test]
fn handle_async_and_serialize_reply_reproduce_the_recorded_bytes() {
    let actual = replies(Path::Reactor);
    assert!(actual == GOLDEN, "reactor path diverged:\n{actual}");
}

/// The file holds what the issue lists, so a scenario cannot silently
/// drop out of the recording.
#[test]
fn the_golden_covers_every_reply_kind() {
    for needle in [
        "HTTP/1.1 200 OK\\r\n",
        "HTTP/1.1 400 Bad Request\\r\n",
        "HTTP/1.1 429 Too Many Requests\\r\n",
        "HTTP/1.1 503 Service Unavailable\\r\n",
        "Brownout: ",
        "\"brownout\": ",
        "Retry-After: ",
        "X-Cache: hit\\r\nX-Cache-Match: exact\\r\n",
        "X-Cache: hit\\r\nX-Cache-Match: semantic\\r\n",
        "X-Cache: miss\\r\n",
        "X-Cache: bypass\\r\n",
        "X-Trace-Id: 9001\\r\n",
        "\"request_id\": ",
        "Connection: keep-alive\\r\n",
        "Connection: close\\r\n",
    ] {
        assert!(GOLDEN.contains(needle), "golden lacks {needle:?}");
    }
    let off = GOLDEN
        .split("=== obs off: ")
        .skip(1)
        .collect::<Vec<_>>()
        .join("");
    assert!(!off.contains("request_id") && !off.contains("X-Trace-Id"));
}
