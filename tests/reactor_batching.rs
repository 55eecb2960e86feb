//! End-to-end determinism contract for the epoll reactor and the
//! request batcher: serving a seeded mixed-tier load through the
//! reactor (with batching enabled) must bill bit-identically per tier
//! and in compute cost, and render a byte-identical `/metrics`
//! `"totals"` object, to the same requests answered one by one in
//! process through `HttpHandler::handle` — batch membership and
//! dispatch may change wall-clock timing, never an accounted or billed
//! value. Strict tolerance-0 requests must never hop through the
//! batcher at all, which the trace spans prove.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::obs::ObsConfig;
use tt_net::server::{HttpHandler, Server, ServerConfig};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::{BatchConfig, Request};
use tt_obs::{AttrValue, RequestTrace};

const PAYLOADS: usize = 120;
const SEED: u64 = 2024;
const REQUESTS: usize = 300;
const LOAD_SEED: u64 = 7;

/// Everything the parity assertions need from one served load.
struct EngineRun {
    /// Per-(objective, tolerance-milli) tier: `(requests, revenue bits)`.
    tiers: BTreeMap<(String, u32), (usize, u64)>,
    /// Total revenue, bitwise.
    revenue_bits: u64,
    /// Compute cost, bitwise.
    compute_cost_bits: u64,
    /// The `/metrics` `"totals"` object, byte-for-byte.
    totals: String,
    /// Finished request traces (newest-first ring contents).
    traces: Vec<RequestTrace>,
}

fn service(batching: bool) -> Arc<ComputeService> {
    Arc::new(tt_net::demo::demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            batch: BatchConfig {
                enabled: batching,
                ..BatchConfig::defaults()
            },
            obs: ObsConfig {
                trace_capacity: REQUESTS + 16,
                ..ObsConfig::defaults()
            },
            ..ServiceConfig::defaults()
        },
    ))
}

/// One full serve-and-drain cycle on the reactor with batching on.
fn run_reactor(http_workers: usize) -> EngineRun {
    let service = service(true);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            http_workers,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let running = server.spawn();

    let report = run_load(running.addr(), &load()).expect("load run");
    assert_eq!(report.sent, REQUESTS, "the reactor dropped requests");
    assert_eq!(
        report.ok, REQUESTS,
        "the reactor must answer every request 200"
    );

    // Snapshot /metrics before stopping — the totals object is part of
    // the determinism signature.
    let mut stream = TcpStream::connect(running.addr()).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send metrics");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let metrics = read_response(&mut reader, &Limits::default()).expect("metrics response");
    assert_eq!(metrics.status, 200);
    let run = billed(&service, &metrics.text());
    running.stop().expect("graceful stop");
    run
}

/// The reference: the load's requests, in plan order, answered one at
/// a time in process by an unbatched twin.
fn run_in_process() -> EngineRun {
    let service = service(false);
    let off = AtomicBool::new(false);
    let plan = load();
    let requests = plan
        .mix
        .sample_keyed(REQUESTS, PAYLOADS, LOAD_SEED, &plan.keyspace);
    for request in &requests {
        let body = format!("payload-{}", request.payload);
        let reply = service.handle(
            &http_request(
                "POST",
                "/compute",
                &[
                    ("Tolerance", request.tolerance.value().to_string()),
                    ("Objective", request.objective.to_string()),
                    ("Payload", request.payload.to_string()),
                ],
                body.into_bytes(),
            ),
            &off,
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    let metrics = service.handle(&http_request("GET", "/metrics", &[], Vec::new()), &off);
    assert_eq!(metrics.status, 200);
    billed(&service, &metrics.body)
}

/// The seeded mixed-tier load both sides serve.
fn load() -> LoadConfig {
    LoadConfig::closed(REQUESTS, 6, PAYLOADS, LOAD_SEED)
}

fn http_request(method: &str, target: &str, headers: &[(&str, String)], body: Vec<u8>) -> Request {
    Request {
        method: method.to_string(),
        target: target.to_string(),
        headers: headers
            .iter()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .collect(),
        body,
        keep_alive: true,
    }
}

/// What `service` billed, its `/metrics` totals out of `metrics_body`,
/// and its retained traces.
fn billed(service: &ComputeService, metrics_body: &str) -> EngineRun {
    let snapshot = service.snapshot();
    EngineRun {
        tiers: snapshot
            .billing
            .tiers
            .iter()
            .map(|(k, v)| (k.clone(), (v.requests, v.revenue.as_dollars().to_bits())))
            .collect(),
        revenue_bits: snapshot.billing.revenue.as_dollars().to_bits(),
        compute_cost_bits: snapshot.billing.compute_cost.as_dollars().to_bits(),
        totals: extract_totals(metrics_body),
        traces: service
            .observability()
            .expect("observability enabled by default")
            .tracer()
            .recent(REQUESTS + 16),
    }
}

/// The balanced `"totals": { ... }` object out of the `/metrics` body.
fn extract_totals(body: &str) -> String {
    let start = body.find("\"totals\": {").expect("totals present");
    let mut depth = 0usize;
    for (i, ch) in body[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return body[start..start + i + 1].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced totals object");
}

fn tolerance_milli(trace: &RequestTrace) -> Option<i64> {
    let execute = trace.span("execute")?;
    trace
        .attrs(execute.id)
        .find_map(|(key, value)| match value {
            AttrValue::Int(v) if key == "tolerance_milli" => Some(v),
            _ => None,
        })
}

/// The contract the batcher must never break: identical billing and
/// identical `/metrics` totals whether or not requests were coalesced,
/// at one HTTP worker and at four.
#[test]
fn reactor_with_batching_bills_bit_identically_to_in_process_handle() {
    let reference = run_in_process();
    for http_workers in [1usize, 4] {
        let reactor = run_reactor(http_workers);

        assert_eq!(
            reference.tiers, reactor.tiers,
            "per-tier billed totals diverged at {http_workers} workers"
        );
        assert_eq!(
            reference.revenue_bits, reactor.revenue_bits,
            "total revenue diverged bitwise at {http_workers} workers"
        );
        assert_eq!(
            reference.compute_cost_bits, reactor.compute_cost_bits,
            "compute cost diverged bitwise at {http_workers} workers"
        );
        assert_eq!(
            reference.totals, reactor.totals,
            "/metrics totals diverged at {http_workers} workers"
        );
    }
}

/// Strict tolerance-0 requests bypass the batch queue entirely: their
/// traces carry no `batch` span. Tolerant requests do hop through it,
/// proving the parity above was exercised against real coalescing, not
/// a disabled batcher.
#[test]
fn strict_tier_requests_never_hop_through_the_batcher() {
    let reactor = run_reactor(4);

    let mut strict_seen = 0usize;
    let mut batched_seen = 0usize;
    for trace in &reactor.traces {
        let Some(milli) = tolerance_milli(trace) else {
            continue;
        };
        let hops = trace.spans_named("batch").count();
        if milli == 0 {
            strict_seen += 1;
            assert_eq!(
                hops, 0,
                "tolerance-0 request {} went through the batcher",
                trace.request_id
            );
        } else {
            batched_seen += hops;
        }
    }
    assert!(
        strict_seen > 0,
        "the mixed load must include strict-tier requests"
    );
    assert!(
        batched_seen > 0,
        "no tolerant request was batched — the reactor async path did not engage"
    );
}
