//! End-to-end determinism contract for the epoll reactor and the
//! request batcher: serving the same seeded mixed-tier load through the
//! reactor engine (with batching enabled) and through the legacy
//! threaded engine must produce bit-identical per-tier billing and a
//! byte-identical `/metrics` `"totals"` object — batch membership may
//! change wall-clock timing, never an accounted or billed value. Strict
//! tolerance-0 requests must never hop through the batcher at all,
//! which the trace spans prove.
//!
//! On non-Linux targets `Engine::Reactor` falls back to the threaded
//! loop, so the parity assertions hold trivially; the batching
//! assertions are gated to Linux where the reactor actually runs.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::obs::ObsConfig;
use tt_net::server::{Engine, Server, ServerConfig};
use tt_net::service::ServiceConfig;
use tt_net::BatchConfig;
use tt_obs::{AttrValue, RequestTrace};

const PAYLOADS: usize = 120;
const SEED: u64 = 2024;
const REQUESTS: usize = 300;
const LOAD_SEED: u64 = 7;

/// One full serve-and-drain cycle; returns everything the parity
/// assertions need.
struct EngineRun {
    /// Per-(objective, tolerance-milli) tier: `(requests, revenue bits)`.
    tiers: BTreeMap<(String, u32), (usize, u64)>,
    /// Total revenue, bitwise.
    revenue_bits: u64,
    /// The `/metrics` `"totals"` object, byte-for-byte.
    totals: String,
    /// Finished request traces (newest-first ring contents).
    traces: Vec<RequestTrace>,
}

fn run_engine(engine: Engine, batching: bool, http_workers: usize) -> EngineRun {
    let service = Arc::new(tt_net::demo::demo_service(
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
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            engine,
            http_workers,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let running = server.spawn();

    let report = run_load(
        running.addr(),
        &LoadConfig::closed(REQUESTS, 6, PAYLOADS, LOAD_SEED),
    )
    .expect("load run");
    assert_eq!(report.sent, REQUESTS, "engine {engine:?} dropped requests");
    assert_eq!(
        report.ok, REQUESTS,
        "engine {engine:?} must answer every request 200"
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
    let totals = extract_totals(&metrics.text());

    let snapshot = service.snapshot();
    let tiers = snapshot
        .billing
        .tiers
        .iter()
        .map(|(k, v)| (k.clone(), (v.requests, v.revenue.as_dollars().to_bits())))
        .collect();
    let traces = service
        .observability()
        .expect("observability enabled by default")
        .tracer()
        .recent(REQUESTS + 16);
    running.stop().expect("graceful stop");
    EngineRun {
        tiers,
        revenue_bits: snapshot.billing.revenue.as_dollars().to_bits(),
        totals,
        traces,
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
fn reactor_with_batching_bills_bit_identically_to_threaded() {
    for http_workers in [1usize, 4] {
        let threaded = run_engine(Engine::Threaded, false, http_workers);
        let reactor = run_engine(Engine::Reactor, true, http_workers);

        assert_eq!(
            threaded.tiers, reactor.tiers,
            "per-tier billed totals diverged at {http_workers} workers"
        );
        assert_eq!(
            threaded.revenue_bits, reactor.revenue_bits,
            "total revenue diverged bitwise at {http_workers} workers"
        );
        assert_eq!(
            threaded.totals, reactor.totals,
            "/metrics totals diverged at {http_workers} workers"
        );
    }
}

/// Strict tolerance-0 requests bypass the batch queue entirely: their
/// traces carry no `batch` span. Tolerant requests do hop through it
/// (on Linux, where the reactor drives the async path), proving the
/// parity above was exercised against real coalescing, not a disabled
/// batcher.
#[test]
fn strict_tier_requests_never_hop_through_the_batcher() {
    let reactor = run_engine(Engine::Reactor, true, 4);

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
    if cfg!(target_os = "linux") {
        assert!(
            batched_seen > 0,
            "no tolerant request was batched — the reactor async path did not engage"
        );
    }
}
