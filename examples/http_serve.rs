//! Serving Tolerance Tiers over a real socket: boots the tt-net HTTP
//! server on loopback, issues the paper's example request for every
//! tier, drives the server with the load generator in both disciplines,
//! and drains it gracefully.
//!
//! Run with `cargo run --release -p tt-examples --bin http_serve`.
//!
//! While it runs you can talk to the printed address yourself, exactly
//! as the paper's API sketch suggests:
//!
//! ```text
//! curl -X POST http://127.0.0.1:PORT/compute \
//!      -H "Tolerance: 0.01" -H "Objective: response-time" -d "payload-7"
//! ```

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tt_examples::banner;
use tt_net::http::{read_response, Limits, Response};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::server::{Server, ServerConfig};
use tt_net::service::ServiceConfig;

const PAYLOADS: usize = 150;
const SEED: u64 = 7;

fn post_compute(
    addr: std::net::SocketAddr,
    tolerance: f64,
    objective: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST /compute HTTP/1.1\r\nTolerance: {tolerance}\r\nObjective: {objective}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut reader = BufReader::new(stream.try_clone()?);
    read_response(&mut reader, &Limits::default())
        .map_err(|e| std::io::Error::other(format!("{e:?}")))
}

/// Like [`post_compute`] but pins the payload with a `Payload` header,
/// so two different bodies can map to the same semantic key.
fn post_payload(
    addr: std::net::SocketAddr,
    tolerance: f64,
    payload: usize,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST /compute HTTP/1.1\r\nTolerance: {tolerance}\r\nObjective: cost\r\n\
         Payload: {payload}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut reader = BufReader::new(stream.try_clone()?);
    read_response(&mut reader, &Limits::default())
        .map_err(|e| std::io::Error::other(format!("{e:?}")))
}

/// The `X-Cache` disposition of a reply, as a display string.
fn cache_line(response: &Response) -> String {
    match response.header("x-cache") {
        Some(tag) => match response.header("x-cache-match") {
            Some(kind) => format!("{tag} ({kind})"),
            None => tag.to_string(),
        },
        None => "(no X-Cache header)".to_string(),
    }
}

fn get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n")?;
    let mut reader = BufReader::new(stream.try_clone()?);
    read_response(&mut reader, &Limits::default())
        .map_err(|e| std::io::Error::other(format!("{e:?}")))
}

/// Collapses a pretty-printed JSON body onto one line for display.
fn one_line(response: &Response) -> String {
    response
        .text()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("1. Boot the wire-protocol serving stack on loopback");
    // `TT_CACHE=1` puts the tier-aware semantic result cache ahead of
    // policy evaluation (DESIGN.md §15): hits skip the worker pools
    // entirely, bill at the declared tier, and tolerance-0 requests
    // only ever take exact (bit-equal input) hits.
    let cached = std::env::var("TT_CACHE")
        .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("true"));
    // The epoll reactor serves with tolerance-aware request batching
    // on (DESIGN.md §14): batching moves work in time, never a billed
    // bit.
    let mut service_config = ServiceConfig {
        batch: tt_net::BatchConfig {
            enabled: true,
            ..tt_net::BatchConfig::defaults()
        },
        ..ServiceConfig::defaults()
    };
    if cached {
        service_config.cache = Some(Arc::new(tt_cache::SemanticCache::new(
            tt_cache::CacheConfig::defaults(),
        )));
    }
    let service = Arc::new(tt_net::demo::demo_service(PAYLOADS, SEED, service_config));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())?;
    let addr = server.local_addr();
    let running = server.spawn();
    let cache_mode = if cached { "on" } else { "off" };
    println!("  serving on http://{addr} (engine: reactor+batching, cache: {cache_mode})");
    println!("  try: curl -X POST http://{addr}/compute \\");
    println!("            -H \"Tolerance: 0.01\" -H \"Objective: response-time\" -d \"payload-7\"");

    banner("2. The paper's request, once per tolerance tier");
    for &tolerance in &[0.0, 0.01, 0.05, 0.10] {
        for objective in ["response-time", "cost"] {
            let response = post_compute(addr, tolerance, objective, "payload-7")?;
            println!(
                "  [{objective:<13} @ {:>4.1}%] {} {}",
                tolerance * 100.0,
                response.status,
                one_line(&response)
            );
        }
    }

    banner("3. Malformed annotations are refused at the door");
    let bad = post_compute(addr, -0.5, "response-time", "payload-7")?;
    println!(
        "  Tolerance: -0.5      -> {} {}",
        bad.status,
        one_line(&bad)
    );

    banner("4. The semantic result cache (TT_CACHE=1)");
    if cached {
        // A tolerant tier warms the cache, repeats hit exactly, and a
        // *different* input mapping to the same semantic key hits
        // semantically — admissible because the cached answer's
        // achieved degradation fits inside the declared tolerance.
        let cold = post_payload(addr, 0.05, 3, "query-alpha")?;
        println!(
            "  tolerant cold consult     -> X-Cache: {}",
            cache_line(&cold)
        );
        let repeat = post_payload(addr, 0.05, 3, "query-alpha")?;
        println!(
            "  tolerant exact repeat     -> X-Cache: {}",
            cache_line(&repeat)
        );
        let semantic = post_payload(addr, 0.05, 3, "query-beta")?;
        println!(
            "  tolerant same-key new body -> X-Cache: {}",
            cache_line(&semantic)
        );
        // Tolerance 0 is a bit-equality contract: repeats of the same
        // input hit, but a different input never semantic-hits.
        let strict_cold = post_payload(addr, 0.0, 5, "query-gamma")?;
        println!(
            "  strict (0%) cold consult  -> X-Cache: {}",
            cache_line(&strict_cold)
        );
        let strict_repeat = post_payload(addr, 0.0, 5, "query-gamma")?;
        println!(
            "  strict exact repeat       -> X-Cache: {}",
            cache_line(&strict_repeat)
        );
        let strict_other = post_payload(addr, 0.0, 5, "query-delta")?;
        println!(
            "  strict different body     -> X-Cache: {}",
            cache_line(&strict_other)
        );
    } else {
        let plain = post_compute(addr, 0.05, "cost", "payload-7")?;
        println!("  cache off (set TT_CACHE=1) -> {}", cache_line(&plain));
    }

    banner("5. Closed-loop load: 4 connections, keep-alive");
    let closed = run_load(addr, &LoadConfig::closed(400, 4, PAYLOADS, 11))?;
    println!(
        "  {} ok / {} sent in {:.0} ms  ({:.0} req/s, p50 {:.2} ms, p99 {:.2} ms)",
        closed.ok,
        closed.sent,
        closed.wall.as_secs_f64() * 1e3,
        closed.throughput_rps(),
        closed.latency_ms(0.50).unwrap_or(0.0),
        closed.latency_ms(0.99).unwrap_or(0.0),
    );

    banner("6. Open-loop load: Poisson arrivals, coordinated-omission-free");
    let open = run_load(addr, &LoadConfig::open(300, 800.0, PAYLOADS, 13))?;
    println!(
        "  {} ok / {} sent at 800 req/s offered  (p50 {:.2} ms, p99 {:.2} ms)",
        open.ok,
        open.sent,
        open.latency_ms(0.50).unwrap_or(0.0),
        open.latency_ms(0.99).unwrap_or(0.0),
    );

    banner("7. Operational endpoints");
    let health = get(addr, "/healthz")?;
    println!(
        "  GET /healthz -> {} {}",
        health.status,
        health.text().trim()
    );
    let stats = get(addr, "/stats")?;
    println!(
        "  GET /stats   -> {} ({} bytes of JSON)",
        stats.status,
        stats.body.len()
    );
    for line in stats.text().lines().take(6) {
        println!("    {line}");
    }
    println!("    ...");
    let metrics = get(addr, "/metrics")?;
    println!(
        "  GET /metrics -> {} ({} bytes of JSON)",
        metrics.status,
        metrics.body.len()
    );
    let traces = get(addr, "/trace/recent")?;
    println!(
        "  GET /trace/recent -> {} ({} bytes of JSON)",
        traces.status,
        traces.body.len()
    );

    banner("8. The SLO sentinel's verdict per advertised tier");
    let obs = service.observability().expect("demo observability is on");
    obs.sentinel().force_tick(obs.now_us());
    for verdict in obs.sentinel().verdicts() {
        println!(
            "  [slo {}] in_contract={} ({} requests: {})",
            verdict.key, verdict.in_contract, verdict.window_requests, verdict.reason
        );
    }

    banner("9. Graceful drain");
    let snapshot = service.snapshot();
    println!(
        "  served {} requests, billed {} across {} tiers, availability {:.3}",
        snapshot.served,
        snapshot.billing.revenue,
        snapshot.billing.tiers.len(),
        snapshot.resilience.availability(),
    );
    if let Some(cache) = &snapshot.cache {
        println!(
            "  cache: {} exact + {} semantic hits, {} misses, {} entries held",
            cache.hits_exact, cache.hits_semantic, cache.misses, cache.entries
        );
    }
    running.stop()?;
    std::thread::sleep(Duration::from_millis(20));
    println!("  drained; listener closed.");
    Ok(())
}
