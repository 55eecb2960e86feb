//! End-to-end tests of the wire-protocol serving stack: a real socket,
//! the full annotation → routing → resilient execution → billing path,
//! deterministic billing across runs, error-status mapping, load
//! shedding, and graceful drain.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tt_net::http::{read_response, Limits, Response};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::server::{Server, ServerConfig};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_workloads::RequestMix;

const PAYLOADS: usize = 120;
const SEED: u64 = 2024;

fn boot(config: ServiceConfig) -> (tt_net::server::RunningServer, Arc<ComputeService>) {
    let service = Arc::new(tt_net::demo::demo_service(PAYLOADS, SEED, config));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    (server.spawn(), service)
}

fn raw_exchange(addr: std::net::SocketAddr, wire: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(wire).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    read_response(&mut reader, &Limits::default()).expect("response")
}

/// Billed totals per (objective, tolerance-milli) tier, as
/// `(requests, revenue_dollars)`.
fn billed_tiers(service: &ComputeService) -> BTreeMap<(String, u32), (usize, f64)> {
    service
        .snapshot()
        .billing
        .tiers
        .iter()
        .map(|(k, v)| (k.clone(), (v.requests, v.revenue.as_dollars())))
        .collect()
}

#[test]
fn the_full_wire_path_serves_and_bills_every_tier() {
    let (running, service) = boot(ServiceConfig::defaults());
    let report =
        run_load(running.addr(), &LoadConfig::closed(300, 6, PAYLOADS, 7)).expect("load run");
    assert_eq!(report.sent, 300);
    assert_eq!(report.ok, 300, "all requests must answer 200");
    assert_eq!(report.rejected, 0);

    // The server billed exactly what the request mix implies: per-tier
    // request counts and revenue derived analytically from the same
    // seeded sample the load generator used.
    let schedule = service.schedule().clone();
    let mut expected: BTreeMap<(String, u32), (usize, f64)> = BTreeMap::new();
    for request in RequestMix::representative().sample(300, PAYLOADS, 7) {
        let key = (
            request.objective.to_string(),
            (request.tolerance.value() * 1000.0).round() as u32,
        );
        let slot = expected.entry(key).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += schedule.price_for(request.tolerance.value()).as_dollars();
    }
    let billed = billed_tiers(&service);
    assert_eq!(billed.len(), expected.len(), "tier sets differ");
    for (key, (requests, revenue)) in &expected {
        let (got_requests, got_revenue) = billed[key];
        assert_eq!(got_requests, *requests, "request count for {key:?}");
        assert!(
            (got_revenue - revenue).abs() < 1e-9,
            "revenue for {key:?}: {got_revenue} != {revenue}"
        );
    }

    // The stats endpoint reports the same world.
    let stats = raw_exchange(
        running.addr(),
        b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(stats.status, 200);
    let body = stats.text();
    assert!(body.contains("\"service\": \"toltiers\""));
    assert!(body.contains("\"served\": 300"));
    assert!(body.contains("\"availability\": 1"));
    running.stop().expect("graceful stop");
}

#[test]
fn fixed_seed_and_schedule_yield_identical_billed_totals_across_runs() {
    let run = || {
        let (running, service) = boot(ServiceConfig::defaults());
        // One closed-loop and one open-loop wave, both seeded.
        let closed = run_load(running.addr(), &LoadConfig::closed(160, 4, PAYLOADS, 11))
            .expect("closed load");
        let open = run_load(
            running.addr(),
            &LoadConfig::open(120, 2_000.0, PAYLOADS, 13),
        )
        .expect("open load");
        assert_eq!(closed.ok + open.ok, 280, "every request must succeed");
        running.stop().expect("stop");
        (
            billed_tiers(&service),
            service.snapshot().billing.revenue.as_dollars(),
        )
    };
    let (tiers_a, revenue_a) = run();
    let (tiers_b, revenue_b) = run();
    assert_eq!(tiers_a, tiers_b, "per-tier billed totals must be identical");
    // Bitwise, not approximate: the billing fold totals tiers in key
    // order precisely so thread scheduling cannot move an ulp.
    assert_eq!(revenue_a.to_bits(), revenue_b.to_bits());
}

#[test]
fn wire_errors_map_to_their_statuses() {
    let (running, _service) = boot(ServiceConfig::defaults());
    let addr = running.addr();
    let cases: [(&[u8], u16); 6] = [
        (
            b"POST /compute HTTP/1.1\r\nTolerance: lots\r\nConnection: close\r\n\r\n",
            400,
        ),
        (b"BREW /pot HTTP/1.1\r\nConnection: close\r\n\r\n", 501),
        (b"GET /stats HTTP/2.0\r\nConnection: close\r\n\r\n", 505),
        (b"GET /compute HTTP/1.1\r\nConnection: close\r\n\r\n", 405),
        (
            b"GET /no-such-route HTTP/1.1\r\nConnection: close\r\n\r\n",
            404,
        ),
        (
            b"POST /compute HTTP/1.1\r\nContent-Length: 99999999\r\nConnection: close\r\n\r\n",
            413,
        ),
    ];
    for (wire, status) in cases {
        let response = raw_exchange(addr, wire);
        assert_eq!(
            response.status,
            status,
            "for request {:?}",
            String::from_utf8_lossy(wire)
        );
        assert!(
            response.text().contains("\"error\""),
            "error responses carry a JSON body"
        );
    }
    // Header flood → 431 (more lines than the server's limit).
    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..(Limits::default().max_headers + 8) {
        flood.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    assert_eq!(raw_exchange(addr, &flood).status, 431);
    running.stop().expect("stop");
}

#[test]
fn saturated_server_sheds_with_503_and_recovers() {
    // One dispatch worker, a job queue of one: a slow in-flight request
    // plus one queued request saturate the front door. An idle
    // connection holds no queue slot, so each connection sends a
    // strict-tier /compute — never answered inline on the event loop.
    let service = Arc::new(tt_net::demo::demo_service(
        PAYLOADS,
        SEED,
        ServiceConfig {
            latency_scale: 20.0, // demo latencies ~2-36ms -> ~40-720ms wall
            ..ServiceConfig::defaults()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            http_workers: 1,
            backlog: 1,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let running = server.spawn();
    let strict =
        b"POST /compute HTTP/1.1\r\nTolerance: 0\r\nPayload: 0\r\nConnection: close\r\n\r\n";
    let send = |what: &str| {
        let mut stream = TcpStream::connect(addr).expect(what);
        stream.write_all(strict).expect(what);
        stream
    };
    let answer = |stream: &TcpStream, what: &str| {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_response(&mut reader, &Limits::default()).expect(what)
    };

    // Occupy the only worker, fill the queue slot, then overflow it.
    let busy = send("busy");
    std::thread::sleep(Duration::from_millis(150));
    let queued = send("queued");
    std::thread::sleep(Duration::from_millis(100));
    let response = answer(&send("shed"), "shed response");
    assert_eq!(response.status, 503, "overflow must shed, not queue");
    assert!(response.text().contains("saturated"));
    assert!(response.header("retry-after").is_some());

    // The slow request and the queued one still complete: shedding is
    // not dropping.
    assert_eq!(answer(&busy, "busy response").status, 200);
    assert_eq!(answer(&queued, "queued response").status, 200);
    // With the queue drained, the front door serves again.
    assert_eq!(answer(&send("after"), "recovered response").status, 200);
    running.stop().expect("stop");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (running, service) = boot(ServiceConfig {
        latency_scale: 10.0, // strict tier ~240-360ms wall
        ..ServiceConfig::defaults()
    });
    let addr = running.addr();
    let handle = running.handle();

    // Put a slow request in flight, then pull the plug mid-request.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /compute HTTP/1.1\r\nTolerance: 0\r\nPayload: 1\r\n\r\n")
        .expect("send");
    std::thread::sleep(Duration::from_millis(60));
    handle.initiate();

    // The in-flight request still gets its answer, now marked close.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader, &Limits::default()).expect("drained response");
    assert_eq!(response.status, 200, "drain must answer in-flight work");
    assert_eq!(response.header("connection"), Some("close"));
    assert_eq!(service.served(), 1);

    // stop() joins the drained server; afterwards nobody is listening.
    running.stop().expect("clean drain");
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(
        &addr.to_string().parse().unwrap(),
        Duration::from_millis(200),
    );
    assert!(
        refused.is_err(),
        "a drained server must not accept new work"
    );
}

#[test]
fn the_drain_endpoint_is_a_remote_shutdown() {
    let (running, _service) = boot(ServiceConfig::defaults());
    let addr = running.addr();
    let response = raw_exchange(addr, b"POST /drain HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(response.status, 202);
    assert!(response.text().contains("\"draining\": true"));
    assert!(running.handle().is_draining());
    running.stop().expect("stop");
}
