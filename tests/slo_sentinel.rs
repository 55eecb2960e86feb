//! End-to-end observability tests over the real wire: the SLO sentinel
//! holding live traffic against the advertised tier guarantees, the
//! `/metrics` and `/trace/recent` endpoints, `/healthz` degradation,
//! and bit-identical metrics totals across threaded runs.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tt_net::http::{read_response, Limits, Response};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::metrics_document;
use tt_net::obs::ObsConfig;
use tt_net::server::{Server, ServerConfig};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_sim::{FaultPlan, FaultRates};
use tt_workloads::RequestMix;

const PAYLOADS: usize = 120;
const SEED: u64 = 2024;

/// Observability tuned for tests: a window too long for the accept
/// loop's heartbeat to close on its own, so the test's `force_tick`
/// evaluates the entire run as one deterministic window.
fn test_obs() -> ObsConfig {
    ObsConfig {
        window: Duration::from_secs(3600),
        slo_min_requests: 5,
        ..ObsConfig::defaults()
    }
}

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

fn get(addr: std::net::SocketAddr, path: &str) -> Response {
    raw_exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// The `"totals": {...}` subtree of a `/metrics` document, extracted
/// by brace matching — the part of the document that must be
/// bit-identical across runs (uptime and window counters sit outside
/// it).
fn totals_section(doc: &str) -> &str {
    let start = doc
        .find("\"totals\": {")
        .expect("metrics document has totals");
    let bytes = doc.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &doc[start..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced totals section in {doc}");
}

#[test]
fn fault_free_run_keeps_every_tier_in_contract() {
    let (running, service) = boot(ServiceConfig {
        obs: test_obs(),
        ..ServiceConfig::defaults()
    });
    let addr = running.addr();
    let report = run_load(addr, &LoadConfig::closed(300, 6, PAYLOADS, 7)).expect("load run");
    assert_eq!(report.ok, 300, "fault-free load must fully succeed");
    // The load generator carried the server's request IDs back out.
    assert!(!report.slowest.is_empty());
    assert!(report.slowest.iter().all(|s| s.request_id.is_some()));

    let obs = service.observability().expect("observability enabled");
    obs.sentinel().force_tick(obs.now_us());

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let body = metrics.text();
    assert!(body.contains("\"totals\""), "metrics: {body}");
    assert!(body.contains("\"slo\""), "metrics: {body}");
    assert!(
        !body.contains("\"in_contract\": false"),
        "no tier may be out of contract fault-free: {body}"
    );
    assert!(body.contains("within guarantee"), "metrics: {body}");
    for objective in ["response-time", "cost"] {
        for tolerance in ["0.000", "0.010", "0.050", "0.100"] {
            let key = format!("{objective}/{tolerance}");
            assert!(body.contains(&key), "missing tier {key} in {body}");
        }
    }

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200, "healthy service: {}", health.text());

    let traces = get(addr, "/trace/recent");
    assert_eq!(traces.status, 200);
    let traces = traces.text();
    assert!(traces.contains("\"execute\""), "traces: {traces}");
    assert!(traces.contains("\"model_call\""), "traces: {traces}");

    running.stop().expect("graceful stop");
}

#[test]
fn metrics_totals_are_bit_identical_across_threaded_runs() {
    let run = || {
        let service = Arc::new(tt_net::demo::demo_service(
            PAYLOADS,
            SEED,
            ServiceConfig {
                obs: test_obs(),
                ..ServiceConfig::defaults()
            },
        ));
        let requests = RequestMix::representative().sample(240, PAYLOADS, 9);
        std::thread::scope(|scope| {
            for stripe in 0..4usize {
                let service = Arc::clone(&service);
                let requests = &requests;
                scope.spawn(move || {
                    for request in requests.iter().skip(stripe).step_by(4) {
                        service.execute(request).expect("fault-free execute");
                    }
                });
            }
        });
        let obs = service.observability().expect("observability enabled");
        metrics_document(obs, 0).render()
    };
    let first = run();
    let second = run();
    assert_eq!(
        totals_section(&first),
        totals_section(&second),
        "threaded runs over the same request set must produce \
         bit-identical /metrics totals"
    );
}

#[test]
fn forced_fault_trips_the_sentinel_and_degrades_healthz() {
    // Crash every invocation of the baseline (`accurate`) version:
    // premium-tier requests are forced through retry and degradation,
    // so the 0.000 tiers serve worse-than-advertised quality.
    let (running, service) = boot(ServiceConfig {
        faults: Some(FaultPlan::new(
            5,
            vec![
                FaultRates::NONE,
                FaultRates::NONE,
                FaultRates::crash_only(1.0),
            ],
        )),
        obs: test_obs(),
        ..ServiceConfig::defaults()
    });
    let addr = running.addr();

    let mut last_id = None;
    let mut degraded = 0usize;
    for payload in 0..40 {
        let wire = format!(
            "POST /compute HTTP/1.1\r\nTolerance: 0.0\r\n\
             Objective: response-time\r\nPayload: {payload}\r\n\
             Content-Length: 0\r\nConnection: close\r\n\r\n"
        );
        let response = raw_exchange(addr, wire.as_bytes());
        assert_eq!(response.status, 200, "degradation must keep serving");
        let body = response.text();
        if body.contains("\"degraded\": true") {
            degraded += 1;
        }
        let id_at = body.find("\"request_id\": ").expect("traced response");
        let digits: String = body[id_at + 14..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        last_id = Some(digits.parse::<u64>().expect("request id"));
    }
    assert_eq!(degraded, 40, "every premium request must degrade");

    let obs = service.observability().expect("observability enabled");
    obs.sentinel().force_tick(obs.now_us());

    // The sentinel reports the violation on /metrics within the
    // window that just closed.
    let metrics = get(addr, "/metrics").text();
    assert!(
        metrics.contains("\"in_contract\": false"),
        "metrics must flag the violated tier: {metrics}"
    );
    assert!(
        metrics.contains("response-time/0.000"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("quality degradation"),
        "verdict reason must explain the breach: {metrics}"
    );

    // /healthz flips to degraded, naming the tier.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 503);
    let health = health.text();
    assert!(health.contains("degraded"), "healthz: {health}");
    assert!(health.contains("response-time/0.000"), "healthz: {health}");

    // The last response's request ID resolves to a span tree linking
    // the retry/degradation journey to the billed response.
    let traces = get(addr, "/trace/recent").text();
    let id = last_id.expect("at least one traced response");
    assert!(
        traces.contains(&format!("\"request_id\": {id}")),
        "trace ring must hold request {id}: {traces}"
    );
    for span in ["\"execute\"", "\"degrade\"", "\"model_call\"", "\"bill\""] {
        assert!(traces.contains(span), "missing {span} in {traces}");
    }

    running.stop().expect("graceful stop");
}
