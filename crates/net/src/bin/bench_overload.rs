//! Chaos/overload smoke benchmark: the closed control loop end to end.
//!
//! Usage: `bench_overload [--quick] [--out PATH]`
//!
//! Two phases, both against the demo deployment with its most
//! expensive version (`accurate`, index 2) crashing on every call:
//!
//! * **Supervision (deterministic)** — drives the service in-process
//!   with forced window rolls, twice: once with 1 model worker and 1
//!   rule-generation thread, once with 4 of each. Asserts the
//!   supervisor's transition log (quarantine of the crashing version,
//!   canary, commit) is *bit-identical* across the two runs, and that
//!   strict requests get clean answers from a survivor after the swap.
//! * **Wire chaos** — boots the real server, drives it with the load
//!   generator under a seeded wire-fault plan (connection resets,
//!   partial request writes, slow-loris trickles) and a tight
//!   admission limit, until the supervisor commits its regenerated
//!   rules. Asserts the admission controller browned out or rejected
//!   traffic, `/metrics` exposes the supervisor and admission
//!   subtrees naming the quarantine, the strict response-time tier is
//!   in SLO contract (or quiescent) after recovery, and `/healthz`
//!   answers 200.
//!
//! Emits `BENCH_overload.json`. Exits non-zero when any phase fails,
//! so CI's `chaos-smoke` job is a single invocation.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tt_bench::perfjson::{Json, JsonObject};
use tt_core::objective::Objective;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_net::admission::AdmissionConfig;
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{run_load, LoadConfig, LoadReport};
use tt_net::server::{Server, ServerConfig};
use tt_net::service::{ServiceConfig, SupervisorSetup};
use tt_serve::resilience::RetryPolicy;
use tt_serve::supervisor::SupervisorConfig;
use tt_sim::fault::{FaultPlan, FaultRates, WireFaultPlan, WireFaultRates};

/// Version index of the demo's most expensive model (`accurate`).
const EXPENSIVE: usize = 2;
const SEED: u64 = 42;

struct BenchParams {
    label: &'static str,
    payloads: usize,
    window_requests: usize,
    wave_requests: usize,
    concurrency: usize,
    max_waves: usize,
}

const QUICK: BenchParams = BenchParams {
    label: "quick",
    payloads: 60,
    window_requests: 12,
    wave_requests: 96,
    concurrency: 8,
    max_waves: 60,
};

const STANDARD: BenchParams = BenchParams {
    label: "standard",
    payloads: 200,
    window_requests: 24,
    wave_requests: 240,
    concurrency: 8,
    max_waves: 80,
};

/// Every model-layer fault plan in this bench: only the most expensive
/// version crashes, deterministically, on every call.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(
        SEED,
        vec![
            FaultRates::NONE,
            FaultRates::NONE,
            FaultRates::crash_only(1.0),
        ],
    )
}

fn supervisor_setup(rulegen_threads: usize) -> SupervisorSetup {
    SupervisorSetup {
        policy: SupervisorConfig {
            min_demand: 4,
            ..SupervisorConfig::defaults()
        },
        rulegen_threads,
        ..SupervisorSetup::defaults()
    }
}

/// Phase 1: deterministic in-process supervision. Returns the
/// transition log for one `(model_workers, rulegen_threads)` setting.
fn supervision_run(params: &BenchParams, model_workers: usize, threads: usize) -> Vec<String> {
    let service = tt_net::demo::demo_service(
        params.payloads,
        SEED,
        ServiceConfig {
            faults: Some(crash_plan()),
            retry: RetryPolicy::NONE,
            breaker: None,
            model_workers,
            supervisor: Some(supervisor_setup(threads)),
            ..ServiceConfig::defaults()
        },
    );
    let drive = |n: usize| {
        for payload in 0..n {
            let request = ServiceRequest::new(
                payload % params.payloads,
                Tolerance::ZERO,
                Objective::ResponseTime,
            );
            let _ = service.execute(&request);
        }
    };
    // Six windows: two unhealthy ones trigger the quarantine, three
    // quiet canary windows commit it, one spare.
    for _ in 0..6 {
        drive(params.window_requests);
        service.on_window();
    }
    let status = service.supervisor_status().expect("supervisor configured");
    assert_eq!(
        status.quarantined,
        vec![EXPENSIVE],
        "expected the expensive version quarantined; log: {:?}",
        status.log
    );
    assert!(
        status.commits >= 1,
        "canary never committed; log: {:?}",
        status.log
    );
    // Post-swap, strict answers come clean from a survivor.
    for payload in 0..params.window_requests {
        let request = ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
        let outcome = service.execute(&request).expect("survivor serves strict");
        assert_ne!(outcome.answered_by, EXPENSIVE);
        assert!(!outcome.degraded);
    }
    status.log
}

fn fetch(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("ops connection");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("ops request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader, &Limits::default()).expect("ops response");
    (response.status, response.text())
}

/// Whether the metrics document shows `tier` in contract — or not
/// currently evaluated (a quiescent window after recovery), which also
/// means it is not violating.
fn tier_in_contract(metrics: &str, tier: &str) -> bool {
    let Some(at) = metrics.find(&format!("\"tier\": \"{tier}\"")) else {
        return false;
    };
    let tail = &metrics[at..];
    let in_contract = tail
        .find("\"in_contract\": ")
        .map(|i| tail[i..].starts_with("\"in_contract\": true"));
    let evaluated = tail
        .find("\"evaluated\": ")
        .map(|i| tail[i..].starts_with("\"evaluated\": true"));
    in_contract == Some(true) || evaluated == Some(false)
}

struct WireOutcome {
    waves: usize,
    load: LoadReport,
    browned_out: u64,
    rejected: u64,
    quarantines: u64,
    commits: u64,
    rollbacks: u64,
    rules_revision: u64,
    transitions: Vec<String>,
    strict_in_contract: bool,
    healthz_ok: bool,
}

/// Phase 2: the real server under wire chaos and admission pressure.
fn wire_run(params: &BenchParams) -> WireOutcome {
    let service = Arc::new(tt_net::demo::demo_service(
        params.payloads,
        SEED,
        ServiceConfig {
            faults: Some(crash_plan()),
            retry: RetryPolicy::NONE,
            breaker: None,
            model_workers: 4,
            admission: AdmissionConfig {
                initial_limit: 2,
                min_limit: 2,
                ..AdmissionConfig::defaults()
            },
            supervisor: Some(supervisor_setup(0)),
            ..ServiceConfig::defaults()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            http_workers: 8,
            backlog: 128,
            keep_alive_timeout: Duration::from_millis(500),
            request_deadline: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let running = server.spawn();

    let wire_faults = WireFaultPlan::uniform(
        SEED,
        params.concurrency,
        WireFaultRates {
            reset: 0.04,
            partial_write: 0.04,
            slow_write: 0.02,
            slow_write_pause_us: 200,
        },
    );
    let chaos_config = LoadConfig {
        wire_faults: Some(wire_faults),
        retry_after_cap: Duration::from_millis(5),
        ..LoadConfig::closed(
            params.wave_requests,
            params.concurrency,
            params.payloads,
            SEED,
        )
    };

    // Waves of chaotic overload until the supervisor commits its
    // regenerated rules; between waves the event loop's heartbeat rolls the
    // sentinel windows that drive the control loops.
    let mut merged = LoadReport::default();
    let mut waves = 0usize;
    while waves < params.max_waves {
        let report = run_load(addr, &chaos_config).expect("chaos wave");
        merged.sent += report.sent;
        merged.ok += report.ok;
        merged.browned_out += report.browned_out;
        merged.rejected += report.rejected;
        merged.rejected_429 += report.rejected_429;
        merged.transport_errors += report.transport_errors;
        merged.wire_faults_injected += report.wire_faults_injected;
        merged.retry_waits += report.retry_waits;
        waves += 1;
        let status = service.supervisor_status().expect("supervisor configured");
        if status.commits >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(120));
    }

    // Recovery: clean traffic over the regenerated rules, then let the
    // sentinel close a quiet window before reading the verdicts.
    let clean = LoadConfig::closed(
        params.wave_requests,
        params.concurrency,
        params.payloads,
        SEED + 1,
    );
    let recovery = run_load(addr, &clean).expect("recovery wave");
    merged.sent += recovery.sent;
    merged.ok += recovery.ok;
    std::thread::sleep(Duration::from_millis(600));

    let (metrics_status, metrics_body) = fetch(addr, "/metrics");
    assert_eq!(metrics_status, 200, "GET /metrics must answer 200");
    let (healthz_status, _healthz_body) = fetch(addr, "/healthz");
    let status = service.supervisor_status().expect("supervisor configured");
    let (_admitted, browned_out, rejected) = service.admission().totals();
    running.stop().expect("graceful stop");

    assert!(
        metrics_body.contains("\"supervisor\"") && metrics_body.contains("\"admission\""),
        "metrics must expose the control-loop subtrees: {metrics_body}"
    );
    WireOutcome {
        waves,
        load: merged,
        browned_out,
        rejected,
        quarantines: status.quarantines,
        commits: status.commits,
        rollbacks: status.rollbacks,
        rules_revision: status.rules_revision,
        transitions: status.log,
        strict_in_contract: tier_in_contract(&metrics_body, "response-time/0.000"),
        healthz_ok: healthz_status == 200,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_overload.json".to_string());
    let params = if quick { QUICK } else { STANDARD };

    eprintln!(
        "bench_overload[{}]: supervision phase (1 vs 4 threads)",
        params.label
    );
    let serial = supervision_run(&params, 1, 1);
    let threaded = supervision_run(&params, 4, 4);
    assert_eq!(
        serial, threaded,
        "supervisor transitions must be bit-identical across thread counts"
    );
    eprintln!(
        "bench_overload[{}]: transitions reproducible: {:?}",
        params.label, serial
    );

    eprintln!("bench_overload[{}]: wire chaos phase", params.label);
    let wire = wire_run(&params);
    eprintln!(
        "bench_overload[{}]: {} waves, {} sent / {} ok, {} browned out, {} rejected (429 {}), \
         {} wire faults injected, {} retry waits",
        params.label,
        wire.waves,
        wire.load.sent,
        wire.load.ok,
        wire.load.browned_out,
        wire.load.rejected,
        wire.load.rejected_429,
        wire.load.wire_faults_injected,
        wire.load.retry_waits,
    );
    eprintln!(
        "bench_overload[{}]: supervisor quarantines {} swaps→commit {} rollbacks {} \
         (rules rev {}); strict in contract: {}; healthz ok: {}",
        params.label,
        wire.quarantines,
        wire.commits,
        wire.rollbacks,
        wire.rules_revision,
        wire.strict_in_contract,
        wire.healthz_ok,
    );

    let mut failures: Vec<&str> = Vec::new();
    if wire.quarantines < 1 {
        failures.push("supervisor never quarantined the crashing version");
    }
    if wire.commits + wire.rollbacks < 1 {
        failures.push("no canary resolution (commit or rollback) observed");
    }
    if wire.browned_out + wire.rejected == 0 {
        failures.push("admission pressure produced neither brownouts nor rejections");
    }
    if !wire.strict_in_contract {
        failures.push("strict response-time tier not in SLO contract after recovery");
    }
    if !wire.healthz_ok {
        failures.push("healthz not 200 after recovery");
    }

    let transitions: Vec<Json> = wire.transitions.iter().cloned().map(Json::Str).collect();
    let supervision: Vec<Json> = serial.iter().cloned().map(Json::Str).collect();
    let doc = JsonObject::new()
        .with_str("bench", "overload")
        .with_str("mode", params.label)
        .with_int("seed", SEED as i64)
        .with(
            "supervision",
            Json::Object(
                JsonObject::new()
                    .with("reproducible_across_threads", Json::Bool(true))
                    .with("transitions", Json::Array(supervision)),
            ),
        )
        .with(
            "wire",
            Json::Object(
                JsonObject::new()
                    .with_int("waves", wire.waves as i64)
                    .with_int("sent", wire.load.sent as i64)
                    .with_int("ok", wire.load.ok as i64)
                    .with_int("browned_out", wire.browned_out as i64)
                    .with_int("rejected", wire.rejected as i64)
                    .with_int("transport_errors", wire.load.transport_errors as i64)
                    .with_int(
                        "wire_faults_injected",
                        wire.load.wire_faults_injected as i64,
                    )
                    .with_int("retry_waits", wire.load.retry_waits as i64)
                    .with_int("quarantines", wire.quarantines as i64)
                    .with_int("commits", wire.commits as i64)
                    .with_int("rollbacks", wire.rollbacks as i64)
                    .with_int("rules_revision", wire.rules_revision as i64)
                    .with("transitions", Json::Array(transitions))
                    .with("strict_in_contract", Json::Bool(wire.strict_in_contract))
                    .with("healthz_ok", Json::Bool(wire.healthz_ok)),
            ),
        );
    std::fs::write(&out_path, doc.render()).expect("write artifact");
    eprintln!("bench_overload[{}]: wrote {out_path}", params.label);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_overload[{}]: FAIL — {f}", params.label);
        }
        std::process::exit(1);
    }
}
