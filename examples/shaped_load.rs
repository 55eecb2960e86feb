//! Shaped open-loop load against a planner-enabled deployment:
//! diurnal cycles and flash crowds from the seeded non-homogeneous
//! arrival processes in `tt-sim`, with coordinated-omission-free
//! per-phase percentiles and the capacity planner's decisions printed
//! at the end. With `--nodes N` the same schedule drives a fleet
//! through the front tier, and every node plans for itself.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p tt-examples --bin shaped_load -- --arrival flash
//! cargo run --release -p tt-examples --bin shaped_load -- --arrival diurnal --rate 400
//! cargo run --release -p tt-examples --bin shaped_load -- --arrival flash --nodes 2
//! ```
//!
//! Flags: `--arrival steady|diurnal|flash` (default `flash`),
//! `--rate R` requests/second base rate (default 300),
//! `--requests N` total requests (default 900),
//! `--nodes N` fleet size (default 1 = a single node, no front tier).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tt_examples::banner;
use tt_net::cluster::{Fleet, FleetConfig, RouteStrategy};
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{run_load, ArrivalShape, LoadConfig, LoadReport};
use tt_net::server::{Server, ServerConfig};
use tt_net::service::{ComputeService, PlannerSetup, ServiceConfig};

const PAYLOADS: usize = 150;
const SEED: u64 = 7;

fn parse_args() -> Result<(String, f64, usize, usize), String> {
    let mut arrival = "flash".to_string();
    let mut rate = 300.0;
    let mut requests = 900usize;
    let mut nodes = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--arrival" => arrival = value("--arrival")?,
            "--rate" => {
                rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?;
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--nodes" => {
                nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((arrival, rate, requests, nodes.max(1)))
}

/// Planner-enabled service template at a demo-friendly cadence: 100 ms
/// windows, one planning round per two windows, so a few seconds of
/// shaped load show several rounds.
fn planned_config() -> ServiceConfig {
    let mut setup = PlannerSetup::defaults();
    setup.planner.windows_per_round = 2;
    let mut config = ServiceConfig::defaults();
    config.obs.window = Duration::from_millis(100);
    config.planner = Some(setup);
    config
}

fn fetch(addr: SocketAddr, path: &str) -> Result<String, Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let response = read_response(&mut reader, &Limits::default()).map_err(|e| format!("{e:?}"))?;
    Ok(response.text())
}

fn print_phases(report: &LoadReport) {
    if report.per_phase.is_empty() {
        println!("  steady shape: one homogeneous phase");
        println!(
            "  p50 {:.2} ms  p99 {:.2} ms",
            report.latency_ms(0.50).unwrap_or(0.0),
            report.latency_ms(0.99).unwrap_or(0.0),
        );
    }
    for (phase, slot) in &report.per_phase {
        println!(
            "  [{phase:>6}] {:>4} ok  {:>3} rejected  {:>3} shed  p50 {:>8.2} ms  p99 {:>8.2} ms",
            slot.ok,
            slot.rejected,
            slot.shed,
            slot.latency_ms(0.50).unwrap_or(0.0),
            slot.latency_ms(0.99).unwrap_or(0.0),
        );
    }
    // A strict (tolerance-0) request has no slack to brown out into:
    // any shed or rejection there is an SLO violation worth naming.
    let strict: usize = report
        .per_tier
        .iter()
        .filter(|((_, milli), _)| *milli == 0)
        .map(|(_, tier)| tier.shed + tier.rejected)
        .sum();
    println!(
        "  strict-tier violations: {}",
        strict + report.transport_errors
    );
}

fn print_capacity(label: &str, service: &ComputeService) {
    let status = service.capacity_status().expect("planner configured");
    println!(
        "  [{label}] rounds {}  resizes {}  mix regens {}  pool now {} workers  tuner nudges {}",
        status.planner.rounds,
        status.planner.resizes,
        status.mix_regens,
        status.pool_workers,
        status.nudges,
    );
    for line in &status.log {
        println!("    {line}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (arrival, rate, requests, nodes) = parse_args()?;
    let shape = match arrival.as_str() {
        "steady" => ArrivalShape::Steady,
        "diurnal" => ArrivalShape::Diurnal {
            amplitude: 0.8,
            period: Duration::from_secs(2),
        },
        "flash" => ArrivalShape::Flash {
            multiplier: 5.0,
            start: Duration::from_millis(800),
            duration: Duration::from_millis(1_000),
        },
        other => return Err(format!("unknown --arrival {other} (steady|diurnal|flash)").into()),
    };

    let mut load = LoadConfig::open(requests, rate, PAYLOADS, 13);
    load.arrival = shape;

    if nodes == 1 {
        banner("1. Boot a planner-enabled node");
        let service = Arc::new(tt_net::demo::demo_service(PAYLOADS, SEED, planned_config()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())?;
        let addr = server.local_addr();
        let running = server.spawn();
        println!("  serving on http://{addr} (planner on, {arrival} arrivals)");

        banner("2. Drive the shaped open-loop schedule");
        let report = run_load(addr, &load)?;
        println!(
            "  {} ok / {} sent in {:.1} s at {rate:.0} req/s base rate",
            report.ok,
            report.sent,
            report.wall.as_secs_f64(),
        );

        banner("3. Per-phase percentiles (scheduled-time latency, no omission)");
        print_phases(&report);

        banner("4. What the capacity planner did about it");
        print_capacity("node-0", &service);
        println!("{}", fetch(addr, "/events")?);

        running.stop()?;
        return Ok(());
    }

    banner(&format!("1. Boot a {nodes}-node planner-enabled fleet"));
    let mut config = FleetConfig::defaults(nodes);
    config.payloads = PAYLOADS;
    config.seed = SEED;
    config.strategy = RouteStrategy::RoundRobin;
    config.service = planned_config();
    let fleet = Fleet::launch(config)?;
    println!(
        "  front tier on http://{} ({nodes} nodes, planner on every node, {arrival} arrivals)",
        fleet.front_addr()
    );

    banner("2. Drive the shaped open-loop schedule through the front");
    let report = run_load(fleet.front_addr(), &load)?;
    println!(
        "  {} ok / {} sent in {:.1} s at {rate:.0} req/s base rate",
        report.ok,
        report.sent,
        report.wall.as_secs_f64(),
    );
    // Close one final planning round deterministically so the decision
    // trail below is complete even on a slow host.
    let windows = planned_config()
        .planner
        .expect("planner template")
        .planner
        .windows_per_round;
    for _ in 0..windows {
        for id in 0..fleet.nodes() {
            fleet.node_service(id).on_window();
        }
    }

    banner("3. Per-phase percentiles (scheduled-time latency, no omission)");
    print_phases(&report);

    banner("4. What each node's capacity planner did about it");
    for id in 0..fleet.nodes() {
        print_capacity(&format!("node-{id}"), fleet.node_service(id));
    }
    println!("{}", fetch(fleet.front_addr(), "/planner")?);
    for id in 0..fleet.nodes() {
        println!(
            "{}",
            fetch(fleet.front_addr(), &format!("/events?node={id}"))?
        );
    }

    fleet.shutdown()?;
    Ok(())
}
