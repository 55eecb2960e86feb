//! Cluster smoke benchmark: the multi-node fleet end to end.
//!
//! Usage: `bench_cluster [--quick] [--out PATH]`
//!
//! Three phases against loopback fleets of the demo deployment:
//!
//! * **Scaling** — boots fleets of 1, 2, 4, and 8 nodes, drives the
//!   same closed-loop request multiset through each front tier, and
//!   records achieved rps. Asserts the fleet-wide per-tier billing
//!   totals are *bit-identical* at every node count (exact request
//!   counts, closed-form revenue).
//! * **Failover** — a 4-node fleet with node 1 killed mid-run once the
//!   front has proxied a quarter of the load. Asserts every request
//!   still completes (exactly-once, no loss), the router recorded
//!   failovers, zero strict-tier contract violations (no strict shed,
//!   reject, or transport error), and the crash run's billing totals
//!   still match the clean runs bit for bit.
//! * **Epoch fence** — control-partitions node 2, broadcasts new rules
//!   under a bumped epoch, and waits for the front tier's probe to
//!   fence the stale node (it must appear by name on `/metrics` and
//!   `/healthz`); heals, re-broadcasts, and waits for the unfence.
//!   Also drains node 3 through the front and checks the structured
//!   ack (in-flight count, epoch, node id).
//!
//! Emits `BENCH_cluster.json`. Exits non-zero when any phase fails, so
//! CI's `cluster-smoke` job is a single invocation.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tt_bench::perfjson::{Json, JsonObject};
use tt_net::cluster::{Fleet, FleetConfig, NodeState, RouteStrategy};
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{post_drain, run_load, DrainedBy, LoadConfig, LoadReport};

const SEED: u64 = 42;

struct BenchParams {
    label: &'static str,
    payloads: usize,
    requests: usize,
    concurrency: usize,
}

const QUICK: BenchParams = BenchParams {
    label: "quick",
    payloads: 60,
    requests: 240,
    concurrency: 8,
};

const STANDARD: BenchParams = BenchParams {
    label: "standard",
    payloads: 120,
    requests: 800,
    concurrency: 8,
};

/// Node counts swept in the scaling phase.
const NODE_COUNTS: [usize; 4] = [1, 2, 4, 8];

type Totals = BTreeMap<(String, u32), (usize, f64)>;

fn fleet_of(nodes: usize, params: &BenchParams, strategy: RouteStrategy) -> Fleet {
    let mut config = FleetConfig::defaults(nodes);
    config.payloads = params.payloads;
    config.seed = SEED;
    config.strategy = strategy;
    Fleet::launch(config).expect("fleet boots")
}

fn load_config(params: &BenchParams, seed: u64) -> LoadConfig {
    LoadConfig::closed(params.requests, params.concurrency, params.payloads, seed)
}

/// Strict-tier (tolerance 0) contract violations visible to the
/// client: shed or rejected strict requests, plus any transport error
/// (transport errors are not tier-attributed, so all count against the
/// strictest contract).
fn strict_violations(report: &LoadReport) -> usize {
    let strict: usize = report
        .per_tier
        .iter()
        .filter(|((_, milli), _)| *milli == 0)
        .map(|(_, tier)| tier.shed + tier.rejected)
        .sum();
    strict + report.transport_errors
}

fn assert_identical_totals(label: &str, reference: &Totals, candidate: &Totals) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{label}: tier count mismatch"
    );
    for (key, (requests, revenue)) in reference {
        let (r, v) = candidate
            .get(key)
            .unwrap_or_else(|| panic!("{label}: missing tier {key:?}"));
        assert_eq!(r, requests, "{label}: requests for {key:?}");
        assert_eq!(
            v.to_bits(),
            revenue.to_bits(),
            "{label}: revenue for {key:?} must be bit-identical ({v} vs {revenue})"
        );
    }
}

/// Whether the document's (pretty-printed) `"fenced"` array names
/// `node`.
fn names_fenced(doc: &str, node: &str) -> bool {
    let Some(at) = doc.find("\"fenced\":") else {
        return false;
    };
    let tail = &doc[at..];
    let close = tail.find(']').unwrap_or(tail.len());
    tail[..close].contains(&format!("\"{node}\""))
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

struct ScalePoint {
    nodes: usize,
    rps: f64,
    p99_ms: f64,
}

/// Phase 1: rps at 1→2→4→8 nodes, billing bit-identity across all.
fn scaling_phase(params: &BenchParams) -> (Vec<ScalePoint>, Totals) {
    let mut points = Vec::new();
    let mut reference: Option<Totals> = None;
    for nodes in NODE_COUNTS {
        let fleet = fleet_of(nodes, params, RouteStrategy::RoundRobin);
        let report = run_load(fleet.front_addr(), &load_config(params, SEED)).expect("load");
        assert_eq!(report.ok, report.sent, "{nodes}-node run lost requests");
        let totals = fleet.billing_totals();
        fleet.shutdown().expect("clean shutdown");
        match &reference {
            None => reference = Some(totals),
            Some(reference) => {
                assert_identical_totals(&format!("{nodes} nodes"), reference, &totals);
            }
        }
        points.push(ScalePoint {
            nodes,
            rps: report.throughput_rps(),
            p99_ms: report.latency_ms(0.99).unwrap_or(0.0),
        });
    }
    (points, reference.expect("at least one node count"))
}

struct FailoverOutcome {
    crash_at: u64,
    failovers: u64,
    sent: usize,
    ok: usize,
    strict_violations: usize,
    served_by: BTreeMap<u32, usize>,
}

/// Phase 2: kill node 1 once a quarter of the load has been proxied;
/// the run must complete with zero strict-tier violations and billing
/// totals identical to the clean runs.
fn failover_phase(params: &BenchParams, clean_totals: &Totals) -> FailoverOutcome {
    let fleet = fleet_of(4, params, RouteStrategy::RoundRobin);
    let crash_at = (params.requests / 4) as u64;
    let report = std::thread::scope(|scope| {
        let fleet = &fleet;
        scope.spawn(move || {
            // The assassin: wait for request `crash_at` to be proxied,
            // then kill node 1 under live load.
            let deadline = Instant::now() + Duration::from_secs(30);
            while fleet.front().proxied() < crash_at && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            fleet.crash_node(1);
        });
        run_load(fleet.front_addr(), &load_config(params, SEED)).expect("failover load")
    });
    assert_eq!(
        fleet.front().node_states()[1],
        NodeState::Down,
        "node 1 must be observed down"
    );
    let totals = fleet.billing_totals();
    assert_identical_totals("crash run vs clean runs", clean_totals, &totals);
    let failovers = fleet.front().failovers();
    fleet.shutdown().expect("clean shutdown");
    FailoverOutcome {
        crash_at,
        failovers,
        sent: report.sent,
        ok: report.ok,
        strict_violations: strict_violations(&report),
        served_by: report.served_by.clone(),
    }
}

struct FenceOutcome {
    fenced_node: String,
    fence_ms: f64,
    named_on_metrics: bool,
    named_on_healthz: bool,
    unfenced: bool,
    drain_in_flight: i64,
    drain_epoch: u64,
}

/// Wait (bounded) until node `id`'s state matches `wanted`.
fn await_state(fleet: &Fleet, id: usize, wanted: NodeState) -> Option<Duration> {
    let started = Instant::now();
    let deadline = started + Duration::from_millis(2000);
    while Instant::now() < deadline {
        if fleet.front().node_states()[id] == wanted {
            return Some(started.elapsed());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

/// Phase 3: a deliberately stale node is fenced by the live front
/// probe, named on the ops endpoints, and recovers after heal; a drain
/// through the front returns the structured ack.
fn fence_phase(params: &BenchParams) -> FenceOutcome {
    let fleet = fleet_of(4, params, RouteStrategy::RoundRobin);
    // Background traffic keeps the event loop mixing idle and busy.
    let warm = LoadConfig::closed(40, 2, params.payloads, SEED + 7);
    run_load(fleet.front_addr(), &warm).expect("warmup");

    fleet.partition_control(2, true);
    let epoch = fleet.broadcast_rules();
    // The live front's idle probe must fence node 2 on its own — no
    // test-side nudge — well within one sentinel window (250ms).
    let fenced_in =
        await_state(&fleet, 2, NodeState::Fenced).expect("stale node fenced by the live probe");
    let (_, metrics) = fetch(fleet.front_addr(), "/metrics");
    let (_, healthz) = fetch(fleet.front_addr(), "/healthz");
    let named_on_metrics = names_fenced(&metrics, "node-2");
    let named_on_healthz = healthz.contains("\"node-2\"");

    // Traffic still flows around the fenced node, strictly clean.
    let around = run_load(fleet.front_addr(), &load_config(params, SEED + 13)).expect("load");
    assert_eq!(around.ok, around.sent, "fenced node must not lose traffic");
    assert!(
        !around.served_by.contains_key(&2),
        "fenced node must receive nothing: {:?}",
        around.served_by
    );

    fleet.partition_control(2, false);
    fleet.broadcast_rules();
    let unfenced = await_state(&fleet, 2, NodeState::Up).is_some();

    // Drain node 3 through the front: structured ack, then no traffic.
    let ack = post_drain(fleet.front_addr(), &Limits::default(), Some(3)).expect("drain ack");
    assert_eq!(ack.node, DrainedBy::Node(3), "ack names the drained node");
    assert!(ack.draining);
    let outcome = FenceOutcome {
        fenced_node: "node-2".to_string(),
        fence_ms: fenced_in.as_secs_f64() * 1e3,
        named_on_metrics,
        named_on_healthz,
        unfenced,
        drain_in_flight: ack.in_flight,
        drain_epoch: ack.epoch,
    };
    assert_eq!(
        ack.epoch,
        fleet.epoch(),
        "drained node was on the fleet epoch"
    );
    assert!(epoch >= 2, "broadcast bumped the epoch");
    fleet.shutdown().expect("clean shutdown");
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster.json".to_string());
    let params = if quick { QUICK } else { STANDARD };

    eprintln!(
        "bench_cluster[{}]: scaling phase (1→2→4→8 nodes)",
        params.label
    );
    let (points, clean_totals) = scaling_phase(&params);
    for p in &points {
        eprintln!(
            "bench_cluster[{}]: {} node(s): {:.0} rps, p99 {:.2} ms",
            params.label, p.nodes, p.rps, p.p99_ms
        );
    }
    eprintln!(
        "bench_cluster[{}]: billing totals bit-identical across node counts {:?}",
        params.label, NODE_COUNTS
    );

    eprintln!(
        "bench_cluster[{}]: failover phase (kill node 1 mid-run)",
        params.label
    );
    let failover = failover_phase(&params, &clean_totals);
    eprintln!(
        "bench_cluster[{}]: failover recovered: crashed node 1 at request {}, \
         {} failovers, {}/{} requests ok, served_by {:?}",
        params.label,
        failover.crash_at,
        failover.failovers,
        failover.ok,
        failover.sent,
        failover.served_by,
    );
    eprintln!(
        "bench_cluster[{}]: strict-tier violations: {}",
        params.label, failover.strict_violations
    );

    eprintln!("bench_cluster[{}]: epoch fence phase", params.label);
    let fence = fence_phase(&params);
    eprintln!(
        "bench_cluster[{}]: fenced stale node: {} in {:.1} ms \
         (on metrics: {}, on healthz: {}), unfenced after heal: {}",
        params.label,
        fence.fenced_node,
        fence.fence_ms,
        fence.named_on_metrics,
        fence.named_on_healthz,
        fence.unfenced,
    );
    eprintln!(
        "bench_cluster[{}]: drain ack: node 3, in_flight {}, epoch {}",
        params.label, fence.drain_in_flight, fence.drain_epoch
    );

    let mut failures: Vec<&str> = Vec::new();
    if failover.ok != failover.sent {
        failures.push("failover run lost requests");
    }
    if failover.failovers == 0 {
        failures.push("router never failed over past the dead node");
    }
    if failover.strict_violations != 0 {
        failures.push("strict-tier contract violated during failover");
    }
    if !fence.named_on_metrics || !fence.named_on_healthz {
        failures.push("fenced node not named on the ops endpoints");
    }
    if !fence.unfenced {
        failures.push("healed node never unfenced");
    }

    let scaling: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::Object(
                JsonObject::new()
                    .with_int("nodes", p.nodes as i64)
                    .with_num("rps", p.rps)
                    .with_num("p99_ms", p.p99_ms),
            )
        })
        .collect();
    let mut served = JsonObject::new();
    for (node, count) in &failover.served_by {
        served = served.with_int(&format!("node-{node}"), *count as i64);
    }
    let doc = JsonObject::new()
        .with_str("bench", "cluster")
        .with_str("mode", params.label)
        .with_int("seed", SEED as i64)
        .with("scaling", Json::Array(scaling))
        .with("billing_bit_identical", Json::Bool(true))
        .with(
            "failover",
            Json::Object(
                JsonObject::new()
                    .with_int("crash_at_request", failover.crash_at as i64)
                    .with_int("failovers", failover.failovers as i64)
                    .with_int("sent", failover.sent as i64)
                    .with_int("ok", failover.ok as i64)
                    .with_int("strict_violations", failover.strict_violations as i64)
                    .with("served_by", Json::Object(served)),
            ),
        )
        .with(
            "epoch_fence",
            Json::Object(
                JsonObject::new()
                    .with_str("fenced", &fence.fenced_node)
                    .with_num("fence_ms", fence.fence_ms)
                    .with("named_on_metrics", Json::Bool(fence.named_on_metrics))
                    .with("named_on_healthz", Json::Bool(fence.named_on_healthz))
                    .with("unfenced_after_heal", Json::Bool(fence.unfenced))
                    .with_int("drain_in_flight", fence.drain_in_flight)
                    .with_int("drain_epoch", fence.drain_epoch as i64),
            ),
        );
    std::fs::write(&out_path, doc.render()).expect("write artifact");
    eprintln!("bench_cluster[{}]: wrote {out_path}", params.label);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_cluster[{}]: FAIL — {f}", params.label);
        }
        std::process::exit(1);
    }
}
