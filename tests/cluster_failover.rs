//! End-to-end fleet acceptance: a multi-node tolerance-tier cluster
//! must survive a node crash mid-run with zero strict-tier contract
//! violations, bill bit-identically at any node count and client
//! thread count, fence a deliberately stale-epoch node within one
//! sentinel window (naming it on the ops endpoints), and acknowledge
//! drains with the structured body the load generator can assert on.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tt_net::cluster::{Fleet, FleetConfig, NodeState, RouteStrategy};
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{post_drain, run_load, DrainedBy, LoadConfig, LoadReport};
use tt_sim::{NodeFault, NodeFaultScript};

const SEED: u64 = 77;
const PAYLOADS: usize = 60;
const REQUESTS: usize = 160;

fn fleet(nodes: usize) -> Fleet {
    let mut config = FleetConfig::defaults(nodes);
    config.payloads = PAYLOADS;
    config.seed = SEED;
    config.strategy = RouteStrategy::RoundRobin;
    Fleet::launch(config).expect("fleet boots")
}

fn load(concurrency: usize, seed: u64) -> LoadConfig {
    LoadConfig::closed(REQUESTS, concurrency, PAYLOADS, seed)
}

/// Strict-tier (tolerance 0) violations as the client saw them: shed
/// or rejected strict requests plus any transport error.
fn strict_violations(report: &LoadReport) -> usize {
    report
        .per_tier
        .iter()
        .filter(|((_, milli), _)| *milli == 0)
        .map(|(_, tier)| tier.shed + tier.rejected)
        .sum::<usize>()
        + report.transport_errors
}

fn await_state(fleet: &Fleet, id: usize, wanted: NodeState, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if fleet.front().node_states()[id] == wanted {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

fn fetch(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("ops connection");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("ops request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader, &Limits::default()).expect("ops response");
    (response.status, response.text())
}

type Totals = BTreeMap<(String, u32), (usize, f64)>;

fn assert_identical(label: &str, reference: &Totals, candidate: &Totals) {
    assert_eq!(reference.len(), candidate.len(), "{label}: tier count");
    for (key, (requests, revenue)) in reference {
        let (r, v) = candidate
            .get(key)
            .unwrap_or_else(|| panic!("{label}: missing tier {key:?}"));
        assert_eq!(r, requests, "{label}: requests for {key:?}");
        assert_eq!(
            v.to_bits(),
            revenue.to_bits(),
            "{label}: revenue for {key:?} differs"
        );
    }
}

/// The headline acceptance run: billing totals are bit-identical
/// across node counts {1, 2, 4} and client thread counts {1, 4}, and a
/// 4-node fleet that loses node 1 at request `k` mid-run fails over
/// with zero strict-tier violations — and *still* bills identically,
/// because failover never loses or duplicates a request.
#[test]
fn crash_mid_run_fails_over_clean_and_bills_identically_at_any_shape() {
    // Clean sweeps: every (node count, thread count) shape bills the
    // same request multiset to the same totals, bit for bit.
    let mut reference: Option<Totals> = None;
    for nodes in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let fleet = fleet(nodes);
            let report = run_load(fleet.front_addr(), &load(threads, SEED)).expect("load");
            assert_eq!(report.ok, report.sent, "{nodes}x{threads} lost requests");
            assert_eq!(strict_violations(&report), 0, "{nodes}x{threads} strict");
            let totals = fleet.billing_totals();
            fleet.shutdown().expect("clean shutdown");
            match &reference {
                None => reference = Some(totals),
                Some(reference) => {
                    assert_identical(
                        &format!("{nodes} nodes x {threads} threads"),
                        reference,
                        &totals,
                    );
                }
            }
        }
    }
    let reference = reference.expect("clean sweeps ran");

    // The crash run: node 1 dies once the front has proxied k
    // requests. The kill schedule is expressed as a node-fault script
    // so chaos runs replay deterministically from a seed.
    let fleet = fleet(4);
    let k = REQUESTS / 4;
    let mut script = NodeFaultScript::crash_at(1, k);
    let report = std::thread::scope(|scope| {
        let fleet = &fleet;
        let script = &mut script;
        scope.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while script.remaining() > 0 && Instant::now() < deadline {
                let proxied = fleet.front().proxied() as usize;
                for event in script.due(proxied) {
                    assert_eq!(event.fault, NodeFault::Crash);
                    fleet.crash_node(event.node);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        run_load(fleet.front_addr(), &load(4, SEED)).expect("crash-run load")
    });
    assert_eq!(script.remaining(), 0, "the crash fired");
    assert_eq!(report.ok, report.sent, "failover must not lose requests");
    assert_eq!(
        strict_violations(&report),
        0,
        "strict tier stayed in contract through the crash"
    );
    assert!(
        fleet.front().failovers() > 0,
        "the router discovered the death and failed over"
    );
    assert_eq!(fleet.front().node_states()[1], NodeState::Down);
    assert!(
        !report.served_by.is_empty() && report.served_by.keys().all(|n| *n < 4),
        "Served-By names fleet nodes: {:?}",
        report.served_by
    );
    assert_identical("crash run", &reference, &fleet.billing_totals());

    // Restart: the node rejoins on a fresh port under the current
    // epoch and takes traffic again.
    fleet.restart_node(1).expect("restart");
    assert!(await_state(
        &fleet,
        1,
        NodeState::Up,
        Duration::from_millis(500)
    ));
    let after = run_load(fleet.front_addr(), &load(4, SEED + 1)).expect("post-restart load");
    assert_eq!(after.ok, after.sent);
    assert!(
        after.served_by.contains_key(&1),
        "restarted node serves again: {:?}",
        after.served_by
    );
    fleet.shutdown().expect("clean shutdown");
}

/// A node that misses a rules broadcast (control partition) is fenced
/// by the live front-tier probe within one sentinel window, named on
/// `/metrics` and `/healthz`, starved of traffic, and unfenced once it
/// re-adopts the fleet epoch.
#[test]
fn stale_epoch_node_is_fenced_within_one_sentinel_window_and_recovers() {
    let fleet = fleet(3);
    // Warm the fleet so the front's event loop is alive and idling.
    run_load(fleet.front_addr(), &load(2, SEED + 3)).expect("warmup");

    fleet.partition_control(2, true);
    let epoch = fleet.broadcast_rules();
    assert!(epoch >= 2);
    assert!(
        fleet.node_service(2).rules_epoch() < epoch,
        "node 2 missed the broadcast"
    );
    // One sentinel window is 250ms; the live probe must fence the
    // stale node well inside it, with no test-side nudge.
    assert!(
        await_state(&fleet, 2, NodeState::Fenced, Duration::from_millis(250)),
        "stale node fenced within one sentinel window"
    );
    let (metrics_status, metrics) = fetch(fleet.front_addr(), "/metrics");
    assert_eq!(metrics_status, 200);
    let fenced_subtree = {
        let at = metrics
            .find("\"fenced\":")
            .expect("fenced array on /metrics");
        let tail = &metrics[at..];
        &tail[..tail.find(']').unwrap_or(tail.len())]
    };
    assert!(
        fenced_subtree.contains("\"node-2\""),
        "/metrics names the fenced node: {metrics}"
    );
    let (healthz_status, healthz) = fetch(fleet.front_addr(), "/healthz");
    assert_eq!(healthz_status, 200, "two healthy nodes remain");
    assert!(
        healthz.contains("degraded") && healthz.contains("\"node-2\""),
        "/healthz names the fenced node: {healthz}"
    );

    // Fenced means starved: traffic flows, none of it to node 2.
    let report = run_load(fleet.front_addr(), &load(3, SEED + 4)).expect("load");
    assert_eq!(report.ok, report.sent);
    assert!(
        !report.served_by.contains_key(&2),
        "fenced node got traffic: {:?}",
        report.served_by
    );

    // Heal the control path and re-broadcast: the node adopts the new
    // epoch and the probe lifts the fence.
    fleet.partition_control(2, false);
    let healed = fleet.broadcast_rules();
    assert_eq!(fleet.node_service(2).rules_epoch(), healed);
    assert!(
        await_state(&fleet, 2, NodeState::Up, Duration::from_millis(250)),
        "healed node unfenced within one sentinel window"
    );
    let report = run_load(fleet.front_addr(), &load(3, SEED + 5)).expect("load");
    assert!(
        report.served_by.contains_key(&2),
        "unfenced node serves again: {:?}",
        report.served_by
    );
    fleet.shutdown().expect("clean shutdown");
}

/// Satellite: `POST /drain` answers a structured ack — in-flight
/// count, rules epoch, node id — that the load generator parses and
/// asserts on, for a node drained through the front and for the front
/// itself.
#[test]
fn drain_acks_carry_in_flight_epoch_and_node_identity() {
    let fleet = fleet(3);
    run_load(fleet.front_addr(), &load(2, SEED + 9)).expect("warmup");

    let ack = post_drain(fleet.front_addr(), &Limits::default(), Some(1)).expect("node drain");
    assert!(ack.draining);
    assert_eq!(ack.node, DrainedBy::Node(1), "ack names the drained node");
    assert_eq!(ack.epoch, fleet.epoch(), "ack carries the serving epoch");
    assert!(ack.in_flight >= 0, "in-flight count is reported");
    assert_eq!(fleet.front().node_states()[1], NodeState::Draining);

    // Drained means out of rotation.
    let report = run_load(fleet.front_addr(), &load(2, SEED + 10)).expect("load");
    assert_eq!(report.ok, report.sent);
    assert!(
        !report.served_by.contains_key(&1),
        "draining node got traffic: {:?}",
        report.served_by
    );

    // The front itself drains with the same structured shape.
    let front_ack = post_drain(fleet.front_addr(), &Limits::default(), None).expect("front drain");
    assert!(front_ack.draining);
    assert_eq!(front_ack.node, DrainedBy::Front);
    fleet.shutdown().expect("clean shutdown");
}
