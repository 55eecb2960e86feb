//! End-to-end acceptance for the continuous capacity planner: a
//! planner-enabled fleet exposes its decisions at `/planner` and as
//! typed events on both the node and fleet `/events` surfaces; the
//! `/metrics/windows` query validation holds over the wire; and — the
//! determinism contract — planner decisions replayed from the
//! fleet-merged telemetry fold and the per-tier billing totals are
//! bit-identical across client thread counts {1, 4} × node counts
//! {1, 2, 4}, even with the planner live and resizing mid-run.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tt_net::cluster::{Fleet, FleetConfig, RouteStrategy};
use tt_net::http::{read_response, Limits};
use tt_net::loadgen::{run_load, LoadConfig};
use tt_net::PlannerSetup;
use tt_obs::WindowAccum;
use tt_serve::planner::{Planner, PlannerConfig, PlannerInput, ServiceTotals};

const SEED: u64 = 91;
const PAYLOADS: usize = 60;
const REQUESTS: usize = 160;

/// Per-tier `(requests, revenue)` billing totals keyed by
/// `(objective, tolerance-milli)`.
type BillingTotals = BTreeMap<(String, u32), (usize, f64)>;

/// The fleet's control-loop window.
const WINDOW: Duration = Duration::from_millis(50);

/// A fleet whose every node runs the capacity planner at a fast test
/// cadence (the planning round itself is forced via `on_window`, so
/// the cadence only has to be non-absurd, not tuned).
fn planned_fleet(nodes: usize) -> Fleet {
    let mut config = FleetConfig::defaults(nodes);
    config.payloads = PAYLOADS;
    config.seed = SEED;
    config.strategy = RouteStrategy::RoundRobin;
    config.service.obs.window = WINDOW;
    config.service.planner = Some(PlannerSetup::defaults());
    Fleet::launch(config).expect("fleet boots")
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

/// Force one full planning round on every node: `windows_per_round`
/// telemetry windows, closed deterministically rather than by the
/// wall-clock idle heartbeat.
fn force_round(fleet: &Fleet) {
    let windows = PlannerConfig::defaults().windows_per_round;
    for _ in 0..windows {
        for id in 0..fleet.nodes() {
            fleet.node_service(id).on_window();
        }
    }
}

/// Adapt a merged telemetry fold into the planner's input contract —
/// the same adaptation the serving layer performs each round.
fn planner_input(fold: &WindowAccum) -> PlannerInput {
    PlannerInput {
        arrivals: fold
            .tiers
            .iter()
            .map(|(tier, t)| (tier.clone(), t.arrivals))
            .collect(),
        service: fold
            .versions
            .iter()
            .map(|(version, hist)| {
                (
                    *version,
                    ServiceTotals {
                        count: hist.count(),
                        sum_us: hist.sum(),
                    },
                )
            })
            .collect(),
    }
}

/// Merge every node's cumulative window fold into the fleet view.
fn fleet_fold(fleet: &Fleet) -> WindowAccum {
    let mut fold = WindowAccum::default();
    for id in 0..fleet.nodes() {
        if let Some(obs) = fleet.node_service(id).observability() {
            fold.merge(&obs.windows().cumulative());
        }
    }
    fold
}

/// The planner's whole operational surface over the wire: node
/// `/planner`, fleet `/planner`, typed events on the node log, and the
/// fleet front's per-node event window.
#[test]
fn planner_surface_is_visible_on_node_and_fleet() {
    let fleet = planned_fleet(2);
    let report = run_load(
        fleet.front_addr(),
        &LoadConfig::closed(REQUESTS, 2, PAYLOADS, SEED),
    )
    .expect("load");
    assert_eq!(report.ok, report.sent, "lost requests");
    force_round(&fleet);

    // Node-level planner status document.
    let (status, body) = fetch(fleet.node_addr(0), "/planner");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"planner\""), "{body}");
    assert!(body.contains("\"rounds\""), "{body}");
    assert!(body.contains("\"pool_workers\""), "{body}");
    assert!(body.contains("\"tuner\""), "{body}");

    // Fleet-level aggregation names every node and totals the fleet.
    let (status, body) = fetch(fleet.front_addr(), "/planner");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"nodes\""), "{body}");
    assert!(body.contains("\"node-0\""), "{body}");
    assert!(body.contains("\"node-1\""), "{body}");
    assert!(body.contains("\"planned_nodes\": 2"), "{body}");
    assert!(body.contains("\"pool_workers\""), "{body}");

    // Typed planner events on the node's own log...
    let (status, events) = fetch(fleet.node_addr(0), "/events");
    assert_eq!(status, 200);
    assert!(
        events.contains("\"kind\": \"planner_forecast\""),
        "forecast logged every round: {events}"
    );

    // ...and through the fleet front's per-node event window.
    let (status, events) = fetch(fleet.front_addr(), "/events?node=0");
    assert_eq!(status, 200);
    assert!(
        events.contains("\"kind\": \"planner_forecast\""),
        "fleet surfaces node planner events: {events}"
    );
    assert!(
        events.contains("\"scope\": \"node-0\""),
        "events are scoped to the node: {events}"
    );

    // Bad node selectors are typed errors, not panics.
    let (status, _) = fetch(fleet.front_addr(), "/events?node=abc");
    assert_eq!(status, 400);
    let (status, _) = fetch(fleet.front_addr(), "/events?node=7");
    assert_eq!(status, 404);

    fleet.shutdown().expect("clean shutdown");
}

/// A fleet without a planner answers `/planner` with a clean 404 on
/// both tiers — the surface never pretends capacity is managed.
#[test]
fn planner_endpoints_404_when_disabled() {
    let mut config = FleetConfig::defaults(1);
    config.payloads = PAYLOADS;
    config.seed = SEED;
    let fleet = Fleet::launch(config).expect("fleet boots");
    let (status, body) = fetch(fleet.node_addr(0), "/planner");
    assert_eq!(status, 404, "{body}");
    let (status, body) = fetch(fleet.front_addr(), "/planner");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("planner disabled"), "{body}");
    fleet.shutdown().expect("clean shutdown");
}

/// `/metrics/windows?n=K` validation over the wire: non-numeric is a
/// named 400, numeric clamps at the ring capacity instead of erroring.
#[test]
fn windows_query_validation_holds_over_the_wire() {
    let fleet = planned_fleet(1);
    let (status, body) = fetch(fleet.node_addr(0), "/metrics/windows?n=abc");
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("query parameter n"),
        "the error names the parameter: {body}"
    );
    let (status, body) = fetch(fleet.node_addr(0), "/metrics/windows?n=3");
    assert_eq!(status, 200, "{body}");
    let (status, body) = fetch(fleet.node_addr(0), "/metrics/windows?n=100000");
    assert_eq!(status, 200, "clamped, not rejected: {body}");
    assert!(body.contains("\"cumulative\""), "{body}");
    fleet.shutdown().expect("clean shutdown");
}

/// The acceptance contract: the same request multiset — at any client
/// thread count {1, 4} × node count {1, 2, 4}, planner live — yields
/// one fleet-merged fold, one replayed planner decision sequence, and
/// bit-identical per-tier billing totals.
#[test]
fn planner_decisions_and_billing_are_bit_identical_across_shapes() {
    let mut reference: Option<(String, BillingTotals)> = None;
    for nodes in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let fleet = planned_fleet(nodes);
            let report = run_load(
                fleet.front_addr(),
                &LoadConfig::closed(REQUESTS, threads, PAYLOADS, SEED + 1),
            )
            .expect("load");
            assert_eq!(report.ok, report.sent, "{nodes}x{threads} lost requests");

            // Replay the fleet-merged fold through a fresh planner:
            // decisions are a pure function of the fold, so every
            // shape must produce the same action sequence.
            let window_us = WINDOW.as_micros() as u64;
            let mut planner = Planner::new(PlannerConfig::defaults(), window_us, 8);
            let decisions = format!("{:?}", planner.observe(&planner_input(&fleet_fold(&fleet))));
            let totals = fleet.billing_totals();
            fleet.shutdown().expect("clean shutdown");

            match &reference {
                None => reference = Some((decisions, totals)),
                Some((ref_decisions, ref_totals)) => {
                    assert_eq!(
                        &decisions, ref_decisions,
                        "{nodes} nodes x {threads} threads: planner decisions diverged"
                    );
                    assert_eq!(
                        totals.len(),
                        ref_totals.len(),
                        "{nodes}x{threads}: billed tier sets differ"
                    );
                    for (key, (requests, revenue)) in ref_totals {
                        let (r, v) = totals
                            .get(key)
                            .unwrap_or_else(|| panic!("{nodes}x{threads}: missing tier {key:?}"));
                        assert_eq!(r, requests, "{nodes}x{threads}: requests for {key:?}");
                        assert_eq!(
                            v.to_bits(),
                            revenue.to_bits(),
                            "{nodes}x{threads}: revenue for {key:?} must be bit-identical"
                        );
                    }
                }
            }
        }
    }
}
