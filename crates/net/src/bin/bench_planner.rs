//! Capacity-planner benchmark: self-provisioning vs static peak
//! provisioning through a diurnal cycle and a flash crowd.
//!
//! Usage: `bench_planner [--quick] [--out PATH]`
//!
//! Three phases:
//!
//! * **Diurnal** — the same shaped open-loop schedule (sinusoidal
//!   day/night cycle) against a statically peak-provisioned node and a
//!   planner-enabled node. Asserts the planner spends no more
//!   worker-seconds than static provisioning at equal-or-better
//!   per-tier SLO compliance (client-observed ok-rate), with zero
//!   strict-tier violations. Worker-seconds integrate the
//!   `planner_resize` event timeline against the node's own clock.
//! * **Flash** — same comparison through a 5× flash crowd.
//! * **Determinism** — drives one closed-loop request multiset through
//!   fleets of 1, 2, and 4 nodes at client concurrency 1 and 4,
//!   merges each fleet's per-node cumulative telemetry folds, and
//!   replays the merged fold through a fresh planner automaton.
//!   Asserts the decision sequence and the per-tier billing totals
//!   are bit-identical across all six runs: planning is a pure
//!   function of the fold, not of racing or partitioning.
//!
//! Emits `BENCH_planner.json`. Exits non-zero when any phase fails, so
//! CI's `planner-smoke` job is a single invocation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tt_bench::perfjson::{Json, JsonObject};
use tt_net::cluster::{Fleet, FleetConfig, RouteStrategy};
use tt_net::loadgen::{run_load, ArrivalShape, LoadConfig, LoadReport};
use tt_net::server::{Server, ServerConfig};
use tt_net::service::{ComputeService, PlannerSetup, ServiceConfig};
use tt_obs::WindowAccum;
use tt_serve::planner::{Planner, PlannerInput, ServiceTotals};

const SEED: u64 = 42;
/// Static baseline provisioning: the peak the operator must hold all
/// day to survive the flash crowd. The planner's ceiling is the same,
/// so it can never out-provision the baseline instantaneously — it can
/// only win by not holding the peak around the clock.
const STATIC_WORKERS: usize = 24;

struct BenchParams {
    label: &'static str,
    payloads: usize,
    requests: usize,
    rate: f64,
    determinism_requests: usize,
}

const QUICK: BenchParams = BenchParams {
    label: "quick",
    payloads: 60,
    requests: 500,
    rate: 250.0,
    determinism_requests: 240,
};

const STANDARD: BenchParams = BenchParams {
    label: "standard",
    payloads: 120,
    requests: 1_200,
    rate: 300.0,
    determinism_requests: 480,
};

/// Client threads × node counts swept in the determinism phase.
const THREAD_COUNTS: [usize; 2] = [1, 4];
const NODE_COUNTS: [usize; 3] = [1, 2, 4];

fn diurnal_shape(params: &BenchParams) -> ArrivalShape {
    // Two full cycles over the run, trough first.
    let run_secs = params.requests as f64 / params.rate;
    ArrivalShape::Diurnal {
        amplitude: 0.8,
        period: Duration::from_secs_f64(run_secs / 2.0),
    }
}

fn flash_shape(params: &BenchParams) -> ArrivalShape {
    let run_secs = params.requests as f64 / params.rate;
    ArrivalShape::Flash {
        multiplier: 5.0,
        start: Duration::from_secs_f64(run_secs * 0.3),
        duration: Duration::from_secs_f64(run_secs * 0.4),
    }
}

/// Boot one node. With `planner` the pool starts at the planner's
/// minimum and self-provisions; without, it holds `STATIC_WORKERS`
/// for the whole run.
fn boot(
    params: &BenchParams,
    planner: bool,
) -> (
    Arc<ComputeService>,
    tt_net::RunningServer,
    usize,
    std::net::SocketAddr,
) {
    let mut config = ServiceConfig::defaults();
    config.obs.window = Duration::from_millis(100);
    if planner {
        let mut setup = PlannerSetup::defaults();
        setup.planner.windows_per_round = 2;
        setup.planner.max_workers = STATIC_WORKERS;
        config.model_workers = setup.planner.min_workers.max(1);
        config.planner = Some(setup);
    } else {
        config.model_workers = STATIC_WORKERS;
    }
    let boot_workers = config.model_workers;
    let service = Arc::new(tt_net::demo::demo_service(params.payloads, SEED, config));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("node boots");
    let addr = server.local_addr();
    let running = server.spawn();
    (service, running, boot_workers, addr)
}

/// Integrate workers × time over `[t0, t1]` (microsecond timestamps on
/// the node's own clock) from the resize timeline.
fn worker_seconds(initial: usize, resizes: &[(u64, usize)], t0: u64, t1: u64) -> f64 {
    let mut workers = initial;
    let mut cursor = t0;
    let mut acc = 0.0;
    for &(at, to) in resizes {
        if at <= cursor {
            workers = to;
            continue;
        }
        let upto = at.min(t1);
        acc += workers as f64 * (upto - cursor) as f64 / 1e6;
        cursor = upto;
        workers = to;
        if cursor >= t1 {
            break;
        }
    }
    if cursor < t1 {
        acc += workers as f64 * (t1 - cursor) as f64 / 1e6;
    }
    acc
}

/// Parse the target worker count out of a `planner_resize` event
/// detail (`"workers {from} -> {to}"`).
fn resize_target(detail: &str) -> Option<usize> {
    detail.rsplit_once("-> ")?.1.trim().parse().ok()
}

/// Per-tier ok-rate: 200s over everything the client attributed to the
/// tier (ok + shed + rejected).
fn compliance(report: &LoadReport) -> BTreeMap<(String, u32), f64> {
    report
        .per_tier
        .iter()
        .map(|(key, tier)| {
            let attempts = tier.ok + tier.shed + tier.rejected;
            let rate = if attempts == 0 {
                1.0
            } else {
                tier.ok as f64 / attempts as f64
            };
            (key.clone(), rate)
        })
        .collect()
}

fn strict_violations(report: &LoadReport) -> usize {
    let strict: usize = report
        .per_tier
        .iter()
        .filter(|((_, milli), _)| *milli == 0)
        .map(|(_, tier)| tier.shed + tier.rejected)
        .sum();
    strict + report.transport_errors
}

struct ProvisioningRun {
    worker_seconds: f64,
    peak_workers: usize,
    resizes: usize,
    mix_regens: u64,
    strict_violations: usize,
    compliance: BTreeMap<(String, u32), f64>,
    report: LoadReport,
}

/// Drive one shaped schedule through one node and account for it.
fn drive(params: &BenchParams, shape: &ArrivalShape, planner: bool, seed: u64) -> ProvisioningRun {
    let (service, running, boot_workers, addr) = boot(params, planner);
    let obs = service.observability().expect("observability on");
    let mut load = LoadConfig::open(params.requests, params.rate, params.payloads, seed);
    load.arrival = shape.clone();
    let t0 = obs.now_us();
    let report = run_load(addr, &load).expect("shaped load");
    let t1 = obs.now_us();

    let resizes: Vec<(u64, usize)> = obs
        .events()
        .since(0)
        .iter()
        .filter(|e| e.kind == "planner_resize")
        .filter_map(|e| resize_target(&e.detail).map(|to| (e.at_us, to)))
        .collect();
    let ws = worker_seconds(boot_workers, &resizes, t0, t1);
    let peak = resizes
        .iter()
        .map(|&(_, to)| to)
        .chain([boot_workers])
        .max()
        .unwrap_or(boot_workers);
    let mix_regens = service.capacity_status().map(|s| s.mix_regens).unwrap_or(0);
    running.stop().expect("clean stop");
    ProvisioningRun {
        worker_seconds: ws,
        peak_workers: peak,
        resizes: resizes.len(),
        mix_regens,
        strict_violations: strict_violations(&report),
        compliance: compliance(&report),
        report,
    }
}

struct ScenarioOutcome {
    name: &'static str,
    static_ws: f64,
    planner_ws: f64,
    planner_peak: usize,
    planner_resizes: usize,
    mix_regens: u64,
    static_strict: usize,
    planner_strict: usize,
    compliance_ok: bool,
}

/// One static-vs-planner comparison under a shaped schedule.
fn scenario(params: &BenchParams, name: &'static str, shape: ArrivalShape) -> ScenarioOutcome {
    let baseline = drive(params, &shape, false, SEED + 1);
    let planned = drive(params, &shape, true, SEED + 1);

    // Equal-or-better compliance, tier by tier (tiers the static run
    // never saw trivially pass).
    let mut compliance_ok = true;
    for (key, static_rate) in &baseline.compliance {
        let planner_rate = planned.compliance.get(key).copied().unwrap_or(1.0);
        if planner_rate + 1e-9 < *static_rate {
            eprintln!(
                "bench_planner: {name}: tier {key:?} compliance regressed \
                 ({planner_rate:.4} < {static_rate:.4})"
            );
            compliance_ok = false;
        }
    }
    eprintln!(
        "bench_planner: {name}: static {}x{:.2}s = {:.1} worker-s; planner {:.1} worker-s \
         (peak {} workers, {} resizes, {} regens), ok {}/{}",
        STATIC_WORKERS,
        baseline.worker_seconds / STATIC_WORKERS as f64,
        baseline.worker_seconds,
        planned.worker_seconds,
        planned.peak_workers,
        planned.resizes,
        planned.mix_regens,
        planned.report.ok,
        planned.report.sent,
    );
    ScenarioOutcome {
        name,
        static_ws: baseline.worker_seconds,
        planner_ws: planned.worker_seconds,
        planner_peak: planned.peak_workers,
        planner_resizes: planned.resizes,
        mix_regens: planned.mix_regens,
        static_strict: baseline.strict_violations,
        planner_strict: planned.strict_violations,
        compliance_ok,
    }
}

type Totals = BTreeMap<(String, u32), (usize, f64)>;

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
            "{label}: revenue for {key:?} must be bit-identical"
        );
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

struct DeterminismOutcome {
    combos: usize,
    decisions: String,
    identical: bool,
}

/// Phase 3: the same request multiset at every thread × node count
/// must produce one merged fold, one decision sequence, one billing
/// table.
fn determinism_phase(params: &BenchParams) -> DeterminismOutcome {
    let mut reference: Option<(String, Totals)> = None;
    let mut identical = true;
    let mut combos = 0;
    for nodes in NODE_COUNTS {
        for threads in THREAD_COUNTS {
            let mut config = FleetConfig::defaults(nodes);
            config.payloads = params.payloads;
            config.seed = SEED;
            config.strategy = RouteStrategy::RoundRobin;
            let window_us = config.service.obs.window.as_micros() as u64;
            let fleet = Fleet::launch(config).expect("fleet boots");
            let load = LoadConfig::closed(
                params.determinism_requests,
                threads,
                params.payloads,
                SEED + 3,
            );
            let report = run_load(fleet.front_addr(), &load).expect("determinism load");
            assert_eq!(report.ok, report.sent, "{nodes}x{threads} lost requests");

            let mut fold = WindowAccum::default();
            for id in 0..fleet.nodes() {
                if let Some(obs) = fleet.node_service(id).observability() {
                    fold.merge(&obs.windows().cumulative());
                }
            }
            let mut planner = Planner::new(
                tt_serve::planner::PlannerConfig::defaults(),
                window_us,
                STATIC_WORKERS,
            );
            let decisions = format!("{:?}", planner.observe(&planner_input(&fold)));
            let totals = fleet.billing_totals();
            fleet.shutdown().expect("clean shutdown");
            combos += 1;

            match &reference {
                None => reference = Some((decisions, totals)),
                Some((ref_decisions, ref_totals)) => {
                    if decisions != *ref_decisions {
                        eprintln!(
                            "bench_planner: determinism: {nodes} nodes x {threads} threads \
                             diverged:\n  {decisions}\n  vs\n  {ref_decisions}"
                        );
                        identical = false;
                    }
                    assert_identical_totals(
                        &format!("{nodes} nodes x {threads} threads"),
                        ref_totals,
                        &totals,
                    );
                }
            }
        }
    }
    let (decisions, _) = reference.expect("at least one combo");
    DeterminismOutcome {
        combos,
        decisions,
        identical,
    }
}

fn scenario_object(outcome: &ScenarioOutcome) -> JsonObject {
    JsonObject::new()
        .with_num("static_worker_seconds", outcome.static_ws)
        .with_num("planner_worker_seconds", outcome.planner_ws)
        .with_num(
            "worker_seconds_ratio",
            if outcome.static_ws > 0.0 {
                outcome.planner_ws / outcome.static_ws
            } else {
                1.0
            },
        )
        .with_int("planner_peak_workers", outcome.planner_peak as i64)
        .with_int("planner_resizes", outcome.planner_resizes as i64)
        .with_int("mix_regens", outcome.mix_regens as i64)
        .with_int("static_strict_violations", outcome.static_strict as i64)
        .with_int("planner_strict_violations", outcome.planner_strict as i64)
        .with(
            "compliance_equal_or_better",
            Json::Bool(outcome.compliance_ok),
        )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_planner.json".to_string());
    let params = if quick { QUICK } else { STANDARD };

    eprintln!("bench_planner[{}]: diurnal scenario", params.label);
    let diurnal = scenario(&params, "diurnal", diurnal_shape(&params));
    eprintln!("bench_planner[{}]: flash-crowd scenario", params.label);
    let flash = scenario(&params, "flash", flash_shape(&params));
    eprintln!(
        "bench_planner[{}]: determinism phase (nodes {:?} x threads {:?})",
        params.label, NODE_COUNTS, THREAD_COUNTS
    );
    let determinism = determinism_phase(&params);
    eprintln!(
        "bench_planner[{}]: {} combos, decisions identical: {}, billing bit-identical",
        params.label, determinism.combos, determinism.identical
    );

    let mut failures: Vec<String> = Vec::new();
    for outcome in [&diurnal, &flash] {
        if outcome.planner_ws > outcome.static_ws {
            failures.push(format!(
                "{}: planner spent more worker-seconds than static provisioning \
                 ({:.1} > {:.1})",
                outcome.name, outcome.planner_ws, outcome.static_ws
            ));
        }
        if !outcome.compliance_ok {
            failures.push(format!("{}: per-tier compliance regressed", outcome.name));
        }
        if outcome.planner_strict != 0 {
            failures.push(format!(
                "{}: {} strict-tier violations under the planner",
                outcome.name, outcome.planner_strict
            ));
        }
        if outcome.planner_resizes == 0 {
            failures.push(format!("{}: planner never resized the pool", outcome.name));
        }
    }
    if !determinism.identical {
        failures.push("planner decisions diverged across thread/node counts".to_string());
    }

    let doc = JsonObject::new()
        .with_str("bench", "planner")
        .with_str("mode", params.label)
        .with_int("seed", SEED as i64)
        .with_int("static_workers", STATIC_WORKERS as i64)
        .with("diurnal", Json::Object(scenario_object(&diurnal)))
        .with("flash", Json::Object(scenario_object(&flash)))
        .with(
            "determinism",
            Json::Object(
                JsonObject::new()
                    .with_int("combos", determinism.combos as i64)
                    .with("decisions_identical", Json::Bool(determinism.identical))
                    .with("billing_bit_identical", Json::Bool(true))
                    .with_str("decision_sequence", &determinism.decisions),
            ),
        );
    std::fs::write(&out_path, doc.render()).expect("write artifact");
    eprintln!("bench_planner[{}]: wrote {out_path}", params.label);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_planner[{}]: FAIL — {f}", params.label);
        }
        std::process::exit(1);
    }
}
