//! Fault sweep — availability and tolerance integrity under failures.
//!
//! Serves the representative consumer mix through the ASR deployment's
//! tiered cluster while sweeping the per-invocation crash rate
//! (brownout scenario), comparing a bare cluster against one running
//! the full resilience stack (retries with capped backoff, circuit
//! breakers, deadlines, graceful degradation). A second table injects
//! stragglers and compares hedged versus unhedged sequential cascades.
//!
//! The question the sweep answers: how much availability do retries
//! buy back, and what does the degradation path cost in advertised
//! tolerance violations?

use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};
use tt_core::profile::ProfileMatrix;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_experiments::report::pct;
use tt_experiments::{threads_from_args, ExperimentContext, Table};
use tt_serve::cluster::{ClusterConfig, ClusterSim, ServingReport};
use tt_serve::frontend::TieredFrontend;
use tt_serve::resilience::{BreakerPolicy, ResilienceConfig, RetryPolicy};
use tt_sim::{ArrivalProcess, SimDuration, SimTime};
use tt_workloads::{FaultScenario, RequestMix};

const REQUESTS: usize = 2_000;
const ARRIVAL_RATE: f64 = 20.0;
const SLOTS: usize = 64;

fn arrivals(payloads: usize) -> Vec<(SimTime, ServiceRequest)> {
    ArrivalProcess::poisson(ARRIVAL_RATE, 3)
        .unwrap()
        .take(REQUESTS)
        .zip(RequestMix::representative().sample(REQUESTS, payloads, 4))
        .collect()
}

/// Mean profiled latency per version, for picking cascade endpoints.
fn mean_latencies(matrix: &ProfileMatrix) -> Vec<f64> {
    (0..matrix.versions())
        .map(|v| {
            (0..matrix.requests())
                .map(|r| matrix.get(r, v).latency_us as f64)
                .sum::<f64>()
                / matrix.requests() as f64
        })
        .collect()
}

/// A frontend that routes everything to one sequential cascade — the
/// policy shape hedging exists for.
fn sequential_cascade_frontend(matrix: &ProfileMatrix) -> (TieredFrontend, usize) {
    let means = mean_latencies(matrix);
    let cheap = (0..means.len())
        .min_by(|&a, &b| means[a].partial_cmp(&means[b]).unwrap())
        .unwrap();
    let accurate = (0..means.len())
        .max_by(|&a, &b| means[a].partial_cmp(&means[b]).unwrap())
        .unwrap();
    let policy = Policy::Cascade {
        cheap,
        accurate,
        threshold: 0.9,
        scheduling: Scheduling::Sequential,
        termination: Termination::EarlyTerminate,
    };
    let generator = RoutingRuleGenerator::new(
        matrix,
        vec![policy],
        0.9,
        1,
        tt_stats::TrialLimits {
            min_trials: 2,
            max_trials: 4,
        },
    )
    .unwrap();
    let rules = generator
        .generate(&[10.0], Objective::ResponseTime)
        .unwrap();
    (TieredFrontend::new(vec![rules]), cheap)
}

fn resilient_config(scenario: FaultScenario, pools: usize) -> ResilienceConfig {
    ResilienceConfig {
        faults: scenario.plan(pools, 11),
        retry: RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_millis(1),
            cap: SimDuration::from_millis(50),
            multiplier: 2.0,
        },
        breaker: Some(BreakerPolicy {
            failure_threshold: 10,
            cooldown: SimDuration::from_secs_f64(1.0),
        }),
        deadline_factor: Some(20.0),
        hedge_factor: None,
        degrade: true,
    }
}

fn bare_config(scenario: FaultScenario, pools: usize) -> ResilienceConfig {
    ResilienceConfig {
        faults: scenario.plan(pools, 11),
        ..ResilienceConfig::disabled(pools)
    }
}

fn summarise(report: &ServingReport) -> Vec<String> {
    let r = &report.resilience;
    vec![
        pct(r.availability()),
        r.retries.to_string(),
        r.dropped_requests.to_string(),
        r.degraded_responses.to_string(),
        r.tolerance_violations_under_fault.to_string(),
        r.deadline_misses.to_string(),
        r.breaker_transitions.to_string(),
    ]
}

fn main() {
    let ctx = ExperimentContext::from_args();
    let matrix = ctx.asr.matrix();
    let versions = matrix.versions();

    let generator =
        RoutingRuleGenerator::with_defaults_threaded(matrix, 0.99, 31, threads_from_args())
            .unwrap();
    let tolerances = [0.0, 0.01, 0.05, 0.10];
    let frontend = TieredFrontend::new(vec![
        generator
            .generate(&tolerances, Objective::ResponseTime)
            .unwrap(),
        generator.generate(&tolerances, Objective::Cost).unwrap(),
    ]);
    let stream = arrivals(matrix.requests());
    let sim = ClusterSim::new(matrix, ClusterConfig::uniform_cpu(versions, SLOTS));

    println!("== Fault sweep: ASR deployment, {REQUESTS} requests ==\n");
    println!("--- brownout (uniform crash rate), bare vs resilient ---");
    let mut table = Table::new(vec![
        "crash rate",
        "stack",
        "availability",
        "retries",
        "dropped",
        "degraded",
        "tol. violations",
        "deadline misses",
        "breaker trips",
    ]);
    for crash in [0.0, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let scenario = FaultScenario::Brownout { crash };
        for (stack, config) in [
            ("bare", bare_config(scenario, versions)),
            ("resilient", resilient_config(scenario, versions)),
        ] {
            let report = sim.run_resilient(&frontend, &stream, config);
            let mut row = vec![pct(crash), stack.to_string()];
            row.extend(summarise(&report));
            table.row(row);
        }
    }
    table.print();

    println!("\n--- slow cheap pool (rate 20%, 10x inflation), sequential-cascade hedging ---");
    let (seq_frontend, cheap_pool) = sequential_cascade_frontend(matrix);
    let seq_stream: Vec<(SimTime, ServiceRequest)> = stream
        .iter()
        .map(|(at, r)| {
            (
                *at,
                ServiceRequest::new(r.payload, Tolerance::new(10.0).unwrap(), r.objective),
            )
        })
        .collect();
    let mut table = Table::new(vec![
        "stack",
        "hedges",
        "early terms",
        "compute ($)",
        "max latency (ms)",
        "mean latency (ms)",
        "availability",
    ]);
    let scenario = FaultScenario::SlowPool {
        pool: cheap_pool,
        rate: 0.20,
        factor: 10.0,
    };
    for (stack, hedge) in [("unhedged", None), ("hedged (3x)", Some(3.0))] {
        let config = ResilienceConfig {
            faults: scenario.plan(versions, 11),
            hedge_factor: hedge,
            ..ResilienceConfig::disabled(versions)
        };
        let report = sim.run_resilient(&seq_frontend, &seq_stream, config);
        let summary = report.latency.summary().unwrap();
        table.row(vec![
            stack.to_string(),
            report.resilience.hedges.to_string(),
            report.early_terminations.to_string(),
            format!("{:.4}", report.ledger.compute_cost().as_dollars()),
            format!("{:.1}", summary.max()),
            format!("{:.1}", summary.mean()),
            pct(report.resilience.availability()),
        ]);
    }
    table.print();

    println!(
        "\ntakeaway: retries + degradation hold availability near 100% well past 10% crash \
         rates; the price appears as tolerance violations, which the report makes explicit."
    );
}
