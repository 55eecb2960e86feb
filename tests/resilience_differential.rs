//! The simulator and the live service recover alike.
//!
//! `ClusterSim` and `ComputeService` both drive one
//! `tt_serve::resilience::ResilientWalk` per request: retries, breaker
//! admission, sheds, degradation and the degraded-answer rule are
//! written once. What each host still owns is how it feeds that walk,
//! and this suite holds the two to the same outcomes. Over seeded small
//! three-version matrices, every policy flavour, crash and transient
//! faults, immediate retries, and degradation on and off, an uncontended
//! simulator (64 slots per pool, arrivals a second apart) and the
//! service (latency scale 0, no supervisor) must agree on every
//! request's answering version, whether it was degraded and whether it
//! was dropped, and on the run's resilience counters. Breakers run off
//! for every flavour, and on (threshold 1, a cooldown longer than the
//! run) for every flavour that never cancels a running stage.
//!
//! Both hosts draw a call's fault when they launch it. Where they can
//! differ is order: the service reads a concurrent cascade's cheap stage
//! (and its retries) before its pooled accurate stage, the simulator
//! reads both in simulated time. The matrices make the two orders one:
//! each version is more than three times slower than the one before, so
//! a cheap stage with two retries ends before its accurate stage's first
//! result, and an accurate stage of a concurrent flavour fails by
//! transient error (full service time), never by an early crash.
//!
//! Every request declares the forced tier's tolerance, so no degraded
//! answer can violate it here; the violation rule itself is unit-tested
//! with the walk.

use proptest::prelude::*;
use std::sync::Arc;
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};
use tt_core::profile::{Observation, ProfileMatrix, ProfileMatrixBuilder};
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_net::admission::BrownoutLevel;
use tt_net::obs::ObsConfig;
use tt_net::service::{ComputeService, ServiceConfig};
use tt_serve::cluster::{ClusterConfig, ClusterSim};
use tt_serve::frontend::TieredFrontend;
use tt_serve::resilience::{BreakerPolicy, ResilienceConfig, ResilienceStats, RetryPolicy};
use tt_sim::{FaultPlan, FaultRates, SimDuration, SimTime};

/// The one tier every frontend here deploys: above the rule
/// generator's penalty for a resample whose baseline made no error, so
/// any flavour is feasible.
const FORCED: f64 = 1e7;

/// Every flavour over three versions, as in `policy_walk_parity.rs`.
fn flavours() -> Vec<Policy> {
    let mut policies: Vec<Policy> = (0..3).map(|version| Policy::Single { version }).collect();
    for threshold_second in [0.7, 0.85] {
        policies.push(Policy::Chain3 {
            first: 0,
            second: 1,
            third: 2,
            threshold_first: 0.5,
            threshold_second,
        });
    }
    for scheduling in [Scheduling::Sequential, Scheduling::Concurrent] {
        for termination in [Termination::EarlyTerminate, Termination::FinishOut] {
            for (cheap, accurate, threshold) in [(0, 2, 0.5), (1, 2, 0.85), (0, 1, 0.7)] {
                policies.push(Policy::Cascade {
                    cheap,
                    accurate,
                    threshold,
                    scheduling,
                    termination,
                });
            }
        }
    }
    policies
}

/// A version's observation on one request; each version's latency range
/// starts more than three times above the previous one's end.
fn observation(latency_us: std::ops::Range<u64>) -> impl Strategy<Value = Observation> {
    let confidence = prop_oneof![Just(0.5), Just(0.7), Just(0.85), 0.0f64..1.0];
    (latency_us, 0u8..2, confidence).prop_map(|(latency_us, wrong, confidence)| Observation {
        quality_err: f64::from(wrong),
        latency_us,
        cost: 0.0,
        confidence,
    })
}

fn row() -> impl Strategy<Value = Vec<Observation>> {
    (
        observation(1..1_000),
        observation(4_000..8_000),
        observation(32_000..64_000),
    )
        .prop_map(|(fast, mid, accurate)| vec![fast, mid, accurate])
}

/// Per-version `(crash, transient)` rates.
fn rates() -> impl Strategy<Value = [(f64, f64); 3]> {
    let pool = (0.0f64..0.3, 0.0f64..0.3);
    (pool.clone(), pool.clone(), pool).prop_map(|(a, b, c)| [a, b, c])
}

/// A frontend whose only tier deploys `policy`.
fn forced_frontend(m: &ProfileMatrix, policy: Policy) -> TieredFrontend {
    let gen = RoutingRuleGenerator::new(
        m,
        vec![policy],
        0.9,
        1,
        tt_stats::TrialLimits {
            min_trials: 2,
            max_trials: 4,
        },
    )
    .unwrap();
    TieredFrontend::new(vec![gen
        .generate(&[FORCED], Objective::ResponseTime)
        .unwrap()])
}

/// `policy`'s fault plan: a concurrent cascade's accurate version fails
/// by transient error only (its crash rate moves there).
fn fault_plan(seed: u64, rates: &[(f64, f64); 3], policy: &Policy) -> FaultPlan {
    let raced = match *policy {
        Policy::Cascade {
            accurate,
            scheduling: Scheduling::Concurrent,
            ..
        } => Some(accurate),
        _ => None,
    };
    let pools = (0..3)
        .map(|v| {
            let (crash, transient) = rates[v];
            let (crash, transient) = if raced == Some(v) {
                (0.0, crash + transient)
            } else {
                (crash, transient)
            };
            FaultRates {
                crash,
                transient,
                ..FaultRates::NONE
            }
        })
        .collect();
    FaultPlan::new(seed, pools)
}

/// Per request: the answering version and whether the answer was
/// degraded, or `None` for a dropped request.
type Outcomes = Vec<Option<(usize, bool)>>;

/// The simulator's outcomes. A report counts degraded answers and drops
/// per run, so each request's come from the run over the requests up to
/// it: uncontended, the earlier requests replay identically.
fn simulated(
    m: &ProfileMatrix,
    frontend: &TieredFrontend,
    arrivals: &[(SimTime, ServiceRequest)],
    config: &ResilienceConfig,
) -> (Outcomes, ResilienceStats) {
    let sim = ClusterSim::new(m, ClusterConfig::uniform_cpu(3, 64));
    let mut before = ResilienceStats::default();
    let mut outcomes = Vec::new();
    for n in 1..=arrivals.len() {
        let report = sim.run_resilient(frontend, &arrivals[..n], config.clone());
        let answered = report
            .trace
            .events()
            .iter()
            .find(|e| e.arrival == arrivals[n - 1].0)
            .map(|e| e.answered_by);
        let r = &report.resilience;
        assert_eq!(
            answered.is_none(),
            r.dropped_requests > before.dropped_requests
        );
        outcomes.push(answered.map(|v| (v, r.degraded_responses > before.degraded_responses)));
        before = report.resilience;
    }
    (outcomes, before)
}

/// The service's outcomes over the same requests, each served on
/// `policy`'s plan.
fn served(
    m: &Arc<ProfileMatrix>,
    frontend: &TieredFrontend,
    arrivals: &[(SimTime, ServiceRequest)],
    policy: Policy,
    config: &ResilienceConfig,
) -> (Outcomes, ResilienceStats) {
    let service = ComputeService::new(
        Arc::clone(m),
        frontend.clone(),
        ServiceConfig {
            retry: config.retry,
            breaker: config.breaker,
            degrade: config.degrade,
            faults: Some(config.faults.clone()),
            model_workers: 1,
            obs: ObsConfig::disabled(),
            supervisor: None,
            ..ServiceConfig::defaults()
        },
    );
    let plan = Some((policy, FORCED, BrownoutLevel::LooserTier));
    let outcomes = arrivals
        .iter()
        .map(|(_, request)| {
            let outcome = service.execute_shaped(request, plan, None).ok();
            outcome.map(|o| (o.answered_by, o.degraded))
        })
        .collect();
    (outcomes, service.snapshot().resilience)
}

/// The counters both hosts keep the same way.
fn counters(r: &ResilienceStats) -> [usize; 6] {
    [
        r.failed_invocations,
        r.retries,
        r.breaker_sheds,
        r.degraded_responses,
        r.tolerance_violations_under_fault,
        r.dropped_requests,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_simulator_and_the_service_recover_alike(
        rows in prop::collection::vec(row(), 3..9),
        rates in rates(),
        seed in 0u64..1_000_000,
        retries in 0u32..3,
    ) {
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "accurate".into()]);
        for row in rows {
            b.push_request(row);
        }
        let m = Arc::new(b.build().unwrap());
        let arrivals: Vec<(SimTime, ServiceRequest)> = (0..m.requests())
            .map(|r| {
                let request =
                    ServiceRequest::new(r, Tolerance::new(FORCED).unwrap(), Objective::ResponseTime);
                (SimTime::from_micros(r as u64 * 1_000_000), request)
            })
            .collect();
        let service_frontend = forced_frontend(&m, Policy::Single { version: 2 });
        let breaker = BreakerPolicy {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs_f64(1e6),
        };
        for policy in flavours() {
            let cancels = matches!(
                policy,
                Policy::Cascade {
                    scheduling: Scheduling::Concurrent,
                    termination: Termination::EarlyTerminate,
                    ..
                }
            );
            let frontend = forced_frontend(&m, policy);
            let breakers = if cancels { vec![None] } else { vec![None, Some(breaker)] };
            for breaker in breakers {
                for degrade in [false, true] {
                    let config = ResilienceConfig {
                        faults: fault_plan(seed, &rates, &policy),
                        retry: RetryPolicy::immediate(retries),
                        breaker,
                        degrade,
                        ..ResilienceConfig::disabled(3)
                    };
                    let (sim, sim_stats) = simulated(&m, &frontend, &arrivals, &config);
                    let (live, live_stats) =
                        served(&m, &service_frontend, &arrivals, policy, &config);
                    let case = format!("{policy}, breaker {}, degrade {degrade}", breaker.is_some());
                    prop_assert_eq!(&sim, &live, "per request: {}", case);
                    prop_assert_eq!(counters(&sim_stats), counters(&live_stats), "per run: {}", case);
                }
            }
        }
    }
}
