//! One policy algebra, three drivers, the same answers.
//!
//! `Policy::execute` walks a request's matrix row, `ComputeService`
//! walks its worker pool's results, and `ClusterSim` walks its event
//! queue; all three feed one `tt_core::policy::Walk`. Over random small
//! matrices whose confidences sit exactly on the flavours' thresholds as
//! often as not, every flavour (the singles, every cascade scheduling ×
//! termination, both chains) must give the same answering version,
//! quality error and latency from all three drivers, for every request
//! whose later stages are slower than its earlier ones: the order in
//! which the matrix and the live walks feed results, and in which an
//! uncontended cluster sees them land.

use proptest::prelude::*;
use std::sync::Arc;
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination, Walk};
use tt_core::profile::{Observation, ProfileMatrix, ProfileMatrixBuilder};
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_net::admission::BrownoutLevel;
use tt_net::service::{ComputeService, ServiceConfig};
use tt_serve::cluster::{ClusterConfig, ClusterSim};
use tt_serve::frontend::TieredFrontend;
use tt_sim::SimTime;

/// The one tier every frontend here deploys: above the rule
/// generator's penalty for a resample whose baseline made no error, so
/// any flavour is feasible.
const FORCED: f64 = 1e7;

/// Every flavour over three versions; [`observation`] draws
/// confidences exactly on these thresholds.
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

fn observation() -> impl Strategy<Value = Observation> {
    let confidence = prop_oneof![Just(0.5), Just(0.7), Just(0.85), 0.0f64..1.0];
    (1u64..40_000, 0u8..2, confidence).prop_map(|(latency_us, wrong, confidence)| Observation {
        quality_err: f64::from(wrong),
        latency_us,
        cost: latency_us as f64 * 1e-9,
        confidence,
    })
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

/// Whether every stage of `policy` is slower on `row` than the one
/// before it.
fn stages_slow_down(policy: &Policy, row: &[Observation]) -> bool {
    let walk = Walk::new(policy, row);
    (1..walk.stages())
        .all(|k| row[walk.version(k)].latency_us > row[walk.version(k - 1)].latency_us)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn execute_the_service_and_the_simulator_agree(
        rows in prop::collection::vec((observation(), observation(), observation()), 3..10),
    ) {
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "accurate".into()]);
        for (fast, mid, accurate) in rows {
            b.push_request(vec![fast, mid, accurate]);
        }
        let m = Arc::new(b.build().unwrap());
        let service = ComputeService::new(
            Arc::clone(&m),
            forced_frontend(&m, Policy::Single { version: 2 }),
            ServiceConfig {
                model_workers: 1,
                supervisor: None,
                ..ServiceConfig::defaults()
            },
        );
        // A second apart on 64 slots per pool: nothing queues.
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(3, 64));
        let arrivals: Vec<(SimTime, ServiceRequest)> = (0..m.requests())
            .map(|r| {
                let request =
                    ServiceRequest::new(r, Tolerance::new(FORCED).unwrap(), Objective::ResponseTime);
                (SimTime::from_micros(r as u64 * 1_000_000), request)
            })
            .collect();
        for policy in flavours() {
            let report = sim.run(&forced_frontend(&m, policy), &arrivals);
            let events = report.trace.events();
            prop_assert_eq!(events.len(), m.requests());
            for (r, (arrival, request)) in arrivals.iter().enumerate() {
                if !stages_slow_down(&policy, m.request_row(r)) {
                    continue;
                }
                let intended = policy.execute(&m, r);
                let intended = (intended.answered_by, intended.quality_err, intended.latency_us);
                let plan = Some((policy, FORCED, BrownoutLevel::LooserTier));
                let served = service.execute_shaped(request, plan, None).unwrap();
                prop_assert_eq!(
                    (served.answered_by, served.quality_err, served.simulated_latency_us),
                    intended,
                    "service, {} request {}",
                    policy,
                    r
                );
                let event = &events[r];
                prop_assert_eq!(event.arrival, *arrival);
                let latency = event.responded.saturating_since(event.arrival).as_micros();
                prop_assert_eq!(
                    (event.answered_by, event.quality_err, latency),
                    intended,
                    "simulator, {} request {}",
                    policy,
                    r
                );
            }
        }
    }
}
