//! The discrete-event cluster's reports, pinned.
//!
//! Every policy flavour the serving stack knows (the three singles,
//! both chains, and the twelve cascades of
//! `{Sequential, Concurrent} × {EarlyTerminate, FinishOut}` over three
//! version pairs) is served through `ClusterSim` under three resilience
//! stacks, and each `ServingReport` is folded into FNV digests, one per
//! field group. `golden/cluster_reports.txt` holds one line per
//! (stack, policy) pair. A change that moves the simulator's queueing,
//! billing, answers or resilience counters by one bit fails here, and
//! the line diff names the flavour and the field.
//!
//! The matrix overlaps its versions' latencies, so on some requests the
//! accurate version answers before the cheap one; arrivals are Poisson
//! at a rate that keeps two slots per pool contended.

use rand::{Rng, SeedableRng};
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};
use tt_core::profile::{Observation, ProfileMatrix, ProfileMatrixBuilder};
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_serve::cluster::{ClusterConfig, ClusterSim, ServingReport};
use tt_serve::frontend::TieredFrontend;
use tt_serve::resilience::{BreakerPolicy, ResilienceConfig, RetryPolicy};
use tt_sim::{ArrivalProcess, FaultPlan, FaultRates, SimDuration, SimTime};

const REQUESTS: usize = 240;
/// The forced tier's tolerance: above the rule generator's penalty for
/// a resample whose baseline made no error, so every flavour is
/// feasible and the one-candidate generator deploys it.
const FORCED: f64 = 1e7;

fn matrix() -> ProfileMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2019);
    let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "accurate".into()]);
    for _ in 0..REQUESTS {
        let hard: f64 = rng.gen();
        let mut version = |wrong_above: f64, latency_us: std::ops::Range<u64>| {
            let wrong = hard > wrong_above;
            Observation {
                quality_err: if wrong { 1.0 } else { 0.0 },
                latency_us: rng.gen_range(latency_us),
                cost: 0.0,
                confidence: if wrong {
                    rng.gen_range(0.0..0.6)
                } else {
                    rng.gen_range(0.4..1.0)
                },
            }
        };
        let row = vec![
            version(0.6, 4_000..16_000),
            version(0.8, 8_000..24_000),
            version(0.95, 10_000..36_000),
        ];
        b.push_request(row);
    }
    b.build().unwrap()
}

/// Every flavour, over three versions: thresholds straddle the
/// confidences so each cascade both answers cheap and escalates.
fn every_policy_flavour() -> Vec<Policy> {
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
            for (cheap, accurate, threshold) in [(0, 2, 0.5), (1, 2, 0.85), (0, 1, 0.5)] {
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

/// A frontend whose only tier (tolerance [`FORCED`]) deploys `policy`.
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

fn arrivals() -> Vec<(SimTime, ServiceRequest)> {
    ArrivalProcess::poisson(80.0, 7)
        .unwrap()
        .take(REQUESTS)
        .enumerate()
        .map(|(r, at)| {
            (
                at,
                ServiceRequest::new(r, Tolerance::new(FORCED).unwrap(), Objective::ResponseTime),
            )
        })
        .collect()
}

/// The three resilience stacks, by name.
fn stacks() -> Vec<(&'static str, ResilienceConfig)> {
    let flaky = FaultRates {
        crash: 0.15,
        transient: 0.1,
        straggler: 0.0,
        straggler_factor: 1.0,
    };
    let slow = |straggler: f64| FaultRates {
        crash: 0.0,
        transient: 0.0,
        straggler,
        straggler_factor: 6.0,
    };
    vec![
        ("disabled", ResilienceConfig::disabled(3)),
        (
            "faulty",
            ResilienceConfig {
                faults: FaultPlan::new(41, vec![flaky; 3]),
                retry: RetryPolicy {
                    max_retries: 2,
                    base: SimDuration::from_millis(1),
                    cap: SimDuration::from_millis(4),
                    multiplier: 2.0,
                },
                breaker: Some(BreakerPolicy {
                    failure_threshold: 3,
                    cooldown: SimDuration::from_millis(40),
                }),
                deadline_factor: None,
                hedge_factor: None,
                degrade: true,
            },
        ),
        (
            "straggly",
            ResilienceConfig {
                faults: FaultPlan::new(43, vec![slow(0.3), slow(0.1), slow(0.1)]),
                hedge_factor: Some(2.0),
                deadline_factor: Some(2.5),
                ..ResilienceConfig::disabled(3)
            },
        ),
    ]
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, bits: u64) -> Self {
        for byte in bits.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn floats(self, values: &[f64]) -> Self {
        values.iter().fold(self, |h, v| h.word(v.to_bits()))
    }
}

/// One golden line: the report's field groups, each as a digest.
fn line(stack: &str, policy: &Policy, report: &ServingReport) -> String {
    let latency = Fnv::new().floats(report.latency.samples_ms());
    let queueing = Fnv::new().floats(report.queueing.samples_ms());
    let ledger = Fnv::new()
        .word(report.ledger.compute_cost().as_dollars().to_bits())
        .word(report.ledger.invocation_cost().as_dollars().to_bits())
        .word(report.ledger.invocations());
    let summary = Fnv::new()
        .word(report.mean_err.to_bits())
        .word(report.served as u64)
        .word(report.early_terminations as u64);
    let r = &report.resilience;
    let resilience = [
        r.total_requests,
        r.failed_invocations,
        r.slow_invocations,
        r.retries,
        r.hedges,
        r.breaker_sheds,
        r.breaker_transitions as usize,
        r.degraded_responses,
        r.tolerance_violations_under_fault,
        r.deadline_misses,
        r.dropped_requests,
    ]
    .iter()
    .fold(Fnv::new(), |h, &n| h.word(n as u64));
    let trace = report.trace.events().iter().fold(Fnv::new(), |h, e| {
        let h = h
            .word(e.arrival.as_micros())
            .word(e.responded.as_micros())
            .word(e.tolerance.to_bits());
        e.objective
            .name()
            .bytes()
            .fold(h, |h, b| h.word(u64::from(b)))
            .word(e.answered_by as u64)
            .word(e.quality_err.to_bits())
    });
    format!(
        "{stack} {policy}: latency={:016x} queueing={:016x} ledger={:016x} \
         summary={:016x} resilience={:016x} trace={:016x}",
        latency.0, queueing.0, ledger.0, summary.0, resilience.0, trace.0
    )
}

fn document() -> String {
    let m = matrix();
    let arrivals = arrivals();
    let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(3, 2));
    let mut out = String::new();
    for (stack, config) in stacks() {
        for policy in every_policy_flavour() {
            let report = sim.run_resilient(&forced_frontend(&m, policy), &arrivals, config.clone());
            out.push_str(&line(stack, &policy, &report));
            out.push('\n');
        }
    }
    out
}

const GOLDEN: &str = include_str!("golden/cluster_reports.txt");

#[test]
fn every_flavour_under_every_stack_reproduces_the_recorded_report() {
    let actual = document();
    let moved: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("- {want}\n+ {got}"))
        .collect();
    assert!(
        moved.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "the simulator's reports moved:\n{}\n\nfull document:\n{actual}",
        moved.join("\n")
    );
}

/// The matrix exercises what the golden claims to cover.
#[test]
fn the_matrix_has_requests_the_accurate_version_answers_first() {
    let m = matrix();
    let overtaken = (0..m.requests())
        .filter(|&r| m.get(r, 2).latency_us < m.get(r, 0).latency_us)
        .count();
    assert!(overtaken > 0);
    assert_eq!(
        GOLDEN.lines().count(),
        stacks().len() * every_policy_flavour().len()
    );
}
