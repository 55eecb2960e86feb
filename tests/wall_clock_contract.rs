//! The wall clock keeps the reply's word.
//!
//! A reply's `simulated_latency_us` is the paper's response time for
//! its tier. With `latency_scale > 0` the service sleeps each model
//! call's profiled latency times the scale, so an uncontended caller
//! must wait no longer than the accounted latency times the scale plus
//! a fixed overhead, whatever the policy flavour: work the §IV-C
//! algebra runs after the answer (a finish-out's later stage) runs
//! without the caller. And a tier that accounts less than the strict
//! tier must reply sooner than it on the wall too. Both execution paths
//! are held to this: the walk on the worker pool, and the batched path,
//! which sleeps each member's accounted latency; so both give a tier
//! one wall latency.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};
use tt_core::profile::{Observation, ProfileMatrix, ProfileMatrixBuilder};
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_net::admission::BrownoutLevel;
use tt_net::demo::{demo_service, DEMO_TIERS};
use tt_net::service::{ComputeService, ServiceConfig};
use tt_net::BatchConfig;
use tt_serve::frontend::TieredFrontend;

/// What the wall may add to a request's scaled accounted latency, µs.
/// `thread::sleep` oversleeps: on a 2-hardware-thread x86-64 Linux
/// host, 400 sleeps each of 50 µs, 100 µs, 200 µs, 500 µs, 1 ms and
/// 1.5 ms overslept by 55–65 µs at the median and 71–136 µs at the
/// 99th percentile. A request here sleeps at most three times (a
/// three-stage chain) and its path outside the sleeps costs a few µs:
/// 3 × 136 µs, rounded up to 500 µs.
const OVERHEAD_US: u64 = 500;

/// Scheduling delay only ever adds to a wall time and seldom strikes
/// twice (one sleep in 400 above overslept by 10 ms); a wait the service
/// makes strikes every time. A request over its bound is served again,
/// up to this many runs in all, and judged by its fastest.
const RUNS: usize = 3;

/// Model workers: enough that the calls a fast answer leaves running
/// (a finish-out's later stage, a raced stage that could not be
/// cancelled) never hold up a later request's call.
const WORKERS: usize = 32;

/// The tests share the host; one at a time keeps each uncontended.
static SERIAL: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    /// The policy walk on the worker pool.
    Walked,
    /// Tolerant tiers through the batcher.
    Batched,
}

fn config(latency_scale: f64, path: Path) -> ServiceConfig {
    ServiceConfig {
        latency_scale,
        model_workers: WORKERS,
        supervisor: None,
        batch: BatchConfig {
            enabled: path == Path::Batched,
            // No formation wait: a lone member flushes at once, so its
            // wall time is its own accounted latency, not a wait for
            // batchmates that its tier's configuration allows.
            max_deadline: Duration::ZERO,
            ..BatchConfig::defaults()
        },
        ..ServiceConfig::defaults()
    }
}

/// One request's accounted latency, µs, and its fastest wall time of
/// up to [`RUNS`] runs; `Err` names it when even that is over
/// `scale × accounted + OVERHEAD_US`.
fn serve(
    svc: &ComputeService,
    request: &ServiceRequest,
    plan: Option<(Policy, f64, BrownoutLevel)>,
    path: Path,
    scale: f64,
) -> Result<(u64, u64), String> {
    let mut fastest = u64::MAX;
    let mut accounted = 0;
    for _ in 0..RUNS {
        let start = Instant::now();
        let outcome = match path {
            Path::Walked => svc.execute_shaped(request, plan, None),
            Path::Batched => {
                let (tx, rx) = mpsc::channel();
                let done = Box::new(move |outcome| tx.send(outcome).expect("caller waits"));
                svc.execute_shaped_async(request, plan, None, done);
                rx.recv().expect("every request replies")
            }
        };
        let wall_us = start.elapsed().as_micros() as u64;
        accounted = outcome.expect("fault-free").simulated_latency_us;
        fastest = fastest.min(wall_us);
        let bound = (accounted as f64 * scale) as u64 + OVERHEAD_US;
        if fastest <= bound {
            return Ok((accounted, fastest));
        }
    }
    Err(format!(
        "{path:?} payload {}: {fastest} µs on the wall, accounted {accounted} µs × {scale} + {OVERHEAD_US} µs",
        request.payload
    ))
}

/// The tolerance every request here declares when its plan is forced:
/// above the rule generator's penalty, so any flavour is feasible.
const FORCED: f64 = 1e7;

/// Every flavour over three versions: the singles, both chains, and
/// every cascade scheduling × termination.
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

/// Six payloads on the demo's latency ranges (fast 2–4 ms, mid 8–12 ms,
/// accurate 24–36 ms), with confidences on both sides of every
/// threshold in [`flavours`].
fn flavour_matrix() -> ProfileMatrix {
    let confidences = [
        (0.3, 0.6),
        (0.6, 0.9),
        (0.9, 0.75),
        (0.45, 0.4),
        (0.75, 0.95),
        (0.55, 0.8),
    ];
    let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "accurate".into()]);
    for (r, (fast, mid)) in (0u64..).zip(confidences) {
        let obs = |latency_us: u64, confidence: f64| Observation {
            quality_err: 0.0,
            latency_us,
            cost: latency_us as f64 * 1e-9,
            confidence,
        };
        b.push_request(vec![
            obs(2_000 + 400 * r, fast),
            obs(8_000 + 800 * r, mid),
            obs(24_000 + 2_400 * r, 0.9),
        ]);
    }
    b.build().unwrap()
}

/// A frontend with one tier at [`FORCED`]; each request brings its own
/// plan.
fn forced_frontend(m: &ProfileMatrix) -> TieredFrontend {
    let limits = tt_stats::TrialLimits {
        min_trials: 2,
        max_trials: 4,
    };
    let gen =
        RoutingRuleGenerator::new(m, vec![Policy::Single { version: 2 }], 0.9, 1, limits).unwrap();
    TieredFrontend::new(vec![gen
        .generate(&[FORCED], Objective::ResponseTime)
        .unwrap()])
}

#[test]
fn every_flavour_replies_within_its_accounted_latency() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Fast 200–400 µs a call, accurate 2.4–3.6 ms.
    let scale = 0.1;
    let m = Arc::new(flavour_matrix());
    let mut late = Vec::new();
    for path in [Path::Walked, Path::Batched] {
        let svc = ComputeService::new(Arc::clone(&m), forced_frontend(&m), config(scale, path));
        for policy in flavours() {
            for payload in 0..m.requests() {
                let tolerance = Tolerance::new(FORCED).unwrap();
                let request = ServiceRequest::new(payload, tolerance, Objective::ResponseTime);
                let plan = Some((policy, FORCED, BrownoutLevel::LooserTier));
                if let Err(e) = serve(&svc, &request, plan, path, scale) {
                    late.push(format!("{policy}, {e}"));
                }
            }
        }
    }
    assert!(late.is_empty(), "late replies:\n{}", late.join("\n"));
}

/// Per (objective, tolerance in ‰), per path: the accounted and the
/// wall latencies summed over the tier's requests, µs.
type Sums = BTreeMap<(&'static str, u32), BTreeMap<Path, (u64, u64)>>;

#[test]
fn a_tier_that_accounts_less_than_strict_replies_sooner_batched_or_not() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Fast 100–200 µs a call, accurate 1.2–1.8 ms.
    let scale = 0.05;
    let payloads = 80;
    let mut late = Vec::new();
    let mut tiers = Sums::new();
    for path in [Path::Walked, Path::Batched] {
        let svc = demo_service(payloads, 42, config(scale, path));
        for objective in [Objective::ResponseTime, Objective::Cost] {
            for tolerance in DEMO_TIERS {
                let key = (objective.name(), (tolerance * 1000.0).round() as u32);
                let sums = tiers.entry(key).or_default().entry(path).or_default();
                for payload in 0..payloads {
                    let request =
                        ServiceRequest::new(payload, Tolerance::new(tolerance).unwrap(), objective);
                    match serve(&svc, &request, None, path, scale) {
                        Ok((accounted, wall)) => {
                            sums.0 += accounted;
                            sums.1 += wall;
                        }
                        Err(e) => late.push(format!("{key:?}, {e}")),
                    }
                }
            }
        }
    }
    assert!(late.is_empty(), "late replies:\n{}", late.join("\n"));

    let mean = |sum: u64| sum / payloads as u64;
    let mut cheaper = 0;
    for objective in ["response-time", "cost"] {
        let strict = &tiers[&(objective, 0)];
        for ((name, milli), paths) in tiers.range((objective, 1)..=(objective, u32::MAX)) {
            assert_eq!(*name, objective);
            for (path, &(accounted, wall)) in paths {
                let (strict_accounted, strict_wall) = strict[path];
                if accounted < strict_accounted {
                    cheaper += 1;
                    assert!(
                        wall < strict_wall,
                        "{objective} {milli} ‰ ({path:?}) accounts {} µs against strict's {} µs, \
                         but its mean wall time is {} µs against strict's {} µs",
                        mean(accounted),
                        mean(strict_accounted),
                        mean(wall),
                        mean(strict_wall),
                    );
                }
            }
        }
    }
    assert!(cheaper > 0, "the demo deploys a tier cheaper than strict");

    for (tier, paths) in &tiers {
        let walked = mean(paths[&Path::Walked].1);
        let batched = mean(paths[&Path::Batched].1);
        assert!(
            walked.abs_diff(batched) <= OVERHEAD_US,
            "{tier:?}: mean wall {walked} µs walked, {batched} µs batched"
        );
    }
}
