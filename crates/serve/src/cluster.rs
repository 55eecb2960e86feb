//! The discrete-event serving cluster.
//!
//! A load balancer in front of per-version node pools, executing each
//! request's tier policy with real queueing. What runs when is the
//! request's [`Walk`](tt_core::policy::Walk), fed completions in
//! simulated-time order: sequential cascades admit the accurate version
//! only after a disappointing cheap answer, concurrent cascades admit
//! both at arrival, and early termination cancels the in-flight accurate
//! invocation the moment a confident cheap answer lands — refunding the
//! unused busy time, which is exactly where the ET policy's IaaS
//! savings come from (paper §IV-C).
//!
//! Invocations may crash, error, or straggle according to a seeded
//! [`tt_sim::FaultPlan`]. What a request does about it — retries with
//! capped exponential backoff, breaker sheds to sibling pools, graceful
//! degradation to cheaper versions, and the tolerance violations that
//! degradation costs — is its [`ResilientWalk`]'s to decide. The
//! simulator only drives it: the event queue is its clock and supplies
//! the retry backoff, the hedge timer of sequential cascades and the
//! deadline derived from each tier's guaranteed latency; the node pools
//! run its launches; the per-pool circuit breakers admit them.
//! [`ClusterSim::run`] uses [`ResilienceConfig::disabled`], which
//! reproduces the fault-free simulation bit-for-bit.

use crate::frontend::TieredFrontend;
use crate::pricing::PricingCatalog;
use crate::resilience::{
    CircuitBreaker, Recovery, ResilienceConfig, ResilienceStats, ResilientWalk, Slot, Step,
};
use crate::trace::{TraceEvent, TraceRecorder};
use tt_core::policy::Policy;
use tt_core::profile::ProfileMatrix;
use tt_core::request::ServiceRequest;
use tt_sim::engine::EventToken;
use tt_sim::node::JobId;
use tt_sim::{
    CostLedger, EventQueue, FaultPlan, InstanceType, JobCompletion, LatencyRecorder, ServiceNode,
    SimDuration, SimTime,
};

/// Which device class a version's pool runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PoolDevice {
    /// CPU nodes.
    Cpu,
    /// GPU nodes.
    Gpu,
}

/// Cluster shape: one pool per service version.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Parallel capacity (node-slots) per version pool.
    pub slots_per_pool: usize,
    /// Device class per version (must match the matrix's version
    /// count).
    pub devices: Vec<PoolDevice>,
    /// Price catalog.
    pub pricing: PricingCatalog,
    /// When `Some(n)`, the run's [`TraceRecorder`] keeps only the most
    /// recent `n` events (per-tier aggregates still cover the whole
    /// stream); `None` retains every event — the simulation default,
    /// preserving exact CSV export and replay comparison.
    pub trace_retention: Option<usize>,
}

impl ClusterConfig {
    /// A uniform CPU deployment for `versions` versions.
    pub fn uniform_cpu(versions: usize, slots_per_pool: usize) -> Self {
        ClusterConfig {
            slots_per_pool,
            devices: vec![PoolDevice::Cpu; versions],
            pricing: PricingCatalog::list_prices(),
            trace_retention: None,
        }
    }
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request response times.
    pub latency: LatencyRecorder,
    /// Per-request queueing delays (first admission wait).
    pub queueing: LatencyRecorder,
    /// Compute + invocation charges.
    pub ledger: CostLedger,
    /// Mean quality error over responded requests.
    pub mean_err: f64,
    /// Requests served.
    pub served: usize,
    /// Accurate invocations cancelled early.
    pub early_terminations: usize,
    /// Per-request trace (sliceable by tier; CSV-exportable).
    pub trace: TraceRecorder,
    /// What the resilience layer observed (all zeros under
    /// [`ResilienceConfig::disabled`], except `total_requests`).
    pub resilience: ResilienceStats,
}

#[derive(Debug)]
struct InFlight<'r> {
    /// The request's policy walk under the resilience rules.
    request: ResilientWalk<'r>,
    arrival: SimTime,
    /// Per slot, the running job a cancellation releases.
    jobs: [Option<(JobId, EventToken)>; 4],
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    Done {
        flight: usize,
        slot: Slot,
        completion: JobCompletion,
    },
    Retry {
        flight: usize,
        slot: Slot,
    },
    Hedge {
        flight: usize,
    },
    Deadline {
        flight: usize,
    },
}

/// The cluster simulator.
#[derive(Debug)]
pub struct ClusterSim<'a> {
    matrix: &'a ProfileMatrix,
    config: ClusterConfig,
}

/// Mutable state of one simulation run, shared by the event handlers.
struct RunState<'r> {
    matrix: &'r ProfileMatrix,
    pricing: &'r PricingCatalog,
    arrivals: &'r [(SimTime, ServiceRequest)],
    recovery: &'r Recovery,
    pools: Vec<ServiceNode>,
    queue: EventQueue<Event>,
    flights: Vec<InFlight<'r>>,
    ledger: CostLedger,
    latency: LatencyRecorder,
    queueing: LatencyRecorder,
    total_err: f64,
    early_terminations: usize,
    trace: TraceRecorder,
    stats: ResilienceStats,
    faults: FaultPlan,
    /// One breaker per pool; empty when breakers are disabled.
    breakers: Vec<CircuitBreaker>,
    deadline_factor: Option<f64>,
    hedge_factor: Option<f64>,
    /// Deadline per distinct routed policy (memoised `evaluate` calls).
    deadline_cache: Vec<(Policy, SimDuration)>,
}

impl<'r> RunState<'r> {
    /// Admit one invocation of `version` for `flight`'s `slot`, drawing
    /// its fault outcome, charging the invocation, and scheduling its
    /// completion. A request's first invocation records its queueing
    /// delay.
    fn launch(&mut self, flight: usize, slot: Slot, version: usize, now: SimTime) {
        let payload = self.arrivals[flight].1.payload;
        let service = SimDuration::from_micros(self.matrix.get(payload, version).latency_us);
        let fault = self.faults.draw(version);
        let (timing, job, completion) = self.pools[version].admit_faulty(now, service, fault);
        self.ledger.charge_invocation(self.pricing.api_price());
        let f = &mut self.flights[flight];
        if f.request.invocations() == 1 {
            self.queueing.record(timing.queueing(now));
        }
        let done = Event::Done {
            flight,
            slot,
            completion,
        };
        f.jobs[slot.index()] = Some((job, self.queue.schedule(timing.finish, done)));
    }

    /// Deliver `flight`'s answer: the single place a response is
    /// recorded (latency, error aggregate, trace event).
    fn respond(&mut self, flight: usize, now: SimTime, version: usize) {
        let request = &self.arrivals[flight].1;
        let arrival = self.flights[flight].arrival;
        let err = self.matrix.get(request.payload, version).quality_err;
        self.latency.record(now.saturating_since(arrival));
        self.total_err += err;
        self.trace.record(TraceEvent {
            arrival,
            responded: now,
            tolerance: request.tolerance.value(),
            objective: request.objective,
            answered_by: version,
            quality_err: err,
        });
    }

    /// The deadline span for a policy: `deadline_factor` times the
    /// tier's guaranteed (mean) latency.
    fn deadline_for(&mut self, policy: Policy) -> Option<SimDuration> {
        let factor = self.deadline_factor?;
        if let Some((_, d)) = self.deadline_cache.iter().find(|(p, _)| *p == policy) {
            return Some(*d);
        }
        let mean = policy
            .evaluate(self.matrix, None)
            .expect("routed policy evaluates")
            .mean_latency_us;
        let d = SimDuration::from_micros((mean * factor).round() as u64);
        self.deadline_cache.push((policy, d));
        Some(d)
    }

    /// Carry out what `flight`'s resilient walk asks for, admitting
    /// launches through the pools' breakers.
    fn drive(&mut self, flight: usize, now: SimTime) {
        loop {
            let breakers = &mut self.breakers;
            let admit = |version: usize| breakers.get_mut(version).is_none_or(|b| b.allows(now));
            let Some(step) = self.flights[flight].request.poll(admit) else {
                return;
            };
            match step {
                Step::Launch { slot, version } => self.launch(flight, slot, version, now),
                Step::Cancel(slot) => {
                    let f = &mut self.flights[flight];
                    if let Some((job, token)) = f.jobs[slot.index()].take() {
                        self.queue.cancel(token);
                        if self.pools[f.request.version(slot)].release_early(job, now) {
                            self.early_terminations += 1;
                        }
                    }
                }
                Step::Retry { slot, delay, .. } => {
                    self.queue
                        .schedule(now + delay, Event::Retry { flight, slot });
                }
                Step::Answer { version, .. } => self.respond(flight, now, version),
                Step::Drop => {}
            }
        }
    }

    fn on_arrival(&mut self, frontend: &TieredFrontend, index: usize, now: SimTime) {
        let request = &self.arrivals[index].1;
        let policy = frontend.route(request);
        policy
            .validate(self.matrix.versions())
            .expect("frontend produced a valid policy");
        let row = self.matrix.request_row(request.payload);
        let walk = ResilientWalk::new(policy, row, request.tolerance.value(), self.recovery);
        let flight = self.flights.len();
        self.flights.push(InFlight {
            request: walk,
            arrival: now,
            jobs: [None; 4],
        });
        self.drive(flight, now);
        if let Some(h) = self.hedge_factor.filter(|_| walk.hedgeable()) {
            let nominal = row[walk.version(Slot::Stage(0))].latency_us;
            let fire_at = now + SimDuration::from_micros((nominal as f64 * h).round() as u64);
            self.queue.schedule(fire_at, Event::Hedge { flight });
        }
        if let Some(span) = self.deadline_for(policy) {
            self.queue.schedule(now + span, Event::Deadline { flight });
        }
    }

    /// Feed one event to its request's walk, then drive it. Events for
    /// a request that has answered or dropped change nothing.
    fn handle(&mut self, frontend: &TieredFrontend, now: SimTime, event: Event) {
        let flight = match event {
            Event::Arrival(index) => return self.on_arrival(frontend, index, now),
            Event::Done {
                flight,
                slot,
                completion,
            } => {
                self.flights[flight].jobs[slot.index()] = None;
                let version = self.flights[flight].request.version(slot);
                let usable = completion.is_usable();
                self.stats.failed_invocations += usize::from(!usable);
                self.stats.slow_invocations += usize::from(completion == JobCompletion::Slow);
                if let Some(b) = self.breakers.get_mut(version) {
                    b.record(usable, now);
                }
                let payload = self.arrivals[flight].1.payload;
                let request = &mut self.flights[flight].request;
                if usable {
                    request.landed(slot, self.matrix.get(payload, version).confidence);
                } else {
                    request.failed(slot);
                }
                flight
            }
            Event::Retry { flight, slot } => {
                self.flights[flight].request.retry_due(slot);
                flight
            }
            Event::Hedge { flight } => {
                self.flights[flight].request.hedge();
                flight
            }
            Event::Deadline { flight } => {
                self.flights[flight].request.deadline();
                flight
            }
        };
        self.drive(flight, now);
    }
}

impl<'a> ClusterSim<'a> {
    /// Build a cluster over a profiled service.
    ///
    /// # Panics
    ///
    /// Panics if the device list does not match the matrix's version
    /// count or the pool capacity is zero.
    pub fn new(matrix: &'a ProfileMatrix, config: ClusterConfig) -> Self {
        assert_eq!(
            config.devices.len(),
            matrix.versions(),
            "one device class per version required"
        );
        assert!(config.slots_per_pool > 0, "pools need capacity");
        ClusterSim { matrix, config }
    }

    fn instance(&self, version: usize) -> InstanceType {
        match self.config.devices[version] {
            PoolDevice::Cpu => self.config.pricing.cpu().clone(),
            PoolDevice::Gpu => self.config.pricing.gpu().clone(),
        }
    }

    /// Serve a timed, annotated request stream through `frontend` with
    /// every resilience mechanism disabled (the fault-free baseline).
    ///
    /// Requests must be sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are unsorted or reference unknown payloads.
    pub fn run(
        &self,
        frontend: &TieredFrontend,
        arrivals: &[(SimTime, ServiceRequest)],
    ) -> ServingReport {
        self.run_resilient(
            frontend,
            arrivals,
            ResilienceConfig::disabled(self.matrix.versions()),
        )
    }

    /// Serve a request stream under fault injection and resilience
    /// policies.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are unsorted, the fault plan's pool count
    /// does not match the matrix, or the retry policy is invalid.
    pub fn run_resilient(
        &self,
        frontend: &TieredFrontend,
        arrivals: &[(SimTime, ServiceRequest)],
        resilience: ResilienceConfig,
    ) -> ServingReport {
        assert!(
            arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
            "arrivals must be sorted by time"
        );
        assert_eq!(
            resilience.faults.pools(),
            self.matrix.versions(),
            "fault plan must cover every version pool"
        );
        resilience
            .retry
            .validate()
            .expect("retry policy must be valid");

        let versions = self.matrix.versions();
        let recovery = Recovery::new(self.matrix, resilience.retry, resilience.degrade);
        let mut state = RunState {
            matrix: self.matrix,
            pricing: &self.config.pricing,
            arrivals,
            recovery: &recovery,
            pools: (0..versions)
                .map(|_| ServiceNode::new(self.config.slots_per_pool))
                .collect(),
            queue: EventQueue::new(),
            flights: Vec::with_capacity(arrivals.len()),
            ledger: CostLedger::new(),
            latency: LatencyRecorder::new(),
            queueing: LatencyRecorder::new(),
            total_err: 0.0,
            early_terminations: 0,
            trace: match self.config.trace_retention {
                Some(retain) => TraceRecorder::bounded(retain),
                None => TraceRecorder::new(),
            },
            stats: ResilienceStats {
                total_requests: arrivals.len(),
                ..ResilienceStats::default()
            },
            faults: resilience.faults,
            breakers: match resilience.breaker {
                Some(policy) => (0..versions).map(|_| CircuitBreaker::new(policy)).collect(),
                None => Vec::new(),
            },
            deadline_factor: resilience.deadline_factor,
            hedge_factor: resilience.hedge_factor,
            deadline_cache: Vec::new(),
        };

        for (i, (at, _)) in arrivals.iter().enumerate() {
            state.queue.schedule(*at, Event::Arrival(i));
        }
        while let Some((now, event)) = state.queue.pop() {
            state.handle(frontend, now, event);
        }

        // Charge compute: each pool's accrued busy time at its instance
        // price.
        for (version, pool) in state.pools.iter().enumerate() {
            state
                .ledger
                .charge_compute(&self.instance(version), pool.busy_time());
        }
        state.stats.breaker_transitions = state.breakers.iter().map(|b| b.transitions()).sum();
        for f in &state.flights {
            state.stats.record(&f.request);
        }

        let served = state
            .flights
            .iter()
            .filter(|f| f.request.answered_by().is_some())
            .count();
        ServingReport {
            latency: state.latency,
            queueing: state.queueing,
            ledger: state.ledger,
            mean_err: if served == 0 {
                0.0
            } else {
                state.total_err / served as f64
            },
            served,
            early_terminations: state.early_terminations,
            trace: state.trace,
            resilience: state.stats,
        }
    }
}

#[cfg(test)]
use crate::resilience::RetryPolicy;
#[cfg(test)]
use tt_core::policy::{Scheduling, Termination};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::BreakerPolicy;
    use tt_core::objective::Objective;
    use tt_core::profile::{Observation, ProfileMatrixBuilder};
    use tt_core::request::Tolerance;
    use tt_core::rulegen::RoutingRuleGenerator;
    use tt_sim::FaultRates;

    fn matrix() -> ProfileMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "accurate".into()]);
        for _ in 0..200 {
            let hard: f64 = rng.gen();
            let fast_wrong = hard > 0.7;
            b.push_request(vec![
                Observation {
                    quality_err: if fast_wrong { 1.0 } else { 0.0 },
                    latency_us: 10_000,
                    cost: 0.0,
                    confidence: if fast_wrong { 0.2 } else { 0.9 },
                },
                Observation {
                    quality_err: if hard > 0.93 { 1.0 } else { 0.0 },
                    latency_us: 40_000,
                    cost: 0.0,
                    confidence: 0.9,
                },
            ]);
        }
        b.build().unwrap()
    }

    fn frontend(matrix: &ProfileMatrix) -> TieredFrontend {
        let gen = RoutingRuleGenerator::with_defaults(matrix, 0.99, 3).unwrap();
        TieredFrontend::new(vec![
            gen.generate(&[0.0, 0.05, 0.10, 0.5], Objective::ResponseTime)
                .unwrap(),
            gen.generate(&[0.0, 0.05, 0.10, 0.5], Objective::Cost)
                .unwrap(),
        ])
    }

    fn uncontended_arrivals(
        matrix: &ProfileMatrix,
        tolerance: f64,
    ) -> Vec<(SimTime, ServiceRequest)> {
        (0..matrix.requests())
            .map(|r| {
                (
                    SimTime::from_micros(r as u64 * 1_000_000),
                    ServiceRequest::new(
                        r,
                        Tolerance::new(tolerance).unwrap(),
                        Objective::ResponseTime,
                    ),
                )
            })
            .collect()
    }

    /// A frontend that always routes to `policy`, for driving specific
    /// execution paths (tier tolerance 10.0 matches the requests built
    /// by [`forced_arrivals`]).
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
        let rules = gen.generate(&[10.0], Objective::ResponseTime).unwrap();
        TieredFrontend::new(vec![rules])
    }

    fn forced_arrivals(m: &ProfileMatrix) -> Vec<(SimTime, ServiceRequest)> {
        (0..m.requests())
            .map(|r| {
                (
                    SimTime::from_micros(r as u64 * 1_000_000),
                    ServiceRequest::new(r, Tolerance::new(10.0).unwrap(), Objective::ResponseTime),
                )
            })
            .collect()
    }

    #[test]
    fn serves_every_request() {
        let m = matrix();
        let fe = frontend(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 4));
        let report = sim.run(&fe, &uncontended_arrivals(&m, 0.05));
        assert_eq!(report.served, m.requests());
        assert_eq!(report.latency.len(), m.requests());
    }

    #[test]
    fn uncontended_latency_matches_closed_form() {
        let m = matrix();
        let fe = frontend(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 64));
        for tol in [0.0, 0.10, 0.5] {
            let arrivals = uncontended_arrivals(&m, tol);
            let report = sim.run(&fe, &arrivals);
            let policy = fe.route(&arrivals[0].1);
            let perf = policy.evaluate(&m, None).unwrap();
            let sim_mean = report.latency.summary().unwrap().mean() * 1_000.0; // ms -> µs
            assert!(
                (sim_mean - perf.mean_latency_us).abs() / perf.mean_latency_us < 0.01,
                "tol {tol}: sim {sim_mean} vs closed form {}",
                perf.mean_latency_us
            );
            assert!((report.mean_err - perf.mean_err).abs() < 1e-9);
        }
    }

    #[test]
    fn queueing_appears_under_load() {
        let m = matrix();
        let fe = frontend(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 1));
        // All requests arrive at once on a single-slot pool: massive queueing.
        let arrivals: Vec<(SimTime, ServiceRequest)> = (0..50)
            .map(|r| {
                (
                    SimTime::ZERO,
                    ServiceRequest::new(r, Tolerance::ZERO, Objective::ResponseTime),
                )
            })
            .collect();
        let report = sim.run(&fe, &arrivals);
        assert_eq!(report.served, 50);
        assert!(report.queueing.summary().unwrap().max() > 0.0);
        assert!(
            report.latency.summary().unwrap().max()
                > report.latency.summary().unwrap().min() * 10.0
        );
    }

    #[test]
    fn early_termination_happens_and_refunds_compute() {
        let m = matrix();
        let conc_et = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Concurrent,
            termination: Termination::EarlyTerminate,
        };
        let conc_fo = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Concurrent,
            termination: Termination::FinishOut,
        };
        let run_policy = |policy: Policy| {
            let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 64));
            sim.run(&forced_frontend(&m, policy), &forced_arrivals(&m))
        };
        let et = run_policy(conc_et);
        let fo = run_policy(conc_fo);
        assert!(et.early_terminations > 0);
        assert_eq!(fo.early_terminations, 0);
        assert!(
            et.ledger.compute_cost() < fo.ledger.compute_cost(),
            "ET should refund compute: {} vs {}",
            et.ledger.compute_cost(),
            fo.ledger.compute_cost()
        );
        // Same responses either way.
        assert!((et.mean_err - fo.mean_err).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_arrivals_panic() {
        let m = matrix();
        let fe = frontend(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 4));
        let arrivals = vec![
            (
                SimTime::from_micros(10),
                ServiceRequest::new(0, Tolerance::ZERO, Objective::ResponseTime),
            ),
            (
                SimTime::ZERO,
                ServiceRequest::new(1, Tolerance::ZERO, Objective::ResponseTime),
            ),
        ];
        sim.run(&fe, &arrivals);
    }

    #[test]
    fn disabled_resilience_is_bit_for_bit_identical() {
        let m = matrix();
        let fe = frontend(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 4));
        let arrivals = uncontended_arrivals(&m, 0.05);
        let plain = sim.run(&fe, &arrivals);
        let resilient = sim.run_resilient(&fe, &arrivals, ResilienceConfig::disabled(2));
        assert_eq!(plain.latency.samples_ms(), resilient.latency.samples_ms());
        assert_eq!(plain.queueing.samples_ms(), resilient.queueing.samples_ms());
        assert_eq!(plain.trace.events(), resilient.trace.events());
        assert_eq!(
            plain.ledger.total().as_dollars(),
            resilient.ledger.total().as_dollars()
        );
        assert_eq!(plain.served, resilient.served);
        assert_eq!(plain.early_terminations, resilient.early_terminations);
        assert_eq!(resilient.resilience.failed_invocations, 0);
        assert_eq!(resilient.resilience.dropped_requests, 0);
        assert_eq!(resilient.resilience.availability(), 1.0);
    }

    #[test]
    fn retries_recover_availability_under_crashes() {
        let m = matrix();
        let fe = forced_frontend(&m, Policy::Single { version: 1 });
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let crashy = |retry: RetryPolicy| ResilienceConfig {
            faults: FaultPlan::new(7, vec![FaultRates::NONE, FaultRates::crash_only(0.4)]),
            retry,
            ..ResilienceConfig::disabled(2)
        };
        let without = sim.run_resilient(&fe, &arrivals, crashy(RetryPolicy::NONE));
        let with = sim.run_resilient(&fe, &arrivals, crashy(RetryPolicy::immediate(5)));
        assert!(
            without.resilience.availability() < 0.8,
            "crashes with no retries must drop requests: {}",
            without.resilience.availability()
        );
        assert!(
            with.resilience.availability() > without.resilience.availability(),
            "retries must recover availability: {} vs {}",
            with.resilience.availability(),
            without.resilience.availability()
        );
        assert!(with.resilience.retries > 0);
        assert!(
            with.resilience.availability() > 0.95,
            "five retries against p=0.4 crashes leave almost nothing dropped: {}",
            with.resilience.availability()
        );
    }

    #[test]
    fn degradation_answers_and_counts_tolerance_violations() {
        let m = matrix();
        // Single{1}: every invocation of v1 crashes; with degradation
        // on, answers come from v0 instead. v0 is wrong on ~30% of
        // payloads while v1 is intended — those degraded answers exceed
        // a tolerance of zero... but the forced tier advertises 10.0,
        // so craft the check on both sides of the violation boundary by
        // comparing against what the fault-free policy would have done.
        let fe = forced_frontend(&m, Policy::Single { version: 1 });
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let config = ResilienceConfig {
            faults: FaultPlan::new(3, vec![FaultRates::NONE, FaultRates::crash_only(1.0)]),
            degrade: true,
            ..ResilienceConfig::disabled(2)
        };
        let report = sim.run_resilient(&fe, &arrivals, config);
        assert_eq!(
            report.served,
            m.requests(),
            "degradation answers everything"
        );
        assert_eq!(report.resilience.degraded_responses, m.requests());
        // Tolerance 10.0 absorbs any quality error in [0, 1]: no
        // violations despite universal degradation.
        assert_eq!(report.resilience.tolerance_violations_under_fault, 0);
        assert!(report.mean_err > 0.0, "cheap answers carry error");
    }

    #[test]
    fn degradation_violations_respect_the_advertised_tolerance() {
        // Tight-tolerance variant: build a matrix whose cheap version
        // errs on every payload, deploy real rules at tolerance 0.0
        // (which routes to the accurate baseline), and crash the
        // accurate pool. Every degraded answer then violates.
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "accurate".into()]);
        for _ in 0..50 {
            b.push_request(vec![
                Observation {
                    quality_err: 1.0,
                    latency_us: 10_000,
                    cost: 0.0,
                    confidence: 0.1,
                },
                Observation {
                    quality_err: 0.0,
                    latency_us: 40_000,
                    cost: 0.0,
                    confidence: 0.9,
                },
            ]);
        }
        let m = b.build().unwrap();
        let gen = RoutingRuleGenerator::with_defaults(&m, 0.9, 5).unwrap();
        let fe = TieredFrontend::new(vec![gen.generate(&[0.0], Objective::ResponseTime).unwrap()]);
        let arrivals: Vec<(SimTime, ServiceRequest)> = (0..m.requests())
            .map(|r| {
                (
                    SimTime::from_micros(r as u64 * 1_000_000),
                    ServiceRequest::new(r, Tolerance::ZERO, Objective::ResponseTime),
                )
            })
            .collect();
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let config = ResilienceConfig {
            faults: FaultPlan::new(3, vec![FaultRates::NONE, FaultRates::crash_only(1.0)]),
            degrade: true,
            ..ResilienceConfig::disabled(2)
        };
        let report = sim.run_resilient(&fe, &arrivals, config);
        assert_eq!(report.served, m.requests());
        assert!(report.resilience.degraded_responses > 0);
        assert_eq!(
            report.resilience.tolerance_violations_under_fault,
            report.resilience.degraded_responses,
            "every degraded answer exceeds a zero tolerance"
        );
    }

    #[test]
    fn breaker_trips_and_sheds_to_sibling_pool() {
        let m = matrix();
        let fe = forced_frontend(&m, Policy::Single { version: 1 });
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let config = ResilienceConfig {
            faults: FaultPlan::new(9, vec![FaultRates::NONE, FaultRates::crash_only(1.0)]),
            breaker: Some(BreakerPolicy {
                failure_threshold: 3,
                cooldown: SimDuration::from_secs_f64(30.0),
            }),
            degrade: true,
            ..ResilienceConfig::disabled(2)
        };
        let report = sim.run_resilient(&fe, &arrivals, config);
        assert!(
            report.resilience.breaker_transitions > 0,
            "breaker must trip"
        );
        assert!(
            report.resilience.breaker_sheds > 0,
            "open breaker sheds load"
        );
        // Shed requests are answered by the sibling pool.
        assert_eq!(report.served, m.requests());
    }

    #[test]
    fn hedging_caps_straggler_latency_for_sequential_cascades() {
        let m = matrix();
        let seq_et = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        };
        let fe = forced_frontend(&m, seq_et);
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let straggly = |hedge: Option<f64>| ResilienceConfig {
            faults: FaultPlan::new(
                17,
                vec![
                    FaultRates {
                        crash: 0.0,
                        transient: 0.0,
                        straggler: 0.3,
                        straggler_factor: 20.0,
                    },
                    FaultRates::NONE,
                ],
            ),
            hedge_factor: hedge,
            ..ResilienceConfig::disabled(2)
        };
        let unhedged = sim.run_resilient(&fe, &arrivals, straggly(None));
        let hedged = sim.run_resilient(&fe, &arrivals, straggly(Some(3.0)));
        assert!(
            hedged.resilience.hedges > 0,
            "stragglers must trigger hedges"
        );
        let unhedged_p_max = unhedged.latency.summary().unwrap().max();
        let hedged_p_max = hedged.latency.summary().unwrap().max();
        assert!(
            hedged_p_max < unhedged_p_max,
            "hedging must cap straggler tail latency: {hedged_p_max} vs {unhedged_p_max}"
        );
    }

    #[test]
    fn a_confident_cheap_answer_cancels_the_hedged_accurate_call_under_et() {
        // Cheap stragglers land at 5x nominal (50 ms): after the 3x
        // hedge launched the accurate version (30 ms) and before it
        // finishes (70 ms). Early termination must cancel it there.
        let m = matrix();
        let seq = |termination: Termination| Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Sequential,
            termination,
        };
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let hedged = ResilienceConfig {
            faults: FaultPlan::new(
                17,
                vec![
                    FaultRates {
                        crash: 0.0,
                        transient: 0.0,
                        straggler: 0.3,
                        straggler_factor: 5.0,
                    },
                    FaultRates::NONE,
                ],
            ),
            hedge_factor: Some(3.0),
            ..ResilienceConfig::disabled(2)
        };
        let run = |termination| {
            sim.run_resilient(
                &forced_frontend(&m, seq(termination)),
                &arrivals,
                hedged.clone(),
            )
        };
        let et = run(Termination::EarlyTerminate);
        let fo = run(Termination::FinishOut);
        assert!(et.resilience.hedges > 0);
        assert!(et.early_terminations > 0, "the hedge ran to completion");
        assert_eq!(fo.early_terminations, 0);
        assert!(et.ledger.compute_cost() < fo.ledger.compute_cost());
        assert_eq!(et.trace.events(), fo.trace.events());
    }

    #[test]
    fn a_concurrent_launch_refused_at_arrival_is_one_shed() {
        // Both ends of a concurrent cascade crash once and trip their
        // breakers (threshold 1, cooldown past the run). Every later
        // request finds both refused at arrival and is re-routed to the
        // middle version: one shed per refused launch, two per request.
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "slow".into()]);
        for _ in 0..20 {
            b.push_request(
                [10_000, 20_000, 40_000]
                    .map(|latency_us| Observation {
                        quality_err: 0.0,
                        latency_us,
                        cost: 0.0,
                        confidence: 0.9,
                    })
                    .to_vec(),
            );
        }
        let m = b.build().unwrap();
        let policy = Policy::Cascade {
            cheap: 0,
            accurate: 2,
            threshold: 0.5,
            scheduling: Scheduling::Concurrent,
            termination: Termination::EarlyTerminate,
        };
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(3, 8));
        let config = ResilienceConfig {
            faults: FaultPlan::new(
                5,
                vec![
                    FaultRates::crash_only(1.0),
                    FaultRates::NONE,
                    FaultRates::crash_only(1.0),
                ],
            ),
            breaker: Some(BreakerPolicy {
                failure_threshold: 1,
                cooldown: SimDuration::from_secs_f64(1e6),
            }),
            degrade: true,
            ..ResilienceConfig::disabled(3)
        };
        let report = sim.run_resilient(&forced_frontend(&m, policy), &forced_arrivals(&m), config);
        assert_eq!(report.served, m.requests());
        assert_eq!(report.resilience.breaker_sheds, 2 * (m.requests() - 1));
    }

    #[test]
    fn a_cancelled_probe_does_not_lock_its_breaker() {
        // Request 0's cheap answer is unconfident and its accurate call
        // fails, tripping the accurate breaker. Every later request, a
        // second apart, answers cheap and confident, so its accurate
        // call (the half-open probe) is cancelled before it reports.
        // A cooldown later the next request probes again: nothing sheds.
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "accurate".into()]);
        for r in 0..40 {
            b.push_request(vec![
                Observation {
                    quality_err: 0.0,
                    latency_us: 10_000,
                    cost: 0.0,
                    confidence: if r == 0 { 0.2 } else { 0.9 },
                },
                Observation {
                    quality_err: 0.0,
                    latency_us: 40_000,
                    cost: 0.0,
                    confidence: 0.9,
                },
            ]);
        }
        let m = b.build().unwrap();
        let policy = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Concurrent,
            termination: Termination::EarlyTerminate,
        };
        let failing = FaultRates {
            transient: 1.0,
            ..FaultRates::NONE
        };
        let config = ResilienceConfig {
            faults: FaultPlan::new(1, vec![FaultRates::NONE, failing]),
            breaker: Some(BreakerPolicy {
                failure_threshold: 1,
                cooldown: SimDuration::from_millis(10),
            }),
            ..ResilienceConfig::disabled(2)
        };
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let report = sim.run_resilient(&forced_frontend(&m, policy), &forced_arrivals(&m), config);
        assert_eq!(report.resilience.breaker_sheds, 0);
        assert_eq!(report.early_terminations, m.requests() - 1);
        assert_eq!(report.served, m.requests());
    }

    #[test]
    fn deadlines_convert_straggler_waits_into_degraded_answers() {
        let m = matrix();
        let seq_et = Policy::Cascade {
            cheap: 0,
            accurate: 1,
            threshold: 0.5,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        };
        let fe = forced_frontend(&m, seq_et);
        let arrivals = forced_arrivals(&m);
        let sim = ClusterSim::new(&m, ClusterConfig::uniform_cpu(2, 8));
        let config = ResilienceConfig {
            faults: FaultPlan::new(
                23,
                vec![
                    FaultRates::NONE,
                    FaultRates {
                        crash: 0.0,
                        transient: 0.0,
                        straggler: 0.5,
                        straggler_factor: 50.0,
                    },
                ],
            ),
            deadline_factor: Some(3.0),
            ..ResilienceConfig::disabled(2)
        };
        let report = sim.run_resilient(&fe, &arrivals, config);
        assert!(report.resilience.deadline_misses > 0);
        assert!(
            report.resilience.degraded_responses > 0,
            "deadline pressure answers from the stashed cheap result"
        );
        assert_eq!(report.served, m.requests());
    }
}
