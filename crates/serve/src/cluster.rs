//! The discrete-event serving cluster.
//!
//! A load balancer in front of per-version node pools, executing each
//! request's tier policy with real queueing. What runs when is the
//! request's [`Walk`], fed completions in simulated-time order:
//! sequential cascades admit the accurate version only after a
//! disappointing cheap answer, concurrent cascades admit both at
//! arrival, and early termination cancels the in-flight accurate
//! invocation the moment a confident cheap answer lands — refunding the
//! unused busy time, which is exactly where the ET policy's IaaS
//! savings come from (paper §IV-C).
//!
//! On top of the fault-free core sits a resilience layer
//! ([`crate::resilience`]): invocations may crash, error, or straggle
//! according to a seeded [`tt_sim::FaultPlan`], and the cluster responds
//! with per-request retries (capped exponential backoff), per-pool
//! circuit breakers that shed load to sibling pools, deadlines derived
//! from each tier's guaranteed latency, hedged launches for sequential
//! cascades, and graceful degradation to cheaper versions — with the
//! accuracy cost of that degradation reported as tolerance violations.
//! [`ClusterSim::run`] uses [`ResilienceConfig::disabled`], which
//! reproduces the fault-free simulation bit-for-bit.

use crate::frontend::TieredFrontend;
use crate::pricing::PricingCatalog;
use crate::resilience::{CircuitBreaker, ResilienceConfig, ResilienceStats, RetryPolicy};
use crate::trace::{TraceEvent, TraceRecorder};
use tt_core::policy::{Action, Policy, Walk};
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
struct InFlight {
    policy: Policy,
    /// The request's walk through its policy's stages.
    walk: Walk,
    arrival: SimTime,
    responded: bool,
    dropped: bool,
    /// Whether an invocation was admitted yet: the first one records
    /// the request's queueing delay.
    launched: bool,
    /// Invocations (and pending retries) currently in flight.
    outstanding: u32,
    /// Retry budget consumed (shared across the request's stages).
    retries_used: u32,
    /// Per stage, the job a cancellation releases: the walk's own
    /// launch of that stage, until it completes (retries are not
    /// cancellable).
    jobs: [Option<(JobId, EventToken)>; 3],
    hedge_token: Option<EventToken>,
    deadline_token: Option<EventToken>,
}

/// An invocation's place in its request: a stage of the walk, or
/// `None` for a re-route to a sibling the policy does not name.
type StageRef = Option<usize>;

#[derive(Debug)]
enum Event {
    Arrival(usize),
    Done {
        flight: usize,
        stage: StageRef,
        version: usize,
        completion: JobCompletion,
    },
    Retry {
        flight: usize,
        stage: StageRef,
        version: usize,
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
struct RunState<'m, 'r> {
    matrix: &'m ProfileMatrix,
    pricing: &'r PricingCatalog,
    arrivals: &'r [(SimTime, ServiceRequest)],
    pools: Vec<ServiceNode>,
    queue: EventQueue<Event>,
    flights: Vec<InFlight>,
    ledger: CostLedger,
    latency: LatencyRecorder,
    queueing: LatencyRecorder,
    total_err: f64,
    early_terminations: usize,
    trace: TraceRecorder,
    stats: ResilienceStats,
    faults: FaultPlan,
    retry: RetryPolicy,
    /// One breaker per pool; empty when breakers are disabled.
    breakers: Vec<CircuitBreaker>,
    deadline_factor: Option<f64>,
    hedge_factor: Option<f64>,
    degrade: bool,
    /// Versions ordered by mean profiled latency, ascending; "cheaper"
    /// for degradation purposes means earlier in this order.
    version_order: Vec<usize>,
    /// Deadline per distinct routed policy (memoised `evaluate` calls).
    deadline_cache: Vec<(Policy, SimDuration)>,
}

impl<'m, 'r> RunState<'m, 'r> {
    fn allows(&mut self, version: usize, now: SimTime) -> bool {
        match self.breakers.get_mut(version) {
            Some(b) => b.allows(now),
            None => true,
        }
    }

    fn breaker_record(&mut self, version: usize, success: bool, now: SimTime) {
        if let Some(b) = self.breakers.get_mut(version) {
            b.record(success, now);
        }
    }

    /// Admit one invocation of `version` for `flight`, drawing its
    /// fault outcome, charging the invocation, and scheduling its
    /// completion.
    fn launch(
        &mut self,
        flight: usize,
        stage: StageRef,
        version: usize,
        now: SimTime,
    ) -> (JobId, EventToken) {
        let payload = self.arrivals[flight].1.payload;
        let service = SimDuration::from_micros(self.matrix.get(payload, version).latency_us);
        let fault = self.faults.draw(version);
        let (timing, job, completion) = self.pools[version].admit_faulty(now, service, fault);
        self.ledger.charge_invocation(self.pricing.api_price());
        let f = &mut self.flights[flight];
        if !std::mem::replace(&mut f.launched, true) {
            self.queueing.record(timing.queueing(now));
        }
        f.outstanding += 1;
        let token = self.queue.schedule(
            timing.finish,
            Event::Done {
                flight,
                stage,
                version,
                completion,
            },
        );
        (job, token)
    }

    /// Deliver `flight`'s answer: the single place a response is
    /// recorded (latency, error aggregate, trace event).
    fn respond(&mut self, flight: usize, now: SimTime, version: usize, err: f64) {
        let request = &self.arrivals[flight].1;
        let f = &mut self.flights[flight];
        f.responded = true;
        self.latency.record(now.saturating_since(f.arrival));
        self.total_err += err;
        self.trace.record(TraceEvent {
            arrival: f.arrival,
            responded: now,
            tolerance: request.tolerance.value(),
            objective: request.objective,
            answered_by: version,
            quality_err: err,
        });
    }

    /// Respond with an answer the tier policy did not intend (the
    /// walk's fallback or a cheaper re-route), counting it — and, when
    /// its extra quality error exceeds the request's advertised
    /// tolerance relative to the fault-free policy outcome, counting a
    /// tolerance violation.
    fn respond_degraded(&mut self, flight: usize, now: SimTime, version: usize, err: f64) {
        self.stats.degraded_responses += 1;
        let request = &self.arrivals[flight].1;
        let intended = self.flights[flight]
            .policy
            .execute(self.matrix, request.payload)
            .quality_err;
        if err - intended > request.tolerance.value() + 1e-12 {
            self.stats.tolerance_violations_under_fault += 1;
        }
        self.respond(flight, now, version, err);
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

    /// The nearest strictly-cheaper version whose pool accepts work.
    fn degrade_target(&mut self, from: usize, now: SimTime) -> Option<usize> {
        let pos = self.version_order.iter().position(|&v| v == from)?;
        let order = self.version_order.clone();
        order[..pos]
            .iter()
            .rev()
            .copied()
            .find(|&v| self.allows(v, now))
    }

    /// A sibling pool for shedding: nearest cheaper preferred, else
    /// nearest more expensive — answering beats dropping.
    fn shed_target(&mut self, from: usize, now: SimTime) -> Option<usize> {
        let pos = self.version_order.iter().position(|&v| v == from)?;
        let order = self.version_order.clone();
        order[..pos]
            .iter()
            .rev()
            .copied()
            .chain(order[pos + 1..].iter().copied())
            .find(|&v| self.allows(v, now))
    }

    fn drop_request(&mut self, flight: usize) {
        if self.flights[flight].dropped || self.flights[flight].responded {
            return;
        }
        self.flights[flight].dropped = true;
        self.stats.dropped_requests += 1;
        if let Some(tok) = self.flights[flight].deadline_token.take() {
            self.queue.cancel(tok);
        }
        if let Some(tok) = self.flights[flight].hedge_token.take() {
            self.queue.cancel(tok);
        }
    }

    /// Resolve a request with nothing in flight and nothing left in its
    /// walk: re-route to a version cheaper than `failed`, or drop. A
    /// request whose walk never admitted anything sheds to any sibling
    /// instead.
    fn degrade_or_drop(&mut self, flight: usize, failed: usize, now: SimTime) {
        let f = &self.flights[flight];
        if f.responded || f.dropped || f.outstanding > 0 {
            return;
        }
        let target = if !f.launched {
            self.shed_target(failed, now)
        } else if self.degrade {
            self.degrade_target(failed, now)
        } else {
            None
        };
        match target {
            Some(alt) => {
                self.launch(flight, None, alt, now);
            }
            None => self.drop_request(flight),
        }
    }

    /// Carry out what `flight`'s walk asks for. `failed` is the version
    /// a re-route starts from should the walk run out of stages; a hedge
    /// counts its launch and sheds nothing when the breaker refuses.
    fn drive(&mut self, flight: usize, failed: usize, hedge: bool, now: SimTime) {
        while let Some(action) = self.flights[flight].walk.poll() {
            match action {
                Action::Invoke(stage) => {
                    let version = self.flights[flight].walk.version(stage);
                    if self.allows(version, now) {
                        self.stats.hedges += usize::from(hedge);
                        self.flights[flight].jobs[stage] =
                            Some(self.launch(flight, Some(stage), version, now));
                    } else {
                        self.stats.breaker_sheds += usize::from(!hedge);
                        self.flights[flight].walk.shed(stage);
                    }
                }
                Action::Cancel(stage) => {
                    if let Some((job, token)) = self.flights[flight].jobs[stage].take() {
                        if self.queue.cancel(token) {
                            self.flights[flight].outstanding -= 1;
                        }
                        let version = self.flights[flight].walk.version(stage);
                        if self.pools[version].release_early(job, now) {
                            self.early_terminations += 1;
                        }
                    }
                }
                Action::Answer { stage, degraded } => {
                    let version = self.flights[flight].walk.version(stage);
                    let payload = self.arrivals[flight].1.payload;
                    let err = self.matrix.get(payload, version).quality_err;
                    if degraded {
                        self.respond_degraded(flight, now, version, err);
                    } else {
                        self.respond(flight, now, version, err);
                    }
                }
                Action::Exhausted => self.degrade_or_drop(flight, failed, now),
            }
        }
    }

    /// Feed the walk stage `stage`'s outcome (`Some(confidence)` when
    /// it landed). The hedge timer only ever races the first stage.
    fn resolve(
        &mut self,
        flight: usize,
        stage: usize,
        version: usize,
        landed: Option<f64>,
        now: SimTime,
    ) {
        let f = &mut self.flights[flight];
        if stage == 0 {
            if let Some(tok) = f.hedge_token.take() {
                self.queue.cancel(tok);
            }
        }
        match landed {
            Some(confidence) => f.walk.landed(stage, confidence),
            None => f.walk.failed(stage),
        }
        self.drive(flight, version, false, now);
    }

    fn on_arrival(&mut self, frontend: &TieredFrontend, index: usize, now: SimTime) {
        let request = &self.arrivals[index].1;
        let policy = frontend.route(request);
        policy
            .validate(self.matrix.versions())
            .expect("frontend produced a valid policy");
        let walk = Walk::new(&policy, self.matrix.request_row(request.payload));
        let flight = self.flights.len();
        self.flights.push(InFlight {
            policy,
            walk,
            arrival: now,
            responded: false,
            dropped: false,
            launched: false,
            outstanding: 0,
            retries_used: 0,
            jobs: [None; 3],
            hedge_token: None,
            deadline_token: None,
        });
        let entry = walk.version(0);
        self.drive(flight, entry, false, now);
        if self.flights[flight].dropped {
            return;
        }
        if let Some(h) = self.hedge_factor.filter(|_| walk.hedgeable()) {
            let nominal = self.matrix.get(request.payload, entry).latency_us;
            let fire_at = now + SimDuration::from_micros((nominal as f64 * h).round() as u64);
            let tok = self.queue.schedule(fire_at, Event::Hedge { flight });
            self.flights[flight].hedge_token = Some(tok);
        }
        if let Some(span) = self.deadline_for(policy) {
            let tok = self.queue.schedule(now + span, Event::Deadline { flight });
            self.flights[flight].deadline_token = Some(tok);
        }
    }

    fn on_success(&mut self, flight: usize, stage: StageRef, version: usize, now: SimTime) {
        let f = &self.flights[flight];
        if f.responded || f.dropped {
            return;
        }
        let obs = *self.matrix.get(self.arrivals[flight].1.payload, version);
        match stage {
            Some(stage) => self.resolve(flight, stage, version, Some(obs.confidence), now),
            None => self.respond_degraded(flight, now, version, obs.quality_err),
        }
    }

    /// An invocation failed, or its retry was refused: retry it while
    /// the budget and its breaker allow, else give the stage up.
    fn on_failure(
        &mut self,
        flight: usize,
        stage: StageRef,
        version: usize,
        now: SimTime,
        retry: bool,
    ) {
        if self.flights[flight].responded || self.flights[flight].dropped {
            return;
        }
        if retry
            && self.flights[flight].retries_used < self.retry.max_retries
            && self.allows(version, now)
        {
            let used = self.flights[flight].retries_used;
            self.flights[flight].retries_used += 1;
            self.stats.retries += 1;
            let delay = self.retry.backoff(used);
            self.flights[flight].outstanding += 1;
            self.queue.schedule(
                now + delay,
                Event::Retry {
                    flight,
                    stage,
                    version,
                },
            );
            return;
        }
        match stage {
            Some(stage) => self.resolve(flight, stage, version, None, now),
            None => self.degrade_or_drop(flight, version, now),
        }
    }

    fn handle(&mut self, frontend: &TieredFrontend, now: SimTime, event: Event) {
        match event {
            Event::Arrival(index) => self.on_arrival(frontend, index, now),
            Event::Done {
                flight,
                stage,
                version,
                completion,
            } => {
                self.flights[flight].outstanding -= 1;
                if let Some(stage) = stage {
                    self.flights[flight].jobs[stage] = None;
                }
                match completion {
                    JobCompletion::Failed => {
                        self.stats.failed_invocations += 1;
                        self.breaker_record(version, false, now);
                        self.on_failure(flight, stage, version, now, true);
                    }
                    JobCompletion::Slow => {
                        self.stats.slow_invocations += 1;
                        self.breaker_record(version, true, now);
                        self.on_success(flight, stage, version, now);
                    }
                    JobCompletion::Success => {
                        self.breaker_record(version, true, now);
                        self.on_success(flight, stage, version, now);
                    }
                }
            }
            Event::Retry {
                flight,
                stage,
                version,
            } => {
                self.flights[flight].outstanding -= 1;
                let f = &self.flights[flight];
                if f.responded || f.dropped {
                    return;
                }
                if self.allows(version, now) {
                    self.launch(flight, stage, version, now);
                } else {
                    // The pool's breaker opened during the backoff.
                    self.on_failure(flight, stage, version, now, false);
                }
            }
            Event::Hedge { flight } => {
                self.flights[flight].hedge_token = None;
                let f = &mut self.flights[flight];
                if f.responded || f.dropped {
                    return;
                }
                // Opportunistic: a refused hedge is no shed, and the
                // walk still asks for the stage when it escalates.
                f.walk.hedge();
                let entry = f.walk.version(0);
                self.drive(flight, entry, true, now);
            }
            Event::Deadline { flight } => {
                self.flights[flight].deadline_token = None;
                let f = &mut self.flights[flight];
                if f.responded || f.dropped {
                    return;
                }
                self.stats.deadline_misses += 1;
                // Deadline pressure: answer now with what the walk has
                // rather than keep waiting on the intended version.
                f.walk.deadline();
                let entry = f.walk.version(0);
                self.drive(flight, entry, false, now);
            }
        }
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
        let mean_latency: Vec<f64> = (0..versions)
            .map(|v| {
                (0..self.matrix.requests())
                    .map(|r| self.matrix.get(r, v).latency_us as f64)
                    .sum::<f64>()
                    / self.matrix.requests().max(1) as f64
            })
            .collect();
        let mut version_order: Vec<usize> = (0..versions).collect();
        version_order.sort_by(|&a, &b| {
            mean_latency[a]
                .partial_cmp(&mean_latency[b])
                .expect("finite latencies")
                .then(a.cmp(&b))
        });

        let mut state = RunState {
            matrix: self.matrix,
            pricing: &self.config.pricing,
            arrivals,
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
            retry: resilience.retry,
            breakers: match resilience.breaker {
                Some(policy) => (0..versions).map(|_| CircuitBreaker::new(policy)).collect(),
                None => Vec::new(),
            },
            deadline_factor: resilience.deadline_factor,
            hedge_factor: resilience.hedge_factor,
            degrade: resilience.degrade,
            version_order,
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

        let served = state.flights.iter().filter(|f| f.responded).count();
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
