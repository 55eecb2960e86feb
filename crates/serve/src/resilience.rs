//! Resilience policies for the serving cluster: retries with capped
//! exponential backoff, per-pool circuit breakers, request deadlines,
//! graceful degradation, and hedging for sequential cascades.
//!
//! The paper's tiers advertise a latency/accuracy contract. Faults (see
//! [`tt_sim::fault`]) attack that contract from two sides: failures cost
//! retries (latency) or force answers from cheaper versions (accuracy),
//! and stragglers blow the latency guarantee directly. The policies in
//! this module are the knobs a production deployment would turn, and
//! [`ResilienceStats`] quantifies what each one buys and what it costs —
//! in particular how often the *advertised tolerance* is breached
//! because degradation swapped in a less-accurate version.
//!
//! Everything here is deterministic: backoff delays are a pure function
//! of the retry index, and fault draws come from the seeded per-pool
//! streams of a [`FaultPlan`]. [`ResilienceConfig::disabled`] is
//! guaranteed to reproduce the fault-free simulation bit-for-bit.
//!
//! What a request does when something fails is decided once, by a
//! [`ResilientWalk`] around its policy's [`Walk`]. The simulator
//! ([`crate::cluster::ClusterSim`]) and the live service drive it; each
//! supplies only a clock, a launcher and breaker admission. The rules:
//!
//! * **Admission.** Every launch asks the host's `admit(version)` once:
//!   a walk stage when the walk asks for it, a retry when it is
//!   scheduled, a re-route when its target is chosen. A refused stage is
//!   a shed, unless a hedge timer asked for it.
//! * **Retries.** A failed launch is retried while the request's budget
//!   lasts, after [`RetryPolicy::backoff`]; the budget is shared by
//!   every stage and re-route of the request. Once the request has
//!   answered, failures are not retried, and a retried stage is not
//!   cancelled: the retry runs out and its result is ignored.
//! * **Re-routes.** When the walk is exhausted, a request that never
//!   launched anything sheds to the nearest admitted sibling of its
//!   first stage, cheaper first, then pricier, whatever `degrade` says.
//!   Otherwise, with `degrade` on, it re-routes to the nearest admitted
//!   version cheaper than the one that failed last. A failed re-route is
//!   retried, then re-routes again from there. With no target left the
//!   request is dropped.
//! * **Degraded answers.** An answer the policy did not intend (the
//!   walk's fallback, or a re-route) is degraded; it violates the
//!   request's tolerance when its quality error exceeds the fault-free
//!   answer's by more than the tolerance.

use tt_core::policy::{Action, Policy, Walk};
use tt_core::profile::{Observation, ProfileMatrix};
use tt_sim::{FaultPlan, SimDuration, SimTime};

/// Retry budget and capped exponential backoff schedule.
///
/// The budget is **per request**, shared across every invocation the
/// request's policy launches: a cascade whose cheap stage burns all
/// retries leaves none for the accurate stage. Delays are deterministic
/// (no jitter) so simulations are exactly reproducible:
///
/// ```
/// use tt_serve::resilience::RetryPolicy;
/// use tt_sim::SimDuration;
///
/// let retry = RetryPolicy {
///     max_retries: 4,
///     base: SimDuration::from_millis(10),
///     cap: SimDuration::from_millis(35),
///     multiplier: 2.0,
/// };
/// let delays: Vec<u64> = (0..4).map(|i| retry.backoff(i).as_micros()).collect();
/// assert_eq!(delays, vec![10_000, 20_000, 35_000, 35_000]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per request (0 disables retries).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Growth factor per retry (>= 1).
    pub multiplier: f64,
}

impl RetryPolicy {
    /// No retries at all.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base: SimDuration::ZERO,
        cap: SimDuration::ZERO,
        multiplier: 1.0,
    };

    /// `max_retries` immediate retries (zero backoff).
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::NONE
        }
    }

    /// The delay before retry number `retry_index` (0-based):
    /// `min(cap, base * multiplier^retry_index)`.
    pub fn backoff(&self, retry_index: u32) -> SimDuration {
        if self.base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        // Saturate the exponent computation through the cap rather than
        // overflowing: once base * m^i exceeds the cap the answer is the
        // cap regardless of i.
        let cap_us = self.cap.as_micros() as f64;
        let mut delay_us = self.base.as_micros() as f64;
        for _ in 0..retry_index {
            delay_us *= self.multiplier;
            if delay_us >= cap_us {
                return self.cap;
            }
        }
        SimDuration::from_micros(delay_us.round() as u64).min(self.cap)
    }

    /// Validate the schedule: a multiplier below 1 would make delays
    /// shrink, and a cap below the base is contradictory.
    pub fn validate(&self) -> Result<(), String> {
        if self.multiplier < 1.0 {
            return Err(format!("multiplier {} < 1", self.multiplier));
        }
        if self.max_retries > 0 && self.base > SimDuration::ZERO && self.cap < self.base {
            return Err(format!("cap {} below base {}", self.cap, self.base));
        }
        Ok(())
    }
}

/// Circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are shed to sibling pools.
    Open,
    /// Cooldown elapsed: one probe request is allowed through.
    HalfOpen,
}

/// Breaker tuning shared by every pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub cooldown: SimDuration,
}

/// A per-pool circuit breaker.
///
/// Trips open after `failure_threshold` *consecutive* failures; while
/// open, [`CircuitBreaker::allows`] rejects work (the cluster sheds it
/// to sibling pools). After `cooldown` a single probe is admitted: its
/// success closes the breaker, its failure re-opens it for another
/// cooldown. A probe that never reports (cancelled, or skipped in a
/// queue) holds the slot for one cooldown; then the next caller probes.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    /// When the breaker last opened or let a probe through.
    since: SimTime,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(policy: BreakerPolicy) -> Self {
        assert!(
            policy.failure_threshold > 0,
            "a zero failure threshold would never close"
        );
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            since: SimTime::ZERO,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Number of state transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn transition(&mut self, to: BreakerState) {
        if self.state != to {
            self.state = to;
            self.transitions += 1;
        }
    }

    /// Whether a new invocation may be sent to this pool at `now`.
    /// Moving from `Open` to `HalfOpen` happens here, lazily, when the
    /// cooldown has elapsed; the first caller after that gets the probe
    /// slot, and so does the first caller a cooldown after a probe that
    /// has not reported.
    pub fn allows(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Closed {
            return true;
        }
        if now.saturating_since(self.since) < self.policy.cooldown {
            return false;
        }
        self.transition(BreakerState::HalfOpen);
        self.since = now;
        true
    }

    /// Record an invocation result for this pool.
    pub fn record(&mut self, success: bool, now: SimTime) {
        match self.state {
            BreakerState::Closed => {
                if success {
                    self.consecutive_failures = 0;
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.policy.failure_threshold {
                        self.transition(BreakerState::Open);
                        self.since = now;
                    }
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    self.consecutive_failures = 0;
                    self.transition(BreakerState::Closed);
                } else {
                    self.transition(BreakerState::Open);
                    self.since = now;
                }
            }
            BreakerState::Open => {
                // A straggler from before the trip landing now; the
                // breaker already made its decision.
            }
        }
    }
}

/// Cluster-wide resilience configuration.
///
/// [`ResilienceConfig::disabled`] turns every mechanism off and is the
/// implicit configuration of [`crate::cluster::ClusterSim::run`]; with
/// it, simulation reports are bit-for-bit identical to the pre-fault
/// code path.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-pool fault injection (see [`tt_sim::fault`]).
    pub faults: FaultPlan,
    /// Retry budget and backoff schedule.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning; `None` disables breakers.
    pub breaker: Option<BreakerPolicy>,
    /// Deadline per request, as a multiple of the serving tier's mean
    /// (guaranteed) latency; `None` disables deadlines.
    pub deadline_factor: Option<f64>,
    /// Hedge a `Scheduling::Sequential` cascade by launching the
    /// accurate version once the cheap stage has been out for this
    /// multiple of its nominal service time; `None` disables hedging.
    pub hedge_factor: Option<f64>,
    /// Re-route to the next-cheaper version when a request's stages
    /// fail; off means such requests are dropped. A request whose every
    /// stage a breaker refused sheds to a sibling either way.
    pub degrade: bool,
}

impl ResilienceConfig {
    /// Every mechanism off, for a cluster of `pools` version pools.
    pub fn disabled(pools: usize) -> Self {
        ResilienceConfig {
            faults: FaultPlan::disabled(pools),
            retry: RetryPolicy::NONE,
            breaker: None,
            deadline_factor: None,
            hedge_factor: None,
            degrade: false,
        }
    }

    /// Whether this configuration can diverge from the fault-free path.
    pub fn is_disabled(&self) -> bool {
        self.faults.is_disabled()
            && self.retry.max_retries == 0
            && self.breaker.is_none()
            && self.deadline_factor.is_none()
            && self.hedge_factor.is_none()
            && !self.degrade
    }
}

/// What the resilience layer observed during one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Requests offered to the cluster.
    pub total_requests: usize,
    /// Invocations that completed `Failed` (crash or transient error).
    pub failed_invocations: usize,
    /// Invocations that completed `Slow` (stragglers).
    pub slow_invocations: usize,
    /// Retry attempts issued.
    pub retries: usize,
    /// Sequential cascades that launched their accurate version off the
    /// hedging timer.
    pub hedges: usize,
    /// Launches redirected away from a pool with an open breaker.
    pub breaker_sheds: usize,
    /// Total breaker state transitions across all pools.
    pub breaker_transitions: u64,
    /// Responses served by a version other than the one the tier policy
    /// intended (stashed cascade answers and cheaper re-routes).
    pub degraded_responses: usize,
    /// Degraded responses whose quality error exceeded the fault-free
    /// policy outcome by more than the request's advertised tolerance.
    pub tolerance_violations_under_fault: usize,
    /// Requests not answered strictly before their deadline.
    pub deadline_misses: usize,
    /// Requests that exhausted every avenue and were never answered.
    pub dropped_requests: usize,
}

impl ResilienceStats {
    /// Fraction of offered requests that received an answer.
    pub fn availability(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            (self.total_requests - self.dropped_requests) as f64 / self.total_requests as f64
        }
    }

    /// Fraction of offered requests answered strictly before their
    /// deadline (1.0 when deadlines are disabled).
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            (self.total_requests - self.deadline_misses) as f64 / self.total_requests as f64
        }
    }

    /// Add what one request's [`ResilientWalk`] counted: retries,
    /// sheds, hedges, a missed deadline, a degraded answer, a tolerance
    /// violation, a drop.
    pub fn record(&mut self, request: &ResilientWalk<'_>) {
        self.retries += request.retries as usize;
        self.breaker_sheds += request.sheds as usize;
        self.hedges += request.hedges as usize;
        self.deadline_misses += usize::from(request.deadline_missed);
        self.degraded_responses += usize::from(request.degraded());
        self.tolerance_violations_under_fault += usize::from(request.violated);
        self.dropped_requests += usize::from(request.dropped);
    }

    /// Add another fold's counts, field by field.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.total_requests += other.total_requests;
        self.failed_invocations += other.failed_invocations;
        self.slow_invocations += other.slow_invocations;
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.breaker_sheds += other.breaker_sheds;
        self.breaker_transitions += other.breaker_transitions;
        self.degraded_responses += other.degraded_responses;
        self.tolerance_violations_under_fault += other.tolerance_violations_under_fault;
        self.deadline_misses += other.deadline_misses;
        self.dropped_requests += other.dropped_requests;
    }
}

/// A deployment's recovery rules, fixed for its life: the retry budget
/// and backoff, whether an exhausted request degrades, and the order
/// re-routes search.
#[derive(Debug, Clone)]
pub struct Recovery {
    retry: RetryPolicy,
    degrade: bool,
    /// Versions by ascending mean profiled latency, ties by index:
    /// "cheaper" means earlier here.
    order: Vec<usize>,
}

impl Recovery {
    /// The rules for a deployment profiled by `matrix`.
    pub fn new(matrix: &ProfileMatrix, retry: RetryPolicy, degrade: bool) -> Self {
        let requests = matrix.requests();
        let mean_latency: Vec<f64> = (0..matrix.versions())
            .map(|v| {
                (0..requests)
                    .map(|r| matrix.get(r, v).latency_us as f64)
                    .sum::<f64>()
                    / requests.max(1) as f64
            })
            .collect();
        let mut order: Vec<usize> = (0..matrix.versions()).collect();
        order.sort_by(|&a, &b| {
            mean_latency[a]
                .partial_cmp(&mean_latency[b])
                .expect("finite latencies")
                .then(a.cmp(&b))
        });
        Recovery {
            retry,
            degrade,
            order,
        }
    }
}

/// Where a launch sits in its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Stage `k` of the policy walk.
    Stage(usize),
    /// The re-route after the walk ran out of stages.
    Reroute,
}

impl Slot {
    /// A dense index for per-slot state: stages `0..3`, the re-route
    /// `3`.
    pub(crate) fn index(self) -> usize {
        match self {
            Slot::Stage(k) => k,
            Slot::Reroute => 3,
        }
    }
}

/// What a [`ResilientWalk`] asks of its host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Run `version` for `slot`, then report [`ResilientWalk::landed`]
    /// or [`ResilientWalk::failed`].
    Launch {
        /// The launch's place in the request.
        slot: Slot,
        /// The version to run.
        version: usize,
    },
    /// Stop `slot`'s running call: an early-terminating answer made it
    /// unnecessary.
    Cancel(Slot),
    /// Wait `delay`, then report [`ResilientWalk::retry_due`]. The
    /// breaker has admitted the retry.
    Retry {
        /// The failed launch's place in the request.
        slot: Slot,
        /// The version to run again.
        version: usize,
        /// The backoff before the retry launches.
        delay: SimDuration,
    },
    /// Reply with `version`'s answer.
    Answer {
        /// The answering version.
        version: usize,
        /// The policy did not intend this answer.
        degraded: bool,
    },
    /// Nothing is left to try: the request goes unanswered.
    Drop,
}

/// A host report [`ResilientWalk::poll`] has not acted on yet.
#[derive(Debug, Clone, Copy)]
enum Report {
    Failed(Slot),
    Due(Slot),
    Rerouted,
}

/// One request's policy walk under the resilience rules of the module
/// doc. Sans-IO: the host feeds it what its calls and timers did and
/// carries out the [`Step`]s [`ResilientWalk::poll`] returns, asking a
/// host closure for breaker admission. `Copy`, and it never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ResilientWalk<'a> {
    walk: Walk,
    policy: Policy,
    row: &'a [Observation],
    recovery: &'a Recovery,
    tolerance: f64,
    report: Option<Report>,
    /// Launches of each walk stage, then of the current re-route.
    attempts: [u32; 4],
    reroute: Option<usize>,
    /// The version a re-route starts from: the last one given up.
    from: usize,
    /// A hedge timer's launch is being polled: a hedge, and no shed if
    /// refused.
    hedging: bool,
    answer: Option<(usize, bool)>,
    dropped: bool,
    /// Launches the walk does not account (retries and re-routes), and
    /// their profiled busy time.
    relaunches: u32,
    relaunched_us: u64,
    retries: u32,
    sheds: u32,
    hedges: u32,
    deadline_missed: bool,
    violated: bool,
}

impl<'a> ResilientWalk<'a> {
    /// The walk of `policy` for a request whose profiled observations
    /// are `row` and whose declared tolerance is `tolerance`.
    pub fn new(
        policy: Policy,
        row: &'a [Observation],
        tolerance: f64,
        recovery: &'a Recovery,
    ) -> Self {
        let walk = Walk::new(&policy, row);
        ResilientWalk {
            walk,
            policy,
            row,
            recovery,
            tolerance,
            report: None,
            attempts: [0; 4],
            reroute: None,
            from: walk.version(0),
            hedging: false,
            answer: None,
            dropped: false,
            relaunches: 0,
            relaunched_us: 0,
            retries: 0,
            sheds: 0,
            hedges: 0,
            deadline_missed: false,
            violated: false,
        }
    }

    /// The next step for the host, or `None` until it reports another
    /// outcome. `admit(version)` is the host's breaker (and quarantine):
    /// asked once per launch, and once per re-route candidate.
    pub fn poll(&mut self, mut admit: impl FnMut(usize) -> bool) -> Option<Step> {
        if let Some(report) = self.report.take() {
            if let Some(step) = self.act(report, &mut admit) {
                return Some(step);
            }
        }
        while let Some(action) = self.walk.poll() {
            let step = match action {
                Action::Invoke(k) => {
                    let version = self.walk.version(k);
                    if admit(version) {
                        self.hedges += u32::from(self.hedging);
                        self.attempts[k] = 1;
                        Some(Step::Launch {
                            slot: Slot::Stage(k),
                            version,
                        })
                    } else {
                        self.sheds += u32::from(!self.hedging);
                        self.walk.shed(k);
                        None
                    }
                }
                Action::Cancel(k) => {
                    (self.attempts[k] == 1).then_some(Step::Cancel(Slot::Stage(k)))
                }
                Action::Answer { stage, degraded } => {
                    Some(self.respond(self.walk.version(stage), degraded))
                }
                Action::Exhausted => Some(self.reroute(&mut admit)),
            };
            if step.is_some() {
                return step;
            }
        }
        self.hedging = false;
        None
    }

    /// `slot`'s call answered with `confidence`.
    pub fn landed(&mut self, slot: Slot, confidence: f64) {
        if self.finished() {
            return;
        }
        match slot {
            Slot::Stage(k) => self.walk.landed(k, confidence),
            Slot::Reroute => self.report = Some(Report::Rerouted),
        }
    }

    /// `slot`'s call failed.
    pub fn failed(&mut self, slot: Slot) {
        if !self.finished() {
            self.report = Some(Report::Failed(slot));
        }
    }

    /// The backoff of a [`Step::Retry`] for `slot` has passed.
    pub fn retry_due(&mut self, slot: Slot) {
        if !self.finished() {
            self.report = Some(Report::Due(slot));
        }
    }

    /// A hedge timer fired: launch the second stage of a two-stage
    /// sequential walk early.
    pub fn hedge(&mut self) {
        if !self.finished() && self.reroute.is_none() {
            self.hedging = true;
            self.walk.hedge();
        }
    }

    /// The request's deadline passed unanswered: count the miss, and
    /// answer with the walk's fallback if it holds one.
    pub fn deadline(&mut self) {
        if !self.finished() {
            self.deadline_missed = true;
            self.walk.deadline();
        }
    }

    /// Whether a hedge timer applies: a two-stage sequential walk.
    pub(crate) fn hedgeable(&self) -> bool {
        self.walk.hedgeable()
    }

    /// The version `slot` runs.
    ///
    /// # Panics
    ///
    /// Panics for [`Slot::Reroute`] before the walk was exhausted.
    pub fn version(&self, slot: Slot) -> usize {
        match slot {
            Slot::Stage(k) => self.walk.version(k),
            Slot::Reroute => self.reroute.expect("the walk was exhausted"),
        }
    }

    /// Which launch of `slot` the latest is, from 1.
    pub fn attempt(&self, slot: Slot) -> u32 {
        self.attempts[slot.index()]
    }

    /// The version the current re-route started from.
    pub fn rerouted_from(&self) -> usize {
        self.from
    }

    /// The answering version, once the request has answered.
    pub fn answered_by(&self) -> Option<usize> {
        self.answer.map(|(version, _)| version)
    }

    /// Whether the answer is one the policy did not intend.
    pub fn degraded(&self) -> bool {
        matches!(self.answer, Some((_, true)))
    }

    /// Whether the request adds to any counter of
    /// [`ResilienceStats::record`].
    pub fn eventful(&self) -> bool {
        self.retries + self.sheds + self.hedges > 0
            || self.deadline_missed
            || self.degraded()
            || self.dropped
    }

    /// Accounted latency, µs: the walk's clock, plus the profiled
    /// latency of the re-route that answered. Retries and failed
    /// re-routes add busy time and invocations, not latency.
    pub fn latency_us(&self) -> u64 {
        let rerouted = self.reroute.filter(|_| self.answer.is_some());
        self.walk.latency_us() + rerouted.map_or(0, |v| self.row[v].latency_us)
    }

    /// Accounted busy time across every launch, µs.
    pub fn busy_us(&self) -> u64 {
        self.walk.busy_us() + self.relaunched_us
    }

    /// Launches so far: the walk's stages, retries and re-routes.
    pub fn invocations(&self) -> u64 {
        self.walk.invocations() + u64::from(self.relaunches)
    }

    fn finished(&self) -> bool {
        self.answer.is_some() || self.dropped
    }

    fn act(&mut self, report: Report, admit: &mut impl FnMut(usize) -> bool) -> Option<Step> {
        match report {
            Report::Rerouted => Some(self.respond(self.version(Slot::Reroute), true)),
            Report::Due(slot) => Some(self.relaunch(slot, self.version(slot))),
            Report::Failed(slot) => {
                let version = self.version(slot);
                let retry = self.recovery.retry;
                if self.retries < retry.max_retries && admit(version) {
                    let delay = retry.backoff(self.retries);
                    self.retries += 1;
                    return Some(Step::Retry {
                        slot,
                        version,
                        delay,
                    });
                }
                self.from = version;
                match slot {
                    Slot::Stage(k) => {
                        self.walk.failed(k);
                        None
                    }
                    Slot::Reroute => Some(self.reroute(admit)),
                }
            }
        }
    }

    /// The walk is exhausted: shed, degrade, or drop.
    fn reroute(&mut self, admit: &mut impl FnMut(usize) -> bool) -> Step {
        let recovery: &'a Recovery = self.recovery;
        let launched = self.invocations() > 0;
        let target = if launched && !recovery.degrade {
            None
        } else {
            let order = &recovery.order;
            let pos = order
                .iter()
                .position(|&v| v == self.from)
                .expect("the order ranks every version");
            let pricier = if launched { &[][..] } else { &order[pos + 1..] };
            order[..pos]
                .iter()
                .rev()
                .chain(pricier)
                .copied()
                .find(|&v| admit(v))
        };
        match target {
            Some(version) => {
                self.reroute = Some(version);
                self.attempts[Slot::Reroute.index()] = 0;
                self.relaunch(Slot::Reroute, version)
            }
            None => {
                self.dropped = true;
                Step::Drop
            }
        }
    }

    /// A launch the walk does not account: a retry or a re-route.
    fn relaunch(&mut self, slot: Slot, version: usize) -> Step {
        self.attempts[slot.index()] += 1;
        self.relaunches += 1;
        self.relaunched_us += self.row[version].latency_us;
        Step::Launch { slot, version }
    }

    fn respond(&mut self, version: usize, degraded: bool) -> Step {
        self.answer = Some((version, degraded));
        if degraded {
            let intended = Walk::profiled(&self.policy, self.row)
                .answered_by()
                .expect("a walk with nothing failing answers");
            self.violated = self.row[version].quality_err - self.row[intended].quality_err
                > self.tolerance + 1e-12;
        }
        Step::Answer { version, degraded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::policy::{Scheduling, Termination};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_micros(v * 1_000)
    }

    #[test]
    fn backoff_grows_and_caps() {
        let retry = RetryPolicy {
            max_retries: 10,
            base: ms(5),
            cap: ms(40),
            multiplier: 2.0,
        };
        assert_eq!(retry.backoff(0), ms(5));
        assert_eq!(retry.backoff(1), ms(10));
        assert_eq!(retry.backoff(2), ms(20));
        assert_eq!(retry.backoff(3), ms(40));
        assert_eq!(retry.backoff(4), ms(40));
        assert_eq!(retry.backoff(100), ms(40)); // no overflow
    }

    #[test]
    fn zero_base_means_immediate_retries() {
        let retry = RetryPolicy::immediate(3);
        assert_eq!(retry.backoff(0), SimDuration::ZERO);
        assert_eq!(retry.backoff(7), SimDuration::ZERO);
    }

    #[test]
    fn retry_validation() {
        assert!(RetryPolicy::NONE.validate().is_ok());
        assert!(RetryPolicy {
            multiplier: 0.5,
            ..RetryPolicy::NONE
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_retries: 1,
            base: ms(10),
            cap: ms(5),
            multiplier: 2.0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 3,
            cooldown: ms(100),
        });
        assert!(b.allows(at(0)));
        b.record(false, at(0));
        b.record(true, at(1)); // success resets the streak
        b.record(false, at(2));
        b.record(false, at(3));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, at(4));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(at(5)));
        assert_eq!(b.transitions(), 1);
    }

    #[test]
    fn breaker_probes_after_cooldown_and_recloses_on_success() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: ms(50),
        });
        b.record(false, at(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(at(10)));
        // Cooldown elapsed: exactly one probe goes through.
        assert!(b.allows(at(60)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows(at(61)));
        b.record(true, at(70));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(at(71)));
        assert_eq!(b.transitions(), 3); // open -> half-open -> closed
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: ms(50),
        });
        b.record(false, at(0));
        assert!(b.allows(at(60)));
        b.record(false, at(70));
        assert_eq!(b.state(), BreakerState::Open);
        // Fresh cooldown from the failed probe.
        assert!(!b.allows(at(100)));
        assert!(b.allows(at(121)));
    }

    #[test]
    fn a_probe_that_never_reports_is_replaced_after_a_cooldown() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: ms(50),
        });
        b.record(false, at(0));
        assert!(b.allows(at(60)));
        // The probe is cancelled and never records.
        assert!(!b.allows(at(100)));
        assert!(b.allows(at(110)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true, at(120));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn disabled_config_is_disabled() {
        assert!(ResilienceConfig::disabled(3).is_disabled());
        let mut c = ResilienceConfig::disabled(3);
        c.degrade = true;
        assert!(!c.is_disabled());
    }

    /// One request over three versions: latency 10/20/40 ms, quality
    /// error 1/0.5/0 (cheaper is worse), confidence 0.9 everywhere.
    fn deployment() -> ProfileMatrix {
        let mut b = tt_core::profile::ProfileMatrixBuilder::new(
            ["fast", "mid", "accurate"].map(String::from).to_vec(),
        );
        b.push_request(
            [(10_000, 1.0), (20_000, 0.5), (40_000, 0.0)]
                .map(|(latency_us, quality_err)| Observation {
                    quality_err,
                    latency_us,
                    cost: 0.0,
                    confidence: 0.9,
                })
                .to_vec(),
        );
        b.build().unwrap()
    }

    fn cascade(scheduling: Scheduling, termination: Termination) -> Policy {
        Policy::Cascade {
            cheap: 0,
            accurate: 2,
            threshold: 0.5,
            scheduling,
            termination,
        }
    }

    /// Every step `request` takes until it waits on its host.
    fn drain(request: &mut ResilientWalk<'_>, mut admit: impl FnMut(usize) -> bool) -> Vec<Step> {
        std::iter::from_fn(|| request.poll(&mut admit)).collect()
    }

    fn launch(slot: Slot, version: usize) -> Step {
        Step::Launch { slot, version }
    }

    fn stats(request: &ResilientWalk<'_>) -> ResilienceStats {
        let mut stats = ResilienceStats::default();
        stats.record(request);
        stats
    }

    const OPEN: fn(usize) -> bool = |_| true;
    const SINGLE_2: Policy = Policy::Single { version: 2 };

    #[test]
    fn versions_are_ordered_cheapest_first() {
        let mut b =
            tt_core::profile::ProfileMatrixBuilder::new(["a", "b", "c"].map(String::from).to_vec());
        for latencies in [[30, 10, 20], [30, 10, 20]] {
            b.push_request(
                latencies
                    .map(|latency_us| Observation {
                        quality_err: 0.0,
                        latency_us,
                        cost: 0.0,
                        confidence: 0.9,
                    })
                    .to_vec(),
            );
        }
        let recovery = Recovery::new(&b.build().unwrap(), RetryPolicy::NONE, false);
        assert_eq!(recovery.order, [1, 2, 0]);
    }

    #[test]
    fn a_retry_recovers_a_failed_launch() {
        let m = deployment();
        let retry = RetryPolicy {
            max_retries: 3,
            base: ms(1),
            cap: ms(2),
            multiplier: 2.0,
        };
        let recovery = Recovery::new(&m, retry, false);
        let mut request = ResilientWalk::new(SINGLE_2, m.request_row(0), 0.0, &recovery);
        let stage = Slot::Stage(0);
        assert_eq!(drain(&mut request, OPEN), [launch(stage, 2)]);
        for delay in [ms(1), ms(2)] {
            request.failed(stage);
            let retry = Step::Retry {
                slot: stage,
                version: 2,
                delay,
            };
            assert_eq!(drain(&mut request, OPEN), [retry]);
            request.retry_due(stage);
            assert_eq!(drain(&mut request, OPEN), [launch(stage, 2)]);
        }
        assert_eq!(request.attempt(stage), 3);
        request.landed(stage, 0.9);
        let answer = Step::Answer {
            version: 2,
            degraded: false,
        };
        assert_eq!(drain(&mut request, OPEN), [answer]);
        // Retries cost busy time and invocations, not latency.
        assert_eq!(request.latency_us(), 40_000);
        assert_eq!((request.busy_us(), request.invocations()), (120_000, 3));
        assert_eq!(stats(&request).retries, 2);
    }

    #[test]
    fn the_retry_budget_runs_out_to_a_drop() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::immediate(2), false);
        let mut request = ResilientWalk::new(SINGLE_2, m.request_row(0), 0.0, &recovery);
        let stage = Slot::Stage(0);
        let mut steps = drain(&mut request, OPEN);
        for _ in 0..3 {
            request.failed(stage);
            steps.extend(drain(&mut request, OPEN));
            if let Some(Step::Retry { slot, .. }) = steps.last() {
                request.retry_due(*slot);
                steps.extend(drain(&mut request, OPEN));
            }
        }
        let retry = Step::Retry {
            slot: stage,
            version: 2,
            delay: SimDuration::ZERO,
        };
        let tries = [launch(stage, 2), retry, launch(stage, 2), retry];
        assert_eq!(steps[..4], tries);
        assert_eq!(steps[4..], [launch(stage, 2), Step::Drop]);
        assert_eq!(request.answered_by(), None);
        let stats = stats(&request);
        assert_eq!((stats.retries, stats.dropped_requests), (2, 1));
    }

    #[test]
    fn every_stage_and_re_route_shares_one_budget() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::immediate(1), true);
        let policy = cascade(Scheduling::Sequential, Termination::EarlyTerminate);
        let mut request = ResilientWalk::new(policy, m.request_row(0), 0.0, &recovery);
        drain(&mut request, OPEN);
        request.failed(Slot::Stage(0));
        assert!(matches!(
            drain(&mut request, OPEN)[..],
            [Step::Retry { .. }]
        ));
        request.retry_due(Slot::Stage(0));
        drain(&mut request, OPEN);
        // The budget is spent: the cheap stage gives up, the accurate
        // one gets no retry, and the re-route degrades from it.
        request.failed(Slot::Stage(0));
        assert_eq!(drain(&mut request, OPEN), [launch(Slot::Stage(1), 2)]);
        request.failed(Slot::Stage(1));
        assert_eq!(drain(&mut request, OPEN), [launch(Slot::Reroute, 1)]);
        assert_eq!(request.rerouted_from(), 2);
    }

    #[test]
    fn the_breaker_is_asked_once_per_launch() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::immediate(2), true);
        let mut request = ResilientWalk::new(SINGLE_2, m.request_row(0), 0.0, &recovery);
        let mut asked = Vec::new();
        let mut admit = |version: usize| {
            asked.push(version);
            asked.len() != 2
        };
        drain(&mut request, &mut admit);
        request.failed(Slot::Stage(0));
        // The retry is refused when it is decided; the stage gives up
        // and the request degrades to the nearest cheaper version.
        assert_eq!(drain(&mut request, &mut admit), [launch(Slot::Reroute, 1)]);
        request.failed(Slot::Reroute);
        let steps = drain(&mut request, &mut admit);
        request.retry_due(Slot::Reroute);
        assert_eq!(drain(&mut request, &mut admit), [launch(Slot::Reroute, 1)]);
        assert!(matches!(steps[..], [Step::Retry { version: 1, .. }]));
        assert_eq!(asked, [2, 2, 1, 1]);
    }

    #[test]
    fn a_request_refused_everywhere_sheds_to_any_sibling() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::NONE, false);
        let policy = Policy::Single { version: 1 };
        let mut request = ResilientWalk::new(policy, m.request_row(0), 0.0, &recovery);
        // Degradation is off, but nothing ever launched: cheaper first,
        // then pricier.
        let steps = drain(&mut request, |version| version == 2);
        assert_eq!(steps, [launch(Slot::Reroute, 2)]);
        request.landed(Slot::Reroute, 0.9);
        let answer = Step::Answer {
            version: 2,
            degraded: true,
        };
        assert_eq!(drain(&mut request, OPEN), [answer]);
        assert_eq!(request.latency_us(), 40_000);
        let stats = stats(&request);
        assert_eq!((stats.breaker_sheds, stats.degraded_responses), (1, 1));
    }

    #[test]
    fn a_failed_re_route_retries_then_re_routes_again() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::immediate(1), true);
        let mut request = ResilientWalk::new(SINGLE_2, m.request_row(0), 0.0, &recovery);
        drain(&mut request, OPEN);
        request.failed(Slot::Stage(0));
        // v2's breaker refuses the retry, leaving the budget to the hop.
        let hop = drain(&mut request, |version| version != 2);
        assert_eq!(hop, [launch(Slot::Reroute, 1)]);
        request.failed(Slot::Reroute);
        assert!(matches!(
            drain(&mut request, OPEN)[..],
            [Step::Retry { .. }]
        ));
        request.retry_due(Slot::Reroute);
        assert_eq!(drain(&mut request, OPEN), [launch(Slot::Reroute, 1)]);
        request.failed(Slot::Reroute);
        assert_eq!(drain(&mut request, OPEN), [launch(Slot::Reroute, 0)]);
        assert_eq!(
            (request.rerouted_from(), request.attempt(Slot::Reroute)),
            (1, 1)
        );
        request.landed(Slot::Reroute, 0.9);
        drain(&mut request, OPEN);
        assert_eq!(request.answered_by(), Some(0));
        // Only the answering hop's latency is accounted.
        assert_eq!(request.latency_us(), 10_000);
        assert_eq!(request.invocations(), 4);
    }

    #[test]
    fn a_refused_hedge_is_no_shed_and_an_admitted_one_a_hedge() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::NONE, false);
        let policy = cascade(Scheduling::Sequential, Termination::EarlyTerminate);
        let mut request = ResilientWalk::new(policy, m.request_row(0), 0.0, &recovery);
        assert!(request.hedgeable());
        drain(&mut request, OPEN);
        request.hedge();
        assert_eq!(drain(&mut request, |_| false), []);
        request.hedge();
        assert_eq!(drain(&mut request, OPEN), [launch(Slot::Stage(1), 2)]);
        let stats = stats(&request);
        assert_eq!((stats.hedges, stats.breaker_sheds), (1, 0));
    }

    #[test]
    fn a_retried_stage_is_not_cancelled() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::immediate(1), false);
        let policy = cascade(Scheduling::Concurrent, Termination::EarlyTerminate);
        let mut request = ResilientWalk::new(policy, m.request_row(0), 0.0, &recovery);
        assert_eq!(drain(&mut request, OPEN).len(), 2);
        request.failed(Slot::Stage(1));
        drain(&mut request, OPEN);
        request.retry_due(Slot::Stage(1));
        drain(&mut request, OPEN);
        request.landed(Slot::Stage(0), 0.9);
        let answer = Step::Answer {
            version: 0,
            degraded: false,
        };
        assert_eq!(drain(&mut request, OPEN), [answer]);
    }

    #[test]
    fn a_degraded_answer_past_the_tolerance_is_a_violation() {
        let m = deployment();
        let recovery = Recovery::new(&m, RetryPolicy::NONE, true);
        let violations = |tolerance: f64| {
            let mut request = ResilientWalk::new(SINGLE_2, m.request_row(0), tolerance, &recovery);
            drain(&mut request, OPEN);
            request.failed(Slot::Stage(0));
            drain(&mut request, OPEN);
            request.landed(Slot::Reroute, 0.9);
            drain(&mut request, OPEN);
            assert!(request.degraded() && request.eventful());
            stats(&request).tolerance_violations_under_fault
        };
        // The re-route answers from v1: 0.5 more error than v2.
        assert_eq!(violations(0.4), 1);
        assert_eq!(violations(0.5), 0);
    }

    #[test]
    fn stats_rates() {
        let stats = ResilienceStats {
            total_requests: 10,
            dropped_requests: 2,
            deadline_misses: 5,
            ..ResilienceStats::default()
        };
        assert!((stats.availability() - 0.8).abs() < 1e-12);
        assert!((stats.deadline_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ResilienceStats::default().availability(), 1.0);
    }
}
