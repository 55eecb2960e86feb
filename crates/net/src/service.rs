//! The compute service behind `POST /compute`: tier routing, resilient
//! wall-clock execution, and billing.
//!
//! A request that reaches [`ComputeService::execute`] has already been
//! parsed off the wire; from here it traverses the same stations the
//! paper's Fig. 4 architecture describes — [`TieredFrontend`] policy
//! resolution, execution on the [`tt_serve::live::WorkerPool`] thread
//! pool under the PR-1 resilience policies (retry with capped backoff,
//! per-version circuit breakers, optional seeded fault injection,
//! graceful degradation), then the billing ledger.
//!
//! Time is two-layered, like the rest of the workspace: *wall-clock*
//! concurrency is real (worker threads, optional scaled sleeps), but
//! the *accounted* latency, quality error, and money all come from the
//! profiled virtual-cost model, so a fixed request set produces
//! identical per-tier billed totals on every run regardless of thread
//! scheduling.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, BrownoutLevel};
use crate::batch::{BatchConfig, BatchItem, Batcher};
use crate::obs::{CacheEvent, ObsConfig, Observability};
use crate::tiers::{LiveTiers, Tier, TierTable};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tt_cache::{Lookup, SemanticCache};
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Walk};
use tt_core::profile::{Observation, ProfileMatrix};
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::{RoutingRuleGenerator, RoutingRules};
use tt_obs::{Shards, TraceHandle};
use tt_serve::billing::{BillingReport, TierEconomics, TierPriceSchedule};
use tt_serve::frontend::TieredFrontend;
use tt_serve::live::WorkerPool;
use tt_serve::planner::{
    Planner, PlannerAction, PlannerConfig, PlannerInput, PlannerStatus, ServiceTotals, Tuner,
    TunerConfig,
};
use tt_serve::resilience::{
    BreakerPolicy, BreakerState, CircuitBreaker, Recovery, ResilienceStats, ResilientWalk,
    RetryPolicy, Slot, Step,
};
use tt_serve::supervisor::{
    Supervisor, SupervisorAction, SupervisorConfig, VersionWindow, WindowObservation,
};
use tt_serve::trace::{TraceEvent, TraceRecorder};
use tt_sim::{FaultOutcome, FaultPlan, InstanceType, Money, SimDuration, SimTime};

/// The semantic result cache the serving layer shares: stored answers
/// are [`CachedAnswer`]s, keys are [`semantic_key`] values, and exact
/// matches compare the wire body's fingerprint.
pub type ResultCache = SemanticCache<CachedAnswer>;

/// Accounted latency of a cache hit, µs. A deterministic constant (not
/// wall clock) so `/metrics` totals stay bit-identical across runs;
/// far below any profiled model latency because a hit touches no
/// worker pool.
pub const CACHE_HIT_SIM_LATENCY_US: u64 = 25;

/// How many of the newest events the service's trace keeps (each
/// settle shard, and the snapshot merged from them); its per-tier
/// aggregates still cover the whole stream.
const TRACE_RETENTION: usize = 4096;

/// What the result cache stores per semantic key: the identity of the
/// answering version. Everything else a response needs (quality error,
/// confidence, names, prices) is re-derived from the profile matrix
/// and the request, so cached answers can never drift from the
/// virtual-cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// The version whose answer was stored.
    pub answered_by: usize,
}

/// The semantic cache key: objective ⊕ payload index. Two requests
/// with the same key ask the same question; their tolerance decides
/// whether a stored answer is admissible.
pub fn semantic_key(objective: Objective, payload: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in objective.name().as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in payload.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How the cache layer disposed of one request.
#[derive(Debug, Clone)]
pub enum CacheServed {
    /// Answered (and fully settled/billed) from the cache; `exact` is
    /// true when the stored input fingerprint was bit-equal.
    Hit {
        /// The settled outcome, billed at the declared tier.
        outcome: ComputeOutcome,
        /// Bit-equal input match (vs a semantic-rule match).
        exact: bool,
    },
    /// Cache consulted, no admissible entry: execute, then offer the
    /// answer back via [`CacheAdmitTicket::admit`].
    Miss,
    /// Cache not consulted (disabled, or this node is epoch-fenced).
    Bypass,
}

/// A pre-resolved insert permit for the miss path. Captured *before*
/// execution so the deferred (batched) path can admit from an executor
/// thread without re-borrowing the service.
pub struct CacheAdmitTicket {
    cache: Arc<ResultCache>,
    key: u64,
    fingerprint: u64,
    epoch: u64,
    baseline_err: f64,
}

impl CacheAdmitTicket {
    /// Offer an executed answer to the cache. Degraded or
    /// brownout-shaped answers are never admitted (they are not the
    /// policy's intended result for the key), and the cache re-checks
    /// the epoch, so a fence between execute and admit voids the
    /// ticket.
    pub fn admit(&self, outcome: &ComputeOutcome) {
        if outcome.degraded || outcome.brownout.is_some() {
            return;
        }
        let achieved_milli =
            ((outcome.quality_err - self.baseline_err).max(0.0) * 1000.0).round() as u32;
        let executed_milli = (outcome.billed_tolerance * 1000.0).round() as u32;
        self.cache.insert(
            self.key,
            self.fingerprint,
            achieved_milli,
            executed_milli,
            outcome.answered_by as u64,
            CachedAnswer {
                answered_by: outcome.answered_by,
            },
            self.epoch,
        );
    }
}

/// Tuning for a [`ComputeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-invocation prices by tolerance tier.
    pub schedule: TierPriceSchedule,
    /// Retry budget for failed model invocations.
    pub retry: RetryPolicy,
    /// Per-version circuit breakers; `None` disables them.
    pub breaker: Option<BreakerPolicy>,
    /// Answer from a cheaper version when the policy's stages fail
    /// (off: such requests get `503`). A request whose every stage a
    /// breaker or quarantine refused sheds to a sibling either way.
    pub degrade: bool,
    /// Seeded per-version fault injection; `None` runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Wall-clock sleep per model call, as a fraction of the profiled
    /// latency (`0.0` = no sleep; `1.0` = real-time replay).
    pub latency_scale: f64,
    /// Model-execution worker threads.
    pub model_workers: usize,
    /// Observability wiring: metrics registry, tracer, SLO sentinel.
    pub obs: ObsConfig,
    /// Tier-aware adaptive admission: AIMD concurrency limiter plus
    /// the brownout plan table.
    pub admission: AdmissionConfig,
    /// The self-healing rule supervisor; `None` disables closed-loop
    /// quarantine / rule-swap / rollback.
    pub supervisor: Option<SupervisorSetup>,
    /// Continuous capacity planning: the low-frequency planner
    /// (forecast-driven pool resizes, forecast-mix rule regeneration)
    /// plus the high-frequency tuner (admission/batching nudges).
    /// `None` leaves provisioning static. Requires observability —
    /// the planner consumes the windowed telemetry fold.
    pub planner: Option<PlannerSetup>,
    /// This service's node id within a fleet (`0` for a standalone
    /// server). Stamped into the `/drain` acknowledgement, stale-epoch
    /// rejections, and metrics so operators can tell replicas apart.
    pub node_id: usize,
    /// Request coalescing for the async execution path: compatible
    /// tolerant requests share one vectorized evaluator pass. Off by
    /// default; only [`ComputeService::execute_shaped_async`] (the
    /// reactor engine's path) consults it.
    pub batch: BatchConfig,
    /// The semantic result cache consulted ahead of policy evaluation;
    /// `None` disables caching. The `Arc` is the sharing unit: a fleet
    /// puts one instance here and every node's clone of the config
    /// points at the same cache, which is what keeps hit/miss
    /// sequences node-count-invariant.
    pub cache: Option<Arc<ResultCache>>,
}

impl ServiceConfig {
    /// Fault-free defaults: list prices, two immediate retries,
    /// breakers on, degradation on, no sleeps, four model workers.
    pub fn defaults() -> Self {
        ServiceConfig {
            schedule: TierPriceSchedule::list_prices(Money::from_dollars(0.001)),
            retry: RetryPolicy::immediate(2),
            breaker: Some(BreakerPolicy {
                failure_threshold: 5,
                cooldown: SimDuration::from_secs_f64(1.0),
            }),
            degrade: true,
            faults: None,
            latency_scale: 0.0,
            model_workers: 4,
            obs: ObsConfig::defaults(),
            admission: AdmissionConfig::defaults(),
            supervisor: Some(SupervisorSetup::defaults()),
            planner: None,
            node_id: 0,
            batch: BatchConfig::defaults(),
            cache: None,
        }
    }
}

/// How the service turns a [`SupervisorAction`] into new routing
/// rules: the automaton's thresholds plus the rule-regeneration knobs.
#[derive(Debug, Clone)]
pub struct SupervisorSetup {
    /// The automaton's thresholds and horizons.
    pub policy: SupervisorConfig,
    /// Confidence handed to [`RoutingRuleGenerator`] when regenerating
    /// rules over the surviving versions.
    pub rulegen_confidence: f64,
    /// Base seed for regeneration; with a fixed seed the regenerated
    /// rules are bit-identical at every thread count.
    pub rulegen_seed: u64,
    /// Worker threads for regeneration (`0` = one per hardware
    /// thread).
    pub rulegen_threads: usize,
}

impl SupervisorSetup {
    /// Conservative defaults: the automaton's defaults, 0.95 bootstrap
    /// confidence, a fixed seed, all available threads.
    pub fn defaults() -> Self {
        SupervisorSetup {
            policy: SupervisorConfig::defaults(),
            rulegen_confidence: 0.95,
            rulegen_seed: 17,
            rulegen_threads: 0,
        }
    }
}

/// How the service runs the continuous capacity planner: the two
/// automatons' knobs plus the rule-regeneration parameters a
/// forecast-mix regen uses.
#[derive(Debug, Clone)]
pub struct PlannerSetup {
    /// The low-frequency planner's forecast model and resize policy.
    /// Its rounds are `windows_per_round` windows of
    /// [`ObsConfig::window`].
    pub planner: PlannerConfig,
    /// The high-frequency tuner's surge thresholds and nudges.
    pub tuner: TunerConfig,
    /// Confidence handed to the rule generator on a forecast-mix
    /// regen.
    pub rulegen_confidence: f64,
    /// Worker threads for forecast-mix regeneration (`0` = one per
    /// hardware thread).
    pub rulegen_threads: usize,
}

impl PlannerSetup {
    /// Defaults matching [`ObsConfig::defaults`]'s 250 ms telemetry
    /// window: plan every 4 windows, 70% target utilization, tuner
    /// surge at 2× the smoothed arrival rate.
    pub fn defaults() -> Self {
        PlannerSetup {
            planner: PlannerConfig::defaults(),
            tuner: TunerConfig::defaults(),
            rulegen_confidence: 0.95,
            rulegen_threads: 0,
        }
    }
}

/// Mutable capacity-planning state behind one lock: the two automatons,
/// the window counter pacing the planner's cadence, and the decision
/// log.
struct PlannerRuntime {
    planner: Planner,
    tuner: Tuner,
    setup: PlannerSetup,
    windows: u64,
    log: Vec<String>,
}

/// Live capacity-planner facts for `/planner` and tests; `None` when
/// planning is disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityStatus {
    /// The planner automaton's snapshot.
    pub planner: PlannerStatus,
    /// Telemetry windows the tuner has closed.
    pub windows: u64,
    /// Whether the tuner currently judges traffic surging.
    pub surging: bool,
    /// Surge onsets the tuner has absorbed.
    pub nudges: u64,
    /// The batch formation-deadline scale currently installed,
    /// per-mille.
    pub batch_slack_permille: u32,
    /// Workers the pool currently provisions.
    pub pool_workers: usize,
    /// Forecast-mix rule regenerations executed.
    pub mix_regens: u64,
    /// Human-readable decision log, oldest first.
    pub log: Vec<String>,
}

/// Why a request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Every execution avenue (retries, siblings, degradation) failed.
    Unavailable,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Unavailable => write!(f, "no version could answer the request"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeOutcome {
    /// The version whose answer was returned.
    pub answered_by: usize,
    /// Quality error of the returned answer (virtual-cost model).
    pub quality_err: f64,
    /// Confidence the answering version reported.
    pub confidence: f64,
    /// Accounted latency under the virtual-cost model, µs.
    pub simulated_latency_us: u64,
    /// What this invocation was billed.
    pub price: Money,
    /// The tier policy that served the request.
    pub policy: Policy,
    /// Whether faults/sheds forced an answer the policy did not intend.
    pub degraded: bool,
    /// The tolerance tier the request was billed at — differs from the
    /// declared tolerance only under a looser-tier brownout.
    pub billed_tolerance: f64,
    /// The brownout rung that produced the serving plan, when the
    /// request was browned out under pressure.
    pub brownout: Option<BrownoutLevel>,
}

/// Aggregate view for `/stats` and tests.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Requests answered.
    pub served: usize,
    /// Per-tier aggregates of every settled request. It retains no
    /// event: `/stats` renders only the tiers, so a read folds the
    /// settle shards' aggregates and leaves their rings alone.
    pub trace: TraceRecorder,
    /// Resilience counters.
    pub resilience: ResilienceStats,
    /// Tier economics folded from the trace.
    pub billing: BillingReport,
    /// Result-cache counters, when a cache is configured. In a fleet
    /// the cache is shared, so every node reports the same totals.
    pub cache: Option<tt_cache::CacheStats>,
}

/// One thread's share of the settle path's bookkeeping: the trace, the
/// bill and the resilience counts. Everything in it is a count, an
/// integer sum or a ring ordered by settle number, so
/// [`ComputeService::snapshot`] folds the shards to the same figures
/// however the requests were spread over threads.
#[derive(Debug)]
struct Ledgered {
    /// The newest settled requests, numbered by settle order, and
    /// per-tier aggregates of all of them.
    trace: TraceRecorder,
    /// Accounted busy time of every launched invocation, µs, priced at
    /// read.
    busy_us: u64,
    /// Requests billed, by `(objective name, tolerance in tenths of a
    /// percent, price bits)`: a static name, so settling allocates
    /// nothing once a tier was seen. Revenue is priced at read.
    billed: BTreeMap<(&'static str, u32, u64), u64>,
    /// Resilience counts.
    stats: ResilienceStats,
}

impl Ledgered {
    fn new() -> Self {
        Ledgered {
            trace: TraceRecorder::bounded(TRACE_RETENTION),
            busy_us: 0,
            billed: BTreeMap::new(),
            stats: ResilienceStats::default(),
        }
    }
}

/// What executing one request accounted: its answer and charges.
#[derive(Default)]
struct StageOutcome {
    answered_by: usize,
    degraded: bool,
    /// Accounted latency of the path actually taken, µs.
    sim_latency_us: u64,
    /// Accounted busy time across all launched invocations, µs.
    busy_us: u64,
    /// Model invocations launched (for per-invocation billing).
    invocations: u64,
}

impl StageOutcome {
    /// What `request` accounted, or `None` when it was dropped.
    fn of(request: &ResilientWalk<'_>) -> Option<Self> {
        Some(StageOutcome {
            answered_by: request.answered_by()?,
            degraded: request.degraded(),
            sim_latency_us: request.latency_us(),
            busy_us: request.busy_us(),
            invocations: request.invocations(),
        })
    }
}

/// Continuation receiving a request's outcome on the async execution
/// path. Runs on the caller's thread when the request executed
/// synchronously, or on a batch-executor thread after a group flush.
pub type OutcomeSink = Box<dyn FnOnce(Result<ComputeOutcome, ServiceError>) + Send>;

/// One request past the execute prologue
/// ([`ComputeService::open_request`]): counted, its `execute` span
/// open, its plan resolved — everything settlement needs bar the
/// execution facts.
struct Opened {
    /// The tier the declared tolerance resolved to.
    tier: Tier,
    /// The tier actually billed, when a brownout changed it.
    rebilled: Option<Tier>,
    /// The tolerance the customer declared (governs the
    /// degradation-violation check).
    declared_tolerance: f64,
    brownout: Option<BrownoutLevel>,
    policy: Policy,
    payload: usize,
    arrival: SimTime,
    /// The open `execute` span, when the request is traced.
    root: Option<u32>,
}

/// The settlement half of the service, detached from `&self`: billing,
/// tier economics, telemetry, and the serve counter. Built once with
/// the service and shared behind one `Arc`, so a deferred (batched)
/// settlement can run on an executor thread after the handler
/// returned. Both the synchronous path
/// ([`ComputeService::execute_shaped`]) and the batched path settle
/// through [`Accounts::settle`], so the two cannot drift —
/// bit-identical per-tier billing is structural, not coincidental.
struct Accounts {
    matrix: Arc<ProfileMatrix>,
    /// The settling thread's share of the books; no lock is shared
    /// between settlers.
    shards: Shards<Ledgered>,
    obs: Option<Arc<Observability>>,
    served: AtomicUsize,
    instance: InstanceType,
    started: Instant,
}

impl Accounts {
    fn wall_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Bill, trace, and count one executed request, closing its
    /// `execute` span. This is the single settlement path for every
    /// answered request, whatever engine or batch carried it.
    fn settle(
        &self,
        opened: Opened,
        stage: StageOutcome,
        trace: Option<&TraceHandle>,
    ) -> ComputeOutcome {
        let Opened {
            tier,
            rebilled,
            declared_tolerance: _,
            brownout,
            policy,
            payload,
            arrival,
            root,
        } = opened;
        let billed = rebilled.as_ref().unwrap_or(&tier);
        let span = trace.zip(root);
        let obs = self.matrix.get(payload, stage.answered_by);
        let quality_err = obs.quality_err;
        let confidence = obs.confidence;

        let price = billed.price;
        let responded = arrival + SimDuration::from_micros(stage.sim_latency_us);
        let bill_span = span.map(|(handle, parent)| {
            let id = handle.edit(|t| {
                let id = t.open("bill", Some(parent), self.wall_us());
                t.attr_int(
                    id,
                    "price_microusd",
                    (price.as_dollars() * 1e6).round() as i64,
                );
                t.attr_int(id, "invocations", stage.invocations as i64);
                id
            });
            (handle, id)
        });
        {
            let mut shard = self.shards.local();
            // Numbered under the shard's lock, so each shard's ring
            // ascends and the snapshot merges the rings in settle order.
            let number = self.served.fetch_add(1, Ordering::SeqCst) as u64;
            shard.busy_us += stage.busy_us;
            shard.trace.record_numbered(
                number,
                TraceEvent {
                    arrival,
                    responded,
                    tolerance: billed.tolerance,
                    objective: billed.objective,
                    answered_by: stage.answered_by,
                    quality_err,
                },
            );
            let milli = (billed.tolerance * 1000.0).round() as u32;
            let key = (billed.objective.name(), milli, price.as_dollars().to_bits());
            *shard.billed.entry(key).or_insert(0) += 1;
        }
        if let Some((handle, id)) = bill_span {
            handle.close(id, self.wall_us());
        }
        if let Some(live) = &self.obs {
            let baseline = self.matrix.get(payload, billed.baseline_version);
            live.record_served(
                billed,
                &crate::obs::ServedSample {
                    sim_latency_us: stage.sim_latency_us,
                    quality_err,
                    baseline_err: baseline.quality_err,
                    degraded: stage.degraded,
                    invocations: stage.invocations,
                    version: stage.answered_by,
                },
            );
        }
        if let Some((handle, id)) = span {
            handle.edit(|t| {
                t.attr_int(id, "answered_by", stage.answered_by as i64);
                t.attr_int(id, "sim_latency_us", stage.sim_latency_us as i64);
                if let Some(level) = brownout {
                    t.attr_str(id, "brownout", level.label());
                }
                if stage.degraded {
                    t.attr_str(id, "outcome", "degraded");
                }
                t.close(id, self.wall_us());
            });
        }

        ComputeOutcome {
            answered_by: stage.answered_by,
            quality_err,
            confidence,
            simulated_latency_us: stage.sim_latency_us,
            price,
            policy,
            degraded: stage.degraded,
            billed_tolerance: billed.tolerance,
            brownout,
        }
    }
}

/// One model invocation: sleep the share of `obs`'s latency (scaled by
/// `scale`) the fault it drew at launch lets it run, inside a
/// `model_call` span under `span`'s `(handle, parent, attempt)`. It
/// reports the fault and its profiled confidence.
fn model_call(
    started: Instant,
    scale: f64,
    version: usize,
    obs: Observation,
    fault: FaultOutcome,
    span: Option<(&TraceHandle, u32, u32)>,
) -> (FaultOutcome, f64) {
    let wall_us = || started.elapsed().as_micros() as u64;
    let call_span = span.map(|(handle, parent, attempt)| {
        let id = handle.edit(|t| {
            let id = t.open("model_call", Some(parent), wall_us());
            t.attr_int(id, "version", version as i64);
            t.attr_int(id, "attempt", i64::from(attempt));
            id
        });
        (handle, id)
    });
    let occupancy = fault.occupancy(SimDuration::from_micros(obs.latency_us));
    if scale > 0.0 && occupancy > SimDuration::ZERO {
        std::thread::sleep(std::time::Duration::from_secs_f64(
            occupancy.as_secs_f64() * scale,
        ));
    }
    if let Some((handle, id)) = call_span {
        let outcome = match fault {
            FaultOutcome::None => "ok",
            FaultOutcome::Straggler { .. } => "straggler",
            FaultOutcome::Crash { .. } => "crash",
            FaultOutcome::Transient => "transient",
        };
        handle.edit(|t| {
            t.attr_str(id, "outcome", outcome);
            t.close(id, wall_us());
        });
    }
    (fault, obs.confidence)
}

/// One version's circuit breaker, with a path that takes no lock: a
/// breaker that is closed and has counted no failure since its last
/// success lets every launch through, and a success changes nothing in
/// it. `clean` says the breaker is in that state. It is written under
/// the breaker's lock after every record, so it follows the breaker's
/// own order of changes; a caller that reads a stale `true` while
/// another records a failure has its call ordered before the failure,
/// as the lock would have allowed. The flag publishes no other data.
#[derive(Debug)]
struct Breaker {
    clean: AtomicBool,
    breaker: Mutex<CircuitBreaker>,
}

impl Breaker {
    fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            clean: AtomicBool::new(true),
            breaker: Mutex::new(CircuitBreaker::new(policy)),
        }
    }

    /// Whether a launch may go ahead. `now` is read only when the
    /// breaker is not clean.
    fn allows(&self, now: impl FnOnce() -> SimTime) -> bool {
        self.clean.load(Ordering::Relaxed) || self.breaker.lock().allows(now())
    }

    /// Record how a call ended. `now` is read only when the record can
    /// change the breaker.
    fn record(&self, success: bool, now: impl FnOnce() -> SimTime) {
        if success && self.clean.load(Ordering::Relaxed) {
            return;
        }
        let mut breaker = self.breaker.lock();
        breaker.record(success, now());
        // A success leaves a closed breaker with no failures counted.
        let clean = success && breaker.state() == BreakerState::Closed;
        self.clean.store(clean, Ordering::Relaxed);
    }
}

/// Lock-free per-version health: lifetime counters the supervisor
/// differences into per-window readings, plus the quarantine flags the
/// execution path consults before every invocation.
#[derive(Debug)]
struct VersionHealth {
    quarantined: Vec<AtomicBool>,
    attempts: Vec<AtomicU64>,
    failures: Vec<AtomicU64>,
    sheds: Vec<AtomicU64>,
}

impl VersionHealth {
    fn new(versions: usize) -> Self {
        VersionHealth {
            quarantined: (0..versions).map(|_| AtomicBool::new(false)).collect(),
            attempts: (0..versions).map(|_| AtomicU64::new(0)).collect(),
            failures: (0..versions).map(|_| AtomicU64::new(0)).collect(),
            sheds: (0..versions).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Mutable supervisor state behind one lock: the automaton, the rules
/// a rollback restores, last-seen health counters (for per-window
/// deltas), and the decision log.
struct SupervisorRuntime {
    automaton: Supervisor,
    setup: SupervisorSetup,
    /// The rules that were live before the current canary's swap.
    saved_rules: Option<Vec<RoutingRules>>,
    last_attempts: Vec<u64>,
    last_failures: Vec<u64>,
    last_sheds: Vec<u64>,
    quarantines: u64,
    swaps: u64,
    rollbacks: u64,
    commits: u64,
    regen_failures: u64,
    log: Vec<String>,
}

/// Live supervisor facts for `/metrics` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorStatus {
    /// Monotonic revision of the live routing rules (1 at startup,
    /// bumped by every hot-swap).
    pub rules_revision: u64,
    /// Whether a canary swap is being judged right now.
    pub in_canary: bool,
    /// Versions currently quarantined, ascending.
    pub quarantined: Vec<usize>,
    /// Quarantine decisions executed (rules regenerated and swapped).
    pub quarantines: u64,
    /// Successful rule hot-swaps (quarantine canaries installed).
    pub swaps: u64,
    /// Canaries rolled back because SLO violations worsened.
    pub rollbacks: u64,
    /// Canaries committed.
    pub commits: u64,
    /// Quarantines abandoned because rule regeneration failed.
    pub regen_failures: u64,
    /// Sentinel windows the automaton has judged.
    pub windows_observed: u64,
    /// Human-readable transition log, oldest first.
    pub log: Vec<String>,
}

/// The tiered compute service.
pub struct ComputeService {
    matrix: Arc<ProfileMatrix>,
    /// The live deployment — routing rules and everything derived
    /// from them — shared with `admission` and `obs`; a rules hot-swap
    /// publishes a new table here and nowhere else.
    tiers: Arc<LiveTiers>,
    config: ServiceConfig,
    pool: WorkerPool<FaultOutcome>,
    /// Per version; empty when breakers are off.
    breakers: Arc<[Breaker]>,
    faults: Option<Arc<Mutex<FaultPlan>>>,
    obs: Option<Arc<Observability>>,
    admission: Arc<AdmissionController>,
    health: Arc<VersionHealth>,
    supervisor: Option<Mutex<SupervisorRuntime>>,
    /// Continuous capacity planning, when `config.planner` is set and
    /// observability is on (the planner reads the telemetry fold).
    capacity: Option<Mutex<PlannerRuntime>>,
    /// The tuner's batch formation-deadline scale, per-mille of the
    /// configured deadline; read per-request on the batched path.
    batch_slack_permille: AtomicU32,
    /// Forecast-mix rule regenerations executed by the planner.
    mix_regens: AtomicU64,
    rules_revision: AtomicU64,
    /// Fleet-wide rules-epoch stamp this node last adopted. Standalone
    /// servers track `rules_revision`; fleet nodes are set by the
    /// control plane's broadcast, and a node whose epoch falls behind
    /// the fleet's is serving stale rules.
    rules_epoch: AtomicU64,
    accounts: Arc<Accounts>,
    started: Instant,
    /// Retries, degradation, and the cheapest-first re-route order.
    recovery: Recovery,
    /// The request-coalescing queue, when `config.batch.enabled`.
    batcher: Option<Batcher>,
}

impl std::fmt::Debug for ComputeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputeService")
            .field("versions", &self.matrix.versions())
            .field("payloads", &self.matrix.requests())
            .finish_non_exhaustive()
    }
}

impl ComputeService {
    /// Assemble a service over a profiled deployment.
    ///
    /// # Panics
    ///
    /// Panics if a configured fault plan does not cover every version,
    /// or the retry, admission, or supervisor policies are invalid.
    pub fn new(
        matrix: Arc<ProfileMatrix>,
        frontend: TieredFrontend,
        config: ServiceConfig,
    ) -> Self {
        if let Some(plan) = &config.faults {
            assert_eq!(
                plan.pools(),
                matrix.versions(),
                "fault plan must cover every version pool"
            );
        }
        config.retry.validate().expect("retry policy must be valid");
        let versions = matrix.versions();
        let breakers: Vec<Breaker> = match config.breaker {
            Some(policy) => (0..versions).map(|_| Breaker::new(policy)).collect(),
            None => Vec::new(),
        };
        // One monotonic anchor rules the breakers, the spans, and the
        // sentinel windows.
        let started = Instant::now();
        let table = TierTable::build(&matrix, frontend, &config.schedule, &config.obs, None);
        let tiers = Arc::new(LiveTiers::new(Arc::new(table)));
        let obs = config
            .obs
            .enabled
            .then(|| Arc::new(Observability::new(&config.obs, started, Arc::clone(&tiers))));
        let admission = Arc::new(AdmissionController::new(
            config.admission,
            Arc::clone(&tiers),
        ));
        let supervisor = config.supervisor.clone().map(|setup| {
            Mutex::new(SupervisorRuntime {
                automaton: Supervisor::new(setup.policy, versions),
                setup,
                saved_rules: None,
                last_attempts: vec![0; versions],
                last_failures: vec![0; versions],
                last_sheds: vec![0; versions],
                quarantines: 0,
                swaps: 0,
                rollbacks: 0,
                commits: 0,
                regen_failures: 0,
                log: Vec::new(),
            })
        });
        let capacity = config
            .planner
            .clone()
            .filter(|_| obs.is_some())
            .map(|setup| {
                Mutex::new(PlannerRuntime {
                    planner: Planner::new(
                        setup.planner.clone(),
                        config.obs.window.as_micros().max(1) as u64,
                        config.model_workers.max(1),
                    ),
                    tuner: Tuner::new(setup.tuner.clone()),
                    setup,
                    windows: 0,
                    log: Vec::new(),
                })
            });
        ComputeService {
            pool: WorkerPool::new(config.model_workers.max(1)),
            capacity,
            batch_slack_permille: AtomicU32::new(1000),
            mix_regens: AtomicU64::new(0),
            breakers: breakers.into(),
            faults: config.faults.clone().map(|p| Arc::new(Mutex::new(p))),
            accounts: Arc::new(Accounts {
                matrix: Arc::clone(&matrix),
                shards: Shards::new(Ledgered::new),
                obs: obs.clone(),
                served: AtomicUsize::new(0),
                instance: InstanceType::cpu_node(),
                started,
            }),
            obs,
            admission,
            health: Arc::new(VersionHealth::new(versions)),
            supervisor,
            rules_revision: AtomicU64::new(1),
            rules_epoch: AtomicU64::new(1),
            started,
            recovery: Recovery::new(&matrix, config.retry, config.degrade),
            batcher: config
                .batch
                .enabled
                .then(|| Batcher::new(&config.batch, config.latency_scale)),
            matrix,
            tiers,
            config,
        }
    }

    /// The profiled deployment this service answers from.
    pub fn matrix(&self) -> &ProfileMatrix {
        &self.matrix
    }

    /// The same matrix, for a continuation that outlives the borrow
    /// of the service (a batched `/compute` names its answering
    /// version when it finishes on an executor).
    pub(crate) fn shared_matrix(&self) -> &Arc<ProfileMatrix> {
        &self.matrix
    }

    /// A clone of the live routing frontend. The supervisor may
    /// hot-swap the rules; the clone reflects the state at call time.
    pub fn frontend(&self) -> TieredFrontend {
        self.tiers.read().frontend.clone()
    }

    /// The tier serving an annotation pair, on the live deployment: resolved
    /// once per request, at the door, and handed to every layer.
    pub fn resolve(&self, objective: Objective, tolerance: Tolerance) -> Tier {
        self.tiers.read().resolve(objective, tolerance.value())
    }

    /// The adaptive admission controller: pressure guard, AIMD window
    /// ticks, shed/brownout tallies.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Monotonic revision of the live routing rules (1 at startup,
    /// bumped by every supervisor hot-swap).
    pub fn rules_revision(&self) -> u64 {
        self.rules_revision.load(Ordering::SeqCst)
    }

    /// The rules epoch this node currently serves under. Every
    /// response is stamped with it; a front tier fences nodes whose
    /// stamp trails the fleet epoch.
    pub fn rules_epoch(&self) -> u64 {
        self.rules_epoch.load(Ordering::SeqCst)
    }

    /// This node's id within its fleet (0 standalone).
    pub fn node_id(&self) -> usize {
        self.config.node_id
    }

    /// Adopt control-plane routing rules under an explicit fleet
    /// epoch: the node publishes their tier table and from now on
    /// stamps responses with `epoch`. This is the broadcast path a fleet's control plane
    /// uses; local supervisor hot-swaps go through the same
    /// installation but derive the epoch themselves.
    pub fn adopt_rules(&self, frontend: TieredFrontend, epoch: u64) {
        self.install(frontend);
        self.rules_epoch.store(epoch, Ordering::SeqCst);
        // Fence the shared result cache to the broadcast epoch: any
        // pre-epoch answer is purged before this node serves under the
        // new stamp (`install` already purged to its locally derived
        // epoch; this re-purge is a no-op unless the fleet epoch is
        // ahead).
        self.purge_cache_to(epoch);
        if let Some(obs) = &self.obs {
            obs.event(
                "epoch_adopt",
                format!("node {} adopted rules epoch {epoch}", self.node_id()),
            );
        }
    }

    /// Re-stamp this node to `epoch` without touching the live rules
    /// (used when a broadcast carries an epoch bump but the rules the
    /// node already serves are current, e.g. after a control-path
    /// partition heals and the fleet re-asserts its epoch).
    pub fn set_rules_epoch(&self, epoch: u64) {
        self.rules_epoch.store(epoch, Ordering::SeqCst);
    }

    /// The price schedule requests are billed against.
    pub fn schedule(&self) -> &TierPriceSchedule {
        &self.config.schedule
    }

    /// Wall-clock instant the service started.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Live observability, when `config.obs.enabled`.
    pub fn observability(&self) -> Option<&Arc<Observability>> {
        self.obs.as_ref()
    }

    /// Microseconds since the service started — the span timestamp
    /// base.
    pub(crate) fn wall_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    fn allows(&self, version: usize) -> bool {
        !self.health.quarantined[version].load(Ordering::SeqCst)
            && self
                .breakers
                .get(version)
                .is_none_or(|b| b.allows(|| self.now()))
    }

    /// Breaker admission for a request's [`ResilientWalk`]: whether
    /// `version` may run now. A refusal is demand the version's breaker
    /// (or quarantine) turned away — the supervisor's failure-by-proxy
    /// signal — and marks the request's span.
    fn admit_launch(&self, version: usize, span: Option<(&TraceHandle, u32)>) -> bool {
        let admitted = self.allows(version);
        if !admitted {
            self.health.sheds[version].fetch_add(1, Ordering::SeqCst);
            if let Some((handle, parent)) = span {
                handle.attr_str(parent, "breaker", "shed");
            }
        }
        admitted
    }

    /// Record a call that ended with `fault` on its version's breaker
    /// and in the fault tallies.
    fn book(&self, version: usize, fault: FaultOutcome) {
        if let Some(b) = self.breakers.get(version) {
            b.record(fault.completion().is_usable(), || self.now());
        }
        match fault {
            FaultOutcome::None => {}
            FaultOutcome::Straggler { .. } => {
                self.accounts.shards.local().stats.slow_invocations += 1
            }
            FaultOutcome::Crash { .. } | FaultOutcome::Transient => {
                self.accounts.shards.local().stats.failed_invocations += 1;
                self.health.failures[version].fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Book a call that ended and report it to its request.
    fn observe(
        &self,
        request: &mut ResilientWalk<'_>,
        slot: Slot,
        (fault, confidence): (FaultOutcome, f64),
    ) {
        self.book(request.version(slot), fault);
        if fault.completion().is_usable() {
            request.landed(slot, confidence);
        } else {
            request.failed(slot);
        }
    }

    /// Run a launch the walk made after it answered (a sequential
    /// finish-out's later stage) on the pool, unwaited: the walk has
    /// already accounted it and ignores how it ends, so it is booked
    /// as it drew and its `model_call` span opens and closes now,
    /// `detached`. A call with no time to sleep has nothing left to run.
    fn detach(
        &self,
        version: usize,
        obs: Observation,
        fault: FaultOutcome,
        span: Option<(&TraceHandle, u32, u32)>,
    ) {
        self.book(version, fault);
        if let Some((handle, parent, attempt)) = span {
            let now = self.wall_us();
            handle.edit(|t| {
                let id = t.open("model_call", Some(parent), now);
                t.attr_int(id, "version", version as i64);
                t.attr_int(id, "attempt", i64::from(attempt));
                t.attr_str(id, "outcome", "detached");
                t.close(id, now);
            });
        }
        let (started, scale) = (self.started, self.config.latency_scale);
        let occupancy = fault.occupancy(SimDuration::from_micros(obs.latency_us));
        if scale > 0.0 && occupancy > SimDuration::ZERO {
            let call = move || model_call(started, scale, version, obs, fault, None);
            drop(self.pool.submit(Box::new(call)));
        }
    }

    /// Drive `opened`'s [`ResilientWalk`] on the worker pool, under the
    /// breakers and the fault plan. A launch draws its fault when it
    /// launches and runs on this thread; a second launch at once (a
    /// concurrent cascade's accurate stage) runs on a pool worker, where
    /// an early-terminating answer can cancel it. A launch after the
    /// answer runs on the pool and is not waited for. A retry sleeps its
    /// backoff. A call is booked when it ends here: a cancelled one
    /// never, one still running or launched after the answer as it drew.
    /// Returns what the request accounted, or `None` if it dropped.
    fn run_policy(
        &self,
        opened: &Opened,
        span: Option<(&TraceHandle, u32)>,
    ) -> Option<StageOutcome> {
        let row = self.matrix.request_row(opened.payload);
        let mut request = ResilientWalk::new(
            opened.policy,
            row,
            opened.declared_tolerance,
            &self.recovery,
        );
        let (started, scale) = (self.started, self.config.latency_scale);
        let mut pooled = None;
        // The current re-route's `degrade` span: (version, id).
        let mut hop: Option<(usize, u32)> = None;
        loop {
            let (mut inline, mut backoff) = (None, None);
            while let Some(step) = request.poll(|version| self.admit_launch(version, span)) {
                match step {
                    Step::Launch { slot, version } => {
                        self.health.attempts[version].fetch_add(1, Ordering::SeqCst);
                        let fault = self
                            .faults
                            .as_ref()
                            .map_or(FaultOutcome::None, |plan| plan.lock().draw(version));
                        let parent = span.map(|(handle, root)| {
                            if slot != Slot::Reroute {
                                return (handle, root);
                            }
                            if hop.map(|(v, _)| v) != Some(version) {
                                let id = handle.edit(|t| {
                                    if let Some((_, id)) = hop {
                                        t.attr_str(id, "outcome", "failed");
                                        t.close(id, self.wall_us());
                                    }
                                    let id = t.open("degrade", Some(root), self.wall_us());
                                    t.attr_int(id, "from", request.rerouted_from() as i64);
                                    t.attr_int(id, "to", version as i64);
                                    id
                                });
                                hop = Some((version, id));
                            }
                            (handle, hop.map_or(root, |(_, id)| id))
                        });
                        let call_span =
                            parent.map(|(handle, id)| (handle, id, request.attempt(slot)));
                        let obs = row[version];
                        if request.answered_by().is_some() {
                            self.detach(version, obs, fault, call_span);
                        } else if inline.is_none() {
                            inline = Some((slot, version, obs, fault, call_span));
                        } else {
                            let span = call_span.map(|(h, parent, n)| (h.clone(), parent, n));
                            let call = Box::new(move || {
                                let span = span.as_ref().map(|(h, parent, n)| (h, *parent, *n));
                                model_call(started, scale, version, obs, fault, span)
                            });
                            pooled = Some((slot, fault, self.pool.submit_cancellable(call)));
                        }
                    }
                    Step::Cancel(slot) => {
                        if let Some((_, _, (_, cancel))) = pooled.take_if(|(s, ..)| *s == slot) {
                            cancel.store(true, Ordering::Relaxed);
                        }
                    }
                    Step::Retry { slot, delay, .. } => backoff = Some((slot, delay)),
                    Step::Answer { .. } | Step::Drop => {}
                }
            }
            if let Some((slot, version, obs, fault, call_span)) = inline {
                let ended = self
                    .pool
                    .run_inline(|| model_call(started, scale, version, obs, fault, call_span));
                self.observe(&mut request, slot, ended);
            } else if let Some((slot, delay)) = backoff {
                if delay > SimDuration::ZERO {
                    std::thread::sleep(std::time::Duration::from_secs_f64(delay.as_secs_f64()));
                }
                request.retry_due(slot);
            } else if let Some((slot, _, (reply, _))) =
                pooled.take_if(|_| request.answered_by().is_none())
            {
                match reply.recv() {
                    Ok(ended) => self.observe(&mut request, slot, ended),
                    Err(_) => request.failed(slot),
                }
            } else {
                break;
            }
        }
        if let Some((slot, fault, _)) = pooled {
            self.book(request.version(slot), fault);
        }
        if let (Some((handle, _)), Some((_, id))) = (span, hop) {
            let served = request.answered_by().is_some();
            handle.edit(|t| {
                t.attr_str(id, "outcome", if served { "served" } else { "failed" });
                t.close(id, self.wall_us());
            });
        }
        if request.eventful() {
            self.accounts.shards.local().stats.record(&request);
        }
        StageOutcome::of(&request)
    }

    /// Serve one annotated request end to end: route, execute
    /// resiliently, bill, trace.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unavailable`] when no version could answer.
    pub fn execute(&self, request: &ServiceRequest) -> Result<ComputeOutcome, ServiceError> {
        self.execute_shaped(request, None, None)
    }

    /// [`ComputeService::execute`] with request-scoped tracing and
    /// under an admission verdict. When a [`TraceHandle`] is supplied,
    /// the request's journey — routing, every model invocation (across
    /// the worker-pool hand-off), retries, degradation, billing — is
    /// recorded as timed child spans on it. When `brownout` is
    /// `Some((policy, billed_tolerance, level))`, the request is
    /// served on that substitute plan instead of the frontend's route,
    /// and billed — in the ledger, the per-tier economics, and the
    /// per-tier telemetry — at the tier actually served. The declared
    /// tolerance still governs the degradation-violation check: a
    /// brownout never loosens the customer's contract, only the plan
    /// used to honor it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unavailable`] when no version could answer.
    pub fn execute_shaped(
        &self,
        request: &ServiceRequest,
        brownout: Option<(Policy, f64, BrownoutLevel)>,
        trace: Option<&TraceHandle>,
    ) -> Result<ComputeOutcome, ServiceError> {
        self.execute_tier(request, self.tier_of(request), brownout, trace)
    }

    fn tier_of(&self, request: &ServiceRequest) -> Tier {
        self.resolve(request.objective, request.tolerance)
    }

    /// [`ComputeService::execute_shaped`] for a request whose tier is
    /// already resolved.
    pub(crate) fn execute_tier(
        &self,
        request: &ServiceRequest,
        tier: Tier,
        brownout: Option<(Policy, f64, BrownoutLevel)>,
        trace: Option<&TraceHandle>,
    ) -> Result<ComputeOutcome, ServiceError> {
        let opened = self.open_request(request, tier, brownout, trace, true);
        self.run_opened(opened, trace)
    }

    /// The execute prologue, once for every way a request is answered
    /// (live walk, batched flush, cache hit): stamp the arrival, count
    /// the request, open its `execute` span, and take the plan and the
    /// billed tier from the brownout verdict or the request's tier.
    /// Executed requests (`routed`) also record the plan as a `route`
    /// span; a cache hit's tree shows a `cache` span instead.
    fn open_request(
        &self,
        request: &ServiceRequest,
        tier: Tier,
        brownout: Option<(Policy, f64, BrownoutLevel)>,
        trace: Option<&TraceHandle>,
        routed: bool,
    ) -> Opened {
        let arrival = self.now();
        self.accounts.shards.local().stats.total_requests += 1;
        let payload = request.payload % self.matrix.requests().max(1);
        // The root and, for an executed request, its `route` child open
        // under one lock.
        let spans = trace.map(|handle| {
            handle.edit(|t| {
                let id = t.open("execute", None, self.wall_us());
                t.attr_str(id, "objective", request.objective.name());
                t.attr_int(
                    id,
                    "tolerance_milli",
                    (request.tolerance.value() * 1000.0).round() as i64,
                );
                t.attr_int(id, "payload", payload as i64);
                (
                    id,
                    routed.then(|| t.open("route", Some(id), self.wall_us())),
                )
            })
        });
        let root = spans.map(|(root, _)| root);
        let route_span = trace.zip(spans.and_then(|(_, route)| route));
        // A brownout's billed tier is looked up on the request's own
        // table generation, not the live one.
        let (policy, rebilled) = match brownout {
            Some((policy, billed, _)) => (policy, Some(tier.rebill(billed))),
            None => (tier.policy, None),
        };
        policy
            .validate(self.matrix.versions())
            .expect("frontend produced a valid policy");
        if let Some((handle, id)) = route_span {
            // The billed entry's policy was rendered when its table was
            // built; only a rewritten brownout plan is rendered here.
            let billed = rebilled.as_ref().unwrap_or(&tier);
            handle.edit(|t| {
                if policy == billed.policy {
                    t.attr_text(id, "policy", billed.policy_text.as_str());
                } else {
                    t.attr_text(id, "policy", format_args!("{policy:?}"));
                }
                if let Some((_, _, level)) = brownout {
                    t.attr_str(id, "brownout", level.label());
                }
                t.close(id, self.wall_us());
            });
        }
        Opened {
            tier,
            rebilled,
            declared_tolerance: request.tolerance.value(),
            brownout: brownout.map(|(_, _, level)| level),
            policy,
            payload,
            arrival,
            root,
        }
    }

    /// Walk an opened request's policy on the worker pool and settle
    /// it, or count it dropped.
    fn run_opened(
        &self,
        opened: Opened,
        trace: Option<&TraceHandle>,
    ) -> Result<ComputeOutcome, ServiceError> {
        let span = trace.zip(opened.root);
        if let Some(stage) = self.run_policy(&opened, span) {
            return Ok(self.accounts.settle(opened, stage, trace));
        }
        if let Some(obs) = &self.obs {
            obs.record_dropped(&opened.tier);
        }
        if let Some((handle, id)) = span {
            handle.edit(|t| {
                t.attr_str(id, "outcome", "unavailable");
                t.close(id, self.wall_us());
            });
        }
        Err(ServiceError::Unavailable)
    }

    /// The semantic result cache, when one is configured.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.config.cache.as_ref()
    }

    /// Try to answer `request` from the semantic result cache. A hit
    /// is settled through the same [`Accounts::settle`] as an executed
    /// request — billed at the declared tier with the price the miss
    /// path would have charged, traced, and counted — but with zero
    /// model invocations and zero accounted busy time: the ledger's
    /// compute side is where the cache's savings show up, while
    /// per-tier billed totals stay bit-identical across cache on/off.
    ///
    /// `fingerprint` is the FNV-1a hash of the raw request body (the
    /// bit-equal identity strict requests demand). Brownout-shaped
    /// requests must not reach this method — the caller routes them
    /// straight to execution as a bypass.
    pub fn cache_serve(
        &self,
        request: &ServiceRequest,
        fingerprint: u64,
        trace: Option<&TraceHandle>,
    ) -> CacheServed {
        self.cache_serve_tier(request, &self.tier_of(request), fingerprint, trace)
    }

    /// [`ComputeService::cache_serve`] for a request whose tier is
    /// already resolved.
    pub(crate) fn cache_serve_tier(
        &self,
        request: &ServiceRequest,
        tier: &Tier,
        fingerprint: u64,
        trace: Option<&TraceHandle>,
    ) -> CacheServed {
        let Some(cache) = &self.config.cache else {
            // No cache configured: not a bypass worth counting —
            // cache-off deployments keep empty cache metrics.
            return CacheServed::Bypass;
        };
        let epoch = self.rules_epoch();
        let payload = request.payload % self.matrix.requests().max(1);
        let key = semantic_key(request.objective, payload);
        let tolerance_milli = (request.tolerance.value() * 1000.0).round() as u32;
        let (answer, exact) = match cache.lookup(key, fingerprint, tolerance_milli, epoch) {
            Lookup::Stale => {
                // Epoch-fenced: this node must not serve (or refresh)
                // pre-epoch answers, so the request bypasses the cache
                // entirely.
                self.note_cache_event(tier, CacheEvent::Bypass);
                return CacheServed::Bypass;
            }
            Lookup::Miss => {
                self.note_cache_event(tier, CacheEvent::Miss);
                return CacheServed::Miss;
            }
            Lookup::Exact(answer) => (answer, true),
            Lookup::Semantic(answer) => (answer, false),
        };

        // Bill exactly what the miss path would bill: the declared
        // tier and its policy (brownouts never reach here) — only the
        // execution facts are synthetic.
        let opened = self.open_request(request, tier.clone(), None, trace, false);
        if let Some((handle, parent)) = trace.zip(opened.root) {
            handle.edit(|t| {
                let id = t.open("cache", Some(parent), self.wall_us());
                t.attr_str(id, "match", if exact { "exact" } else { "semantic" });
                t.attr_int(id, "answered_by", answer.answered_by as i64);
                t.close(id, self.wall_us());
            });
        }
        let outcome = self.accounts.settle(
            opened,
            StageOutcome {
                answered_by: answer.answered_by,
                sim_latency_us: CACHE_HIT_SIM_LATENCY_US,
                ..StageOutcome::default()
            },
            trace,
        );
        self.note_cache_event(
            tier,
            if exact {
                CacheEvent::HitExact
            } else {
                CacheEvent::HitSemantic
            },
        );
        CacheServed::Hit { outcome, exact }
    }

    /// Pre-resolve an insert permit for the miss path, capturing the
    /// cache handle, epoch, and the objective's current premium
    /// baseline error (the reference the entry's achieved degradation
    /// is measured against). `None` when no cache is configured or the
    /// seeded admission filter excludes the key.
    pub fn cache_ticket(
        &self,
        request: &ServiceRequest,
        tier: &Tier,
        fingerprint: u64,
    ) -> Option<CacheAdmitTicket> {
        let cache = self.config.cache.as_ref()?;
        let payload = request.payload % self.matrix.requests().max(1);
        let key = semantic_key(request.objective, payload);
        if !cache.admits(key) {
            return None;
        }
        Some(CacheAdmitTicket {
            cache: Arc::clone(cache),
            key,
            fingerprint,
            epoch: self.rules_epoch(),
            baseline_err: self.matrix.get(payload, tier.baseline_version).quality_err,
        })
    }

    /// Count one cache disposition in the per-tier and global
    /// observability counters. The server calls this directly for the
    /// bypasses that never consult the cache (brownout-shaped
    /// requests, client `Cache-Control: no-cache`).
    pub fn note_cache_event(&self, tier: &Tier, event: CacheEvent) {
        if let Some(obs) = &self.obs {
            obs.record_cache(tier, event);
        }
    }

    /// [`ComputeService::execute_shaped`] in continuation-passing
    /// style, with request coalescing: a tolerant, fault-free request
    /// whose plan's versions are all healthy — the frontend's route,
    /// or the substitute plan of a brownout, billed exactly as the
    /// synchronous path bills it — is parked in the batcher to share
    /// one vectorized evaluator pass with compatible in-flight
    /// requests, and `done` runs on a batch executor after the group
    /// flushes. Everything else — a request resolved to a strict
    /// tier ([`crate::tiers::TierEntry::strict`]), configured faults,
    /// tripped breakers, or batching disabled — executes synchronously
    /// and `done` runs before this returns.
    ///
    /// Batch membership is invisible in the result: both arms share
    /// the prologue ([`ComputeService::open_request`]), the policy
    /// walk ([`Walk`]: driven by the pool in
    /// [`ComputeService::run_policy`], here by the profile matrix in
    /// [`Walk::profiled`]) and the settlement ([`Accounts::settle`]),
    /// so response fields and billed totals are bit-identical either
    /// way.
    pub fn execute_shaped_async(
        &self,
        request: &ServiceRequest,
        brownout: Option<(Policy, f64, BrownoutLevel)>,
        trace: Option<&TraceHandle>,
        done: OutcomeSink,
    ) {
        let tier = self.tier_of(request);
        self.execute_tier_async(request, tier, brownout, trace.cloned(), |result, _| {
            done(result);
        });
    }

    /// [`ComputeService::execute_shaped_async`] for a request whose
    /// tier is already resolved. The caller lends the request's trace
    /// handle, and `done` gets it back with the result: an unbatched
    /// request never clones it, so the caller can retire the only
    /// reference.
    pub(crate) fn execute_tier_async(
        &self,
        request: &ServiceRequest,
        tier: Tier,
        brownout: Option<(Policy, f64, BrownoutLevel)>,
        trace: Option<TraceHandle>,
        done: impl FnOnce(Result<ComputeOutcome, ServiceError>, Option<TraceHandle>) + Send + 'static,
    ) {
        let opened = self.open_request(request, tier, brownout, trace.as_ref(), true);
        // The matrix walk stands for the live one only while every
        // version it invoked would have been let through.
        let parked = match (&self.batcher, &self.faults) {
            (Some(batcher), None) if !opened.tier.strict() => {
                let walk = Walk::profiled(&opened.policy, self.matrix.request_row(opened.payload));
                let allowed = walk.invoked().all(|v| self.allows(v));
                allowed.then_some((batcher, walk))
            }
            _ => None,
        };
        let Some((batcher, walk)) = parked else {
            return done(self.run_opened(opened, trace.as_ref()), trace);
        };
        // The tuner's surge knob scales formation deadlines down so
        // tolerant requests stop waiting for batchmates while the
        // system is under pressure.
        let deadline_in = self.config.batch.formation_deadline_scaled(
            request.tolerance.value(),
            self.batch_slack_permille.load(Ordering::SeqCst),
        );

        // The batch span stays open across the hand-off; the executor
        // stamps the group facts and closes it before settling.
        let batch_span = trace
            .as_ref()
            .zip(opened.root)
            .map(|(handle, parent)| handle.open("batch", Some(parent), self.wall_us()));
        let key = (request.objective, opened.policy);
        let stage = StageOutcome {
            answered_by: walk
                .answered_by()
                .expect("a walk with nothing failing answers"),
            sim_latency_us: walk.latency_us(),
            busy_us: walk.busy_us(),
            invocations: walk.invocations(),
            ..StageOutcome::default()
        };
        let sim_latency_us = stage.sim_latency_us;
        let accounts = Arc::clone(&self.accounts);
        let health = Arc::clone(&self.health);
        let breakers = Arc::clone(&self.breakers);
        let finish = Box::new(move |batch_size: u64, waited_us: u64| {
            // The health/breaker bookkeeping the live path does per
            // model call; fault-free, so every invocation succeeds.
            let now = || SimTime::from_micros(accounts.started.elapsed().as_micros() as u64);
            for version in walk.invoked() {
                health.attempts[version].fetch_add(1, Ordering::SeqCst);
                if let Some(b) = breakers.get(version) {
                    b.record(true, now);
                }
            }
            if let (Some(handle), Some(id)) = (&trace, batch_span) {
                handle.edit(|t| {
                    t.attr_int(id, "batch_size", batch_size as i64);
                    t.attr_int(id, "waited_us", waited_us as i64);
                    t.close(id, accounts.wall_us());
                });
            }
            let outcome = accounts.settle(opened, stage, trace.as_ref());
            done(Ok(outcome), trace);
        });
        batcher.enqueue(BatchItem {
            key,
            deadline_in,
            sim_latency_us,
            finish,
        });
    }

    /// Whether compute requests on tiers that are not strict are
    /// guaranteed the deferred (batched) path end to end — meaning
    /// [`ComputeService::execute_shaped_async`] returns without ever
    /// sleeping a simulated model call on the calling thread. True
    /// only on a fault-free service (so breakers never trip and the
    /// synchronous fallback is unreachable) with an active batcher.
    /// The reactor runs such requests inline on its event loop.
    pub(crate) fn batching_prompt(&self) -> bool {
        self.batcher.is_some() && self.faults.is_none()
    }

    /// Decide a request's fate at the current pressure reading. The
    /// caller turns `Reject` into `429 Retry-After` and hands
    /// `Brownout` plans to [`ComputeService::execute_shaped`].
    pub fn admit(&self, request: &ServiceRequest) -> AdmissionDecision {
        self.admission
            .decide(request.objective, request.tolerance.value())
    }

    /// Close one sentinel window for every control loop: the AIMD
    /// limit update, one supervisor judgement, the capacity tuner,
    /// and — every `windows_per_round` windows — one planning round.
    /// The server's event loop calls this when the sentinel window
    /// rolls; deterministic tests drive it directly.
    pub fn on_window(&self) {
        let before = self.admission.limit();
        self.admission.on_window_tick();
        let after = self.admission.limit();
        if before != after {
            if let Some(obs) = &self.obs {
                obs.event("aimd_limit", format!("limit {before} -> {after}"));
            }
        }
        self.supervise();
        self.plan_window();
    }

    /// Feed the supervisor one window of evidence and execute whatever
    /// action comes back.
    fn supervise(&self) {
        let Some(runtime) = &self.supervisor else {
            return;
        };
        let mut rt = runtime.lock();
        let versions = self.matrix.versions();
        let mut windows = Vec::with_capacity(versions);
        for v in 0..versions {
            let attempts = self.health.attempts[v].load(Ordering::SeqCst);
            let failures = self.health.failures[v].load(Ordering::SeqCst);
            let sheds = self.health.sheds[v].load(Ordering::SeqCst);
            windows.push(VersionWindow {
                attempts: attempts - rt.last_attempts[v],
                failures: failures - rt.last_failures[v],
                sheds: sheds - rt.last_sheds[v],
            });
            rt.last_attempts[v] = attempts;
            rt.last_failures[v] = failures;
            rt.last_sheds[v] = sheds;
        }
        let violations = self.obs.as_ref().map_or(0, |o| {
            o.sentinel()
                .verdicts()
                .iter()
                .filter(|v| v.evaluated && !v.in_contract)
                .count() as u32
        });
        let action = rt.automaton.observe(&WindowObservation {
            violations,
            versions: windows,
        });
        match action {
            SupervisorAction::None => {}
            SupervisorAction::Quarantine { version } => self.execute_quarantine(&mut rt, version),
            SupervisorAction::Commit => {
                rt.saved_rules = None;
                rt.commits += 1;
                self.note_transition(&mut rt, "commit", None);
            }
            SupervisorAction::Rollback { version } => self.execute_rollback(&mut rt, version),
        }
    }

    /// Feed both capacity automatons. The tuner closes every window;
    /// the planner closes one round every `windows_per_round` windows.
    /// Both consume the *cumulative* telemetry fold, so their decision
    /// sequences are a pure function of the observed totals — see
    /// [`tt_serve::planner`].
    fn plan_window(&self) {
        let (Some(runtime), Some(obs)) = (&self.capacity, &self.obs) else {
            return;
        };
        let fold = obs.windows().cumulative();
        let mut rt = runtime.lock();
        rt.windows += 1;

        // High-frequency loop: the tuner absorbs what the planner is
        // too slow for.
        let arrivals: u64 = fold.tiers.values().map(|t| t.arrivals).sum();
        let decision = rt.tuner.observe(arrivals, self.admission.limit());
        if let Some(limit) = decision.admission_limit {
            let installed = self.admission.set_limit(limit);
            let line = format!("surge: admission limit boosted to {installed}");
            obs.event("tuner_limit", line.clone());
            rt.log.push(line);
        }
        if let Some(slack) = decision.batch_slack_permille {
            self.batch_slack_permille.store(slack, Ordering::SeqCst);
            let line = format!("batch formation slack -> {slack} permille");
            obs.event("tuner_batch", line.clone());
            rt.log.push(line);
        }

        // Low-frequency loop: one planning round per cadence.
        if rt.windows % rt.planner.config().windows_per_round != 0 {
            return;
        }
        let input = Self::planner_input(&fold);
        let actions = rt.planner.observe(&input);
        for action in actions {
            match action {
                PlannerAction::Forecast {
                    busy_us,
                    mean_service_us,
                    demand_workers,
                } => {
                    obs.event(
                        "planner_forecast",
                        format!(
                            "busy {busy_us}us/round at mean {mean_service_us}us \
                             -> demand {demand_workers} workers"
                        ),
                    );
                }
                PlannerAction::Resize { from, to } => {
                    self.pool.resize(to);
                    let line = format!("workers {from} -> {to}");
                    obs.event("planner_resize", line.clone());
                    rt.log.push(line);
                }
                PlannerAction::Regen { mix, seed } => {
                    let rendered: Vec<String> =
                        mix.iter().map(|(t, p)| format!("{t}={p}")).collect();
                    let line = format!("forecast mix shift [{}]", rendered.join(" "));
                    if self.execute_forecast_regen(&rt.setup, &mix, seed) {
                        self.mix_regens.fetch_add(1, Ordering::SeqCst);
                        obs.event("planner_regen", line.clone());
                        rt.log.push(line);
                    } else {
                        obs.event("planner_regen_failed", line);
                    }
                }
            }
        }
    }

    /// Adapt the telemetry fold into the planner's input contract:
    /// cumulative per-tier arrivals and per-version service totals.
    fn planner_input(fold: &tt_obs::WindowAccum) -> PlannerInput {
        PlannerInput {
            arrivals: fold
                .tiers
                .iter()
                .map(|(tier, w)| (tier.clone(), w.arrivals))
                .collect(),
            service: fold
                .versions
                .iter()
                .map(|(&v, hist)| {
                    (
                        v,
                        ServiceTotals {
                            count: hist.count(),
                            sum_us: hist.sum(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Execute a forecast-mix regen: re-run the threaded rule
    /// generator — with the planner's seed, over the non-quarantined
    /// versions — for every objective present in the forecast mix,
    /// and publish through the same install path supervisor swaps
    /// use (epoch bump, cache purge, observability rebind). Each
    /// objective's deployed tier *set* is preserved, so billing stays
    /// independent of when a regen lands; what changes is the
    /// tolerance→policy mapping, re-derived for the traffic the
    /// forecast expects. Returns false when regeneration fails (the
    /// service keeps serving on the unchanged rules).
    fn execute_forecast_regen(
        &self,
        setup: &PlannerSetup,
        mix: &BTreeMap<String, u64>,
        seed: u64,
    ) -> bool {
        let excluded: Vec<usize> = self
            .supervisor
            .as_ref()
            .map(|rt| rt.lock().automaton.quarantined().collect())
            .unwrap_or_default();
        // An objective with no forecast traffic keeps its rules as
        // deployed.
        let in_forecast = |objective: Objective| {
            let prefix = format!("{objective}/");
            mix.keys().any(|tier| tier.starts_with(&prefix))
        };
        let regenerated = self.regenerate(
            &self.deployed_rules(),
            &excluded,
            setup.rulegen_confidence,
            seed,
            setup.rulegen_threads,
            in_forecast,
        );
        let Some(rules) = regenerated else {
            return false;
        };
        self.install(TieredFrontend::new(rules));
        true
    }

    /// The live routing rules, in objective-name order.
    fn deployed_rules(&self) -> Vec<RoutingRules> {
        let mut rules: Vec<RoutingRules> = self.tiers.read().frontend.rules().cloned().collect();
        rules.sort_by_key(|r| r.objective().to_string());
        rules
    }

    /// Execute a quarantine decision: regenerate routing rules over
    /// the surviving versions, remap them to full-deployment indices,
    /// and hot-swap them in as a canary. A regeneration failure aborts
    /// the quarantine (the automaton withdraws it and cools down) —
    /// the service keeps serving on the unchanged rules.
    fn execute_quarantine(&self, rt: &mut SupervisorRuntime, version: usize) {
        let excluded: Vec<usize> = rt.automaton.quarantined().collect();
        let current = self.deployed_rules();
        let setup = &rt.setup;
        let regenerated = self.regenerate(
            &current,
            &excluded,
            setup.rulegen_confidence,
            setup.rulegen_seed,
            setup.rulegen_threads,
            |_| true,
        );
        match regenerated {
            Some(rules) => {
                self.health.quarantined[version].store(true, Ordering::SeqCst);
                rt.saved_rules = Some(current);
                self.install(TieredFrontend::new(rules));
                rt.quarantines += 1;
                rt.swaps += 1;
                self.note_transition(rt, "quarantine", Some(version));
            }
            None => {
                rt.automaton.abort_canary();
                rt.regen_failures += 1;
                let window = rt.automaton.windows_observed();
                rt.log
                    .push(format!("window {window} regen-failed v{version}"));
            }
        }
    }

    /// The one rule regeneration the control plane runs: the threaded
    /// generator over the versions not `excluded`, at `confidence`
    /// and `seed`, re-derives the rules of every objective `regen`
    /// selects over its deployed tier tolerances, remapped back to
    /// full-deployment version indices; the other objectives keep
    /// their `current` rules. `None` when any generation fails.
    fn regenerate(
        &self,
        current: &[RoutingRules],
        excluded: &[usize],
        confidence: f64,
        seed: u64,
        threads: usize,
        regen: impl Fn(Objective) -> bool,
    ) -> Option<Vec<RoutingRules>> {
        let (sub, map) = self.matrix.without_versions(excluded).ok()?;
        let generator =
            RoutingRuleGenerator::with_defaults_threaded(&sub, confidence, seed, threads).ok()?;
        let mut out = Vec::with_capacity(current.len());
        for rules in current {
            if !regen(rules.objective()) {
                out.push(rules.clone());
                continue;
            }
            let tolerances: Vec<f64> = rules.tiers().iter().map(|&(t, _)| t).collect();
            let fresh = generator.generate(&tolerances, rules.objective()).ok()?;
            out.push(fresh.map_versions(&map));
        }
        Some(out)
    }

    /// Restore the pre-canary rules and lift the quarantine.
    fn execute_rollback(&self, rt: &mut SupervisorRuntime, version: usize) {
        self.health.quarantined[version].store(false, Ordering::SeqCst);
        if let Some(saved) = rt.saved_rules.take() {
            self.install(TieredFrontend::new(saved));
        }
        rt.rollbacks += 1;
        self.note_transition(rt, "rollback", Some(version));
    }

    /// Make `frontend` the live deployment: build its tier table over
    /// the live one (so every tier key seen before keeps its sinks),
    /// rebase the new sentinel so its first window judges only
    /// post-swap traffic, and publish with one store — a request
    /// resolves against the old table or the new, never a mix.
    fn install(&self, frontend: TieredFrontend) {
        let live = Arc::clone(&self.tiers.read());
        let (schedule, targets) = (&self.config.schedule, &self.config.obs);
        let table = TierTable::build(&self.matrix, frontend, schedule, targets, Some(&live));
        table.sentinel.rebase(self.wall_us());
        let retired = std::mem::replace(&mut *self.tiers.write(), Arc::new(table));
        if let Some(obs) = &self.obs {
            obs.retire(&retired);
        }
        let revision = self.rules_revision.fetch_add(1, Ordering::SeqCst) + 1;
        // A local hot-swap is a new rules generation for this node; in
        // a fleet the control plane overwrites this stamp when it
        // rebroadcasts the swap cluster-wide.
        let epoch = self.rules_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Purge *before* any request can route on the new rules and
        // look up under the new epoch: answers computed under the old
        // rules must never satisfy a post-swap request.
        self.purge_cache_to(epoch);
        if let Some(obs) = &self.obs {
            obs.event(
                "rules_install",
                format!("rules revision {revision} live under epoch {epoch}"),
            );
        }
    }

    /// Advance the result cache's epoch fence (clearing it) when a
    /// cache is configured. Monotonic and idempotent, so every node
    /// sharing the cache may call it on adopt.
    fn purge_cache_to(&self, epoch: u64) {
        if let Some(cache) = &self.config.cache {
            cache.purge_to_epoch(epoch);
            if let Some(obs) = &self.obs {
                obs.event("cache_purge", format!("cache fenced to epoch {epoch}"));
            }
        }
    }

    /// Record one executed transition: a `supervisor` span on the
    /// tracer (kind, version, rules revision, window) and a rendered
    /// line in the decision log.
    fn note_transition(
        &self,
        rt: &mut SupervisorRuntime,
        kind: &'static str,
        version: Option<usize>,
    ) {
        let window = rt.automaton.windows_observed();
        let revision = self.rules_revision.load(Ordering::SeqCst);
        if let Some(obs) = &self.obs {
            let tracer = obs.tracer();
            let handle = tracer.begin();
            let id = handle.open("supervisor", None, self.wall_us());
            handle.attr_str(id, "kind", kind);
            if let Some(v) = version {
                handle.attr_int(id, "version", v as i64);
            }
            handle.attr_int(id, "rules_revision", revision as i64);
            handle.attr_int(id, "window", window as i64);
            handle.close(id, self.wall_us());
            tracer.finish(&handle);
        }
        let line = match version {
            Some(v) => format!("window {window} {kind} v{v} (rules rev {revision})"),
            None => format!("window {window} {kind} (rules rev {revision})"),
        };
        if let Some(obs) = &self.obs {
            obs.event("supervisor", line.clone());
        }
        rt.log.push(line);
    }

    /// Supervisor state for `/metrics` and tests; `None` when the
    /// supervisor is disabled.
    pub fn supervisor_status(&self) -> Option<SupervisorStatus> {
        let runtime = self.supervisor.as_ref()?;
        let rt = runtime.lock();
        Some(SupervisorStatus {
            rules_revision: self.rules_revision(),
            in_canary: rt.automaton.in_canary(),
            quarantined: rt.automaton.quarantined().collect(),
            quarantines: rt.quarantines,
            swaps: rt.swaps,
            rollbacks: rt.rollbacks,
            commits: rt.commits,
            regen_failures: rt.regen_failures,
            windows_observed: rt.automaton.windows_observed(),
            log: rt.log.clone(),
        })
    }

    /// Capacity-planner state for `/planner` and tests; `None` when
    /// planning is disabled.
    pub fn capacity_status(&self) -> Option<CapacityStatus> {
        let runtime = self.capacity.as_ref()?;
        let rt = runtime.lock();
        Some(CapacityStatus {
            planner: rt.planner.status(),
            windows: rt.windows,
            surging: rt.tuner.surging(),
            nudges: rt.tuner.nudges(),
            batch_slack_permille: self.batch_slack_permille.load(Ordering::SeqCst),
            pool_workers: self.pool.workers(),
            mix_regens: self.mix_regens.load(Ordering::SeqCst),
            log: rt.log.clone(),
        })
    }

    /// Workers the model-execution pool currently provisions (the
    /// planner live-resizes this).
    pub fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Requests answered so far.
    pub fn served(&self) -> usize {
        self.accounts.served.load(Ordering::SeqCst)
    }

    /// A consistent snapshot of the trace, resilience counters, and
    /// billing, folded from every settle shard in slot order.
    pub fn snapshot(&self) -> ServiceSnapshot {
        // Every shard at once: one cut through the books.
        let shards: Vec<_> = self.accounts.shards.each().collect();
        let mut busy_us = 0;
        let mut billed: BTreeMap<(&'static str, u32, u64), u64> = BTreeMap::new();
        let mut resilience = ResilienceStats::default();
        for shard in &shards {
            busy_us += shard.busy_us;
            for (&key, &requests) in &shard.billed {
                *billed.entry(key).or_insert(0) += requests;
            }
            resilience.merge(&shard.stats);
        }
        let trace = TraceRecorder::folded(shards.iter().map(|shard| &shard.trace));
        drop(shards);
        // Bill from the request counts, not the event trace: a bounded
        // trace evicts events, the counts never lose a billed request.
        // Each price's charges total as a running sum would, so a tier
        // bills `requests` charges of its price to the bit.
        let mut tiers: BTreeMap<(String, u32), TierEconomics> = BTreeMap::new();
        for ((objective, milli, price), requests) in billed {
            let econ = tiers
                .entry((objective.to_string(), milli))
                .or_insert(TierEconomics {
                    requests: 0,
                    revenue: Money::ZERO,
                });
            econ.requests += requests as usize;
            econ.revenue += Money::from_dollars(f64::from_bits(price)).repeated(requests);
        }
        // Busy time is summed in whole µs and priced once.
        let compute_cost = self
            .accounts
            .instance
            .cost_of(SimDuration::from_micros(busy_us));
        ServiceSnapshot {
            served: self.served(),
            trace,
            resilience,
            billing: BillingReport::from_parts(tiers, compute_cost),
            cache: self.config.cache.as_ref().map(|c| c.stats()),
        }
    }
}

#[cfg(test)]
use tt_core::policy::{Scheduling, Termination};

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::objective::Objective;
    use tt_core::profile::{Observation, ProfileMatrixBuilder};
    use tt_core::request::Tolerance;
    use tt_core::rulegen::RoutingRuleGenerator;
    use tt_sim::FaultRates;

    fn matrix() -> Arc<ProfileMatrix> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "accurate".into()]);
        for _ in 0..120 {
            let hard: f64 = rng.gen();
            let fast_wrong = hard > 0.7;
            b.push_request(vec![
                Observation {
                    quality_err: if fast_wrong { 1.0 } else { 0.0 },
                    latency_us: 8_000,
                    cost: 0.0,
                    confidence: if fast_wrong { 0.2 } else { 0.9 },
                },
                Observation {
                    quality_err: if hard > 0.93 { 1.0 } else { 0.0 },
                    latency_us: 30_000,
                    cost: 0.0,
                    confidence: 0.9,
                },
            ]);
        }
        Arc::new(b.build().unwrap())
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

    fn service(config: ServiceConfig) -> ComputeService {
        let m = matrix();
        let fe = frontend(&m);
        ComputeService::new(m, fe, config)
    }

    #[test]
    fn fault_free_answers_match_the_virtual_cost_model() {
        let svc = service(ServiceConfig::defaults());
        for payload in 0..svc.matrix().requests() {
            for tol in [0.0, 0.05, 0.5] {
                let req = ServiceRequest::new(
                    payload,
                    Tolerance::new(tol).unwrap(),
                    Objective::ResponseTime,
                );
                let out = svc.execute(&req).unwrap();
                let intended = out.policy.execute(svc.matrix(), payload);
                assert_eq!(out.answered_by, intended.answered_by);
                assert_eq!(out.quality_err, intended.quality_err);
                assert_eq!(out.simulated_latency_us, intended.latency_us);
                assert!(!out.degraded);
            }
        }
        let snap = svc.snapshot();
        assert_eq!(snap.served, svc.matrix().requests() * 3);
        assert_eq!(snap.resilience.dropped_requests, 0);
        assert!(snap.billing.revenue > Money::ZERO);
    }

    #[test]
    fn billing_is_deterministic_for_a_fixed_request_set() {
        let run = || {
            let svc = service(ServiceConfig::defaults());
            let mix = tt_workloads::RequestMix::representative();
            for req in mix.sample(300, svc.matrix().requests(), 42) {
                svc.execute(&req).unwrap();
            }
            let snap = svc.snapshot();
            (
                snap.billing.revenue.as_dollars(),
                snap.billing.compute_cost.as_dollars(),
                snap.billing
                    .tiers
                    .iter()
                    .map(|(k, v)| (k.clone(), v.requests, v.revenue.as_dollars()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashes_degrade_to_a_cheaper_version_and_count_violations() {
        let m = matrix();
        let fe = frontend(&m);
        let svc = ComputeService::new(
            Arc::clone(&m),
            fe,
            ServiceConfig {
                faults: Some(FaultPlan::new(
                    5,
                    vec![FaultRates::NONE, FaultRates::crash_only(1.0)],
                )),
                retry: RetryPolicy::immediate(1),
                breaker: None,
                ..ServiceConfig::defaults()
            },
        );
        // Tolerance 0 routes to the accurate baseline, which always
        // crashes; degradation answers from the fast version.
        let mut degraded = 0;
        for payload in 0..40 {
            let req = ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
            let out = svc.execute(&req).unwrap();
            if out.degraded {
                degraded += 1;
                assert_eq!(out.answered_by, 0);
            }
        }
        assert!(degraded > 0, "universal crashes must force degradation");
        let snap = svc.snapshot();
        assert_eq!(snap.resilience.degraded_responses, degraded);
        assert!(snap.resilience.retries > 0);
        assert!(snap.resilience.failed_invocations > 0);
    }

    #[test]
    fn traced_execution_builds_a_span_tree_across_the_pool() {
        let svc = service(ServiceConfig::defaults());
        let handle = TraceHandle::detached(77);
        let req = ServiceRequest::new(3, Tolerance::ZERO, Objective::ResponseTime);
        svc.execute_shaped(&req, None, Some(&handle)).unwrap();
        // Wait for any FinishOut stragglers, then finish via a tracer.
        let tracer = tt_obs::Tracer::new(4);
        std::thread::sleep(std::time::Duration::from_millis(20));
        tracer.finish(&handle);
        let traces = tracer.recent(1);
        let trace = &traces[0];
        assert_eq!(trace.request_id, 77);
        let root = trace.span("execute").expect("root span");
        assert_eq!(root.parent, None);
        assert!(root.closed());
        let route = trace.span("route").expect("route span");
        assert_eq!(route.parent, Some(root.id));
        let call = trace.span("model_call").expect("model call span");
        assert!(call.closed());
        let bill = trace.span("bill").expect("bill span");
        assert_eq!(bill.parent, Some(root.id));
        // Model calls hang off the request root (or a degrade span),
        // and carry version/attempt/outcome attributes.
        assert!(trace.attrs(call.id).any(|(k, _)| k == "version"));
        assert!(trace.attrs(call.id).any(|(k, _)| k == "outcome"));
    }

    #[test]
    fn degraded_requests_trace_the_degrade_hop() {
        let m = matrix();
        let fe = frontend(&m);
        let svc = ComputeService::new(
            Arc::clone(&m),
            fe,
            ServiceConfig {
                faults: Some(FaultPlan::new(
                    5,
                    vec![FaultRates::NONE, FaultRates::crash_only(1.0)],
                )),
                retry: RetryPolicy::immediate(1),
                breaker: None,
                ..ServiceConfig::defaults()
            },
        );
        let tracer = tt_obs::Tracer::new(8);
        let mut saw_degrade = false;
        for payload in 0..20 {
            let handle = tracer.begin();
            let req = ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
            let out = svc.execute_shaped(&req, None, Some(&handle)).unwrap();
            tracer.finish(&handle);
            if out.degraded {
                let trace = tracer.recent(1).pop().unwrap();
                let degrade = trace.span("degrade").expect("degrade span");
                let root = trace.span("execute").unwrap();
                assert_eq!(degrade.parent, Some(root.id));
                // The recovery call is parented under the degrade hop.
                assert!(trace
                    .spans_named("model_call")
                    .any(|s| s.parent == Some(degrade.id)));
                saw_degrade = true;
                break;
            }
        }
        assert!(saw_degrade, "universal crashes must degrade some request");
    }

    #[test]
    fn observability_telemetry_counts_served_requests() {
        let svc = service(ServiceConfig::defaults());
        for payload in 0..30 {
            let req = ServiceRequest::new(payload, Tolerance::new(0.05).unwrap(), Objective::Cost);
            svc.execute(&req).unwrap();
        }
        let obs = svc.observability().expect("defaults enable obs");
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["requests_total"], 30);
        assert_eq!(snap.counters["requests_dropped"], 0);
        assert!(snap.counters["model_invocations"] >= 30);
        let tier = svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap());
        assert_eq!(tier.sinks.telemetry.requests(), 30);
    }

    #[test]
    fn disabled_observability_serves_without_instrumentation() {
        let svc = service(ServiceConfig {
            obs: crate::obs::ObsConfig::disabled(),
            ..ServiceConfig::defaults()
        });
        assert!(svc.observability().is_none());
        let req = ServiceRequest::new(0, Tolerance::ZERO, Objective::Cost);
        svc.execute(&req).unwrap();
        assert_eq!(svc.served(), 1);
    }

    /// Three versions so the default `min_survivors = 2` still lets
    /// the supervisor quarantine one.
    fn matrix3() -> Arc<ProfileMatrix> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut b = ProfileMatrixBuilder::new(vec!["fast".into(), "mid".into(), "accurate".into()]);
        for _ in 0..120 {
            let hard: f64 = rng.gen();
            b.push_request(vec![
                Observation {
                    quality_err: if hard > 0.6 { 1.0 } else { 0.0 },
                    latency_us: 5_000,
                    cost: 0.0,
                    confidence: if hard > 0.6 { 0.2 } else { 0.9 },
                },
                Observation {
                    quality_err: if hard > 0.85 { 1.0 } else { 0.0 },
                    latency_us: 12_000,
                    cost: 0.0,
                    confidence: 0.8,
                },
                Observation {
                    quality_err: if hard > 0.97 { 1.0 } else { 0.0 },
                    latency_us: 40_000,
                    cost: 0.0,
                    confidence: 0.9,
                },
            ]);
        }
        Arc::new(b.build().unwrap())
    }

    fn frontend3(matrix: &ProfileMatrix) -> TieredFrontend {
        let gen = RoutingRuleGenerator::with_defaults(matrix, 0.95, 7).unwrap();
        TieredFrontend::new(vec![
            gen.generate(&[0.0, 0.05, 0.10], Objective::ResponseTime)
                .unwrap(),
            gen.generate(&[0.0, 0.05, 0.10], Objective::Cost).unwrap(),
        ])
    }

    #[test]
    fn supervisor_quarantines_a_crashing_version_and_commits_the_canary() {
        let m = matrix3();
        let fe = frontend3(&m);
        let setup = SupervisorSetup {
            policy: tt_serve::supervisor::SupervisorConfig {
                min_demand: 4,
                ..tt_serve::supervisor::SupervisorConfig::defaults()
            },
            ..SupervisorSetup::defaults()
        };
        let svc = ComputeService::new(
            Arc::clone(&m),
            fe,
            ServiceConfig {
                // Only the most accurate (and most expensive) version
                // crashes — always.
                faults: Some(FaultPlan::new(
                    5,
                    vec![
                        FaultRates::NONE,
                        FaultRates::NONE,
                        FaultRates::crash_only(1.0),
                    ],
                )),
                retry: RetryPolicy::NONE,
                breaker: None,
                supervisor: Some(setup),
                ..ServiceConfig::defaults()
            },
        );
        assert_eq!(svc.rules_revision(), 1);
        // Strict requests route to the crashing baseline; two unhealthy
        // windows trigger the quarantine.
        let drive = |n: usize| {
            for payload in 0..n {
                let req = ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
                let _ = svc.execute(&req);
            }
        };
        drive(12);
        svc.on_window();
        assert_eq!(svc.supervisor_status().unwrap().quarantines, 0);
        drive(12);
        svc.on_window();
        let status = svc.supervisor_status().unwrap();
        assert_eq!(status.quarantines, 1, "log: {:?}", status.log);
        assert_eq!(status.quarantined, vec![2]);
        assert!(status.in_canary);
        assert_eq!(status.rules_revision, 2);
        // The regenerated rules avoid the quarantined version: strict
        // requests now get clean answers from a survivor.
        for payload in 0..20 {
            let req = ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
            let out = svc.execute(&req).unwrap();
            assert_ne!(out.answered_by, 2);
            assert!(!out.degraded);
        }
        // Three quiet canary windows commit the swap.
        for _ in 0..3 {
            drive(12);
            svc.on_window();
        }
        let status = svc.supervisor_status().unwrap();
        assert_eq!(status.commits, 1, "log: {:?}", status.log);
        assert!(!status.in_canary);
        assert_eq!(status.quarantined, vec![2]);
        assert_eq!(status.rollbacks, 0);
        // The transition log names both executed transitions.
        assert!(status.log[0].contains("quarantine v2"));
        assert!(status.log[1].contains("commit"));
    }

    #[test]
    fn supervisor_transitions_are_identical_across_thread_counts() {
        let run = |model_workers: usize, rulegen_threads: usize| {
            let m = matrix3();
            let fe = frontend3(&m);
            let setup = SupervisorSetup {
                policy: tt_serve::supervisor::SupervisorConfig {
                    min_demand: 4,
                    ..tt_serve::supervisor::SupervisorConfig::defaults()
                },
                rulegen_threads,
                ..SupervisorSetup::defaults()
            };
            let svc = ComputeService::new(
                Arc::clone(&m),
                fe,
                ServiceConfig {
                    faults: Some(FaultPlan::new(
                        5,
                        vec![
                            FaultRates::NONE,
                            FaultRates::NONE,
                            FaultRates::crash_only(1.0),
                        ],
                    )),
                    retry: RetryPolicy::NONE,
                    breaker: None,
                    model_workers,
                    supervisor: Some(setup),
                    ..ServiceConfig::defaults()
                },
            );
            for _ in 0..6 {
                for payload in 0..12 {
                    let req =
                        ServiceRequest::new(payload, Tolerance::ZERO, Objective::ResponseTime);
                    let _ = svc.execute(&req);
                }
                svc.on_window();
            }
            let status = svc.supervisor_status().unwrap();
            (status.log.clone(), svc.frontend().rules().count())
        };
        assert_eq!(run(1, 1), run(4, 4));
    }

    #[test]
    fn brownout_bills_the_tier_actually_served() {
        let svc = service(ServiceConfig::defaults());
        let declared = Tolerance::new(0.05).unwrap();
        let req = ServiceRequest::new(7, declared, Objective::Cost);
        // A looser-tier brownout: serve the 0.10 tier's plan, bill at
        // 0.10.
        let fe = svc.frontend();
        let plan = fe
            .rules()
            .find(|r| r.objective() == Objective::Cost)
            .unwrap()
            .lookup(Tolerance::new(0.10).unwrap());
        let out = svc
            .execute_shaped(&req, Some((plan, 0.10, BrownoutLevel::LooserTier)), None)
            .unwrap();
        assert_eq!(out.billed_tolerance, 0.10);
        assert_eq!(out.brownout, Some(BrownoutLevel::LooserTier));
        assert_eq!(out.price, svc.schedule().price_for(0.10));
        assert!(out.price <= svc.schedule().price_for(0.05));
        // The billing ledger records the served tier, not the declared
        // one.
        let snap = svc.snapshot();
        let billed: Vec<_> = snap.billing.tiers.keys().cloned().collect();
        assert!(billed.iter().any(|(_, milli)| *milli == 100), "{billed:?}");
        assert!(!billed.iter().any(|(_, milli)| *milli == 50), "{billed:?}");
    }

    /// Every policy flavour the walk knows, over three versions. The
    /// thresholds straddle the matrix's confidences (fast 0.2/0.9,
    /// mid 0.8, accurate 0.9) so each cascade both answers cheap and
    /// escalates, and the chain stops at every one of its stages.
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

    /// The settle shards' event rings merged in settle order: the
    /// newest settled requests, which a snapshot does not carry.
    fn settled_events(svc: &ComputeService) -> TraceRecorder {
        let shards: Vec<_> = svc.accounts.shards.each().collect();
        TraceRecorder::merged(shards.iter().map(|shard| &shard.trace))
    }

    #[test]
    fn batched_and_synchronous_execution_agree_for_every_policy_flavour() {
        let m = matrix3();
        let sync_svc =
            ComputeService::new(Arc::clone(&m), frontend3(&m), ServiceConfig::defaults());
        let batched_svc = ComputeService::new(
            Arc::clone(&m),
            frontend3(&m),
            ServiceConfig {
                batch: BatchConfig {
                    enabled: true,
                    // Zero formation slack: every group flushes at
                    // once, so requests settle in submission order and
                    // the f64 ledger sums compare bit for bit.
                    slack_us_per_unit_tolerance: 0,
                    ..BatchConfig::defaults()
                },
                ..ServiceConfig::defaults()
            },
        );
        let attempts = |svc: &ComputeService| {
            svc.health
                .attempts
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        };
        let tolerance = Tolerance::new(0.10).unwrap();
        for policy in every_policy_flavour() {
            for payload in 0..m.requests() {
                let req = ServiceRequest::new(payload, tolerance, Objective::ResponseTime);
                let plan = Some((policy, 0.05, BrownoutLevel::LooserTier));
                let sync_out = sync_svc.execute_shaped(&req, plan, None);
                let handle = TraceHandle::detached(payload as u64);
                let (tx, rx) = std::sync::mpsc::channel();
                batched_svc.execute_shaped_async(
                    &req,
                    plan,
                    Some(&handle),
                    Box::new(move |result| tx.send(result).unwrap()),
                );
                let batched_out = rx.recv().unwrap();
                assert_eq!(sync_out, batched_out, "{policy:?} payload {payload}");
                let tracer = tt_obs::Tracer::new(1);
                tracer.finish(&handle);
                assert!(
                    tracer.recent(1)[0].span("batch").is_some(),
                    "{policy:?} payload {payload} must take the batched arm"
                );
            }
            // The per-version invocation tallies pin the invocation
            // list. The concurrent flavours come last and are exempt:
            // their live hedge races its own cancellation.
            let concurrent = matches!(
                policy,
                Policy::Cascade {
                    scheduling: Scheduling::Concurrent,
                    ..
                }
            );
            if !concurrent {
                assert_eq!(attempts(&sync_svc), attempts(&batched_svc), "{policy:?}");
            }
        }
        let (sync_snap, batched_snap) = (sync_svc.snapshot(), batched_svc.snapshot());
        assert_eq!(sync_snap.served, batched_snap.served);
        assert_eq!(sync_snap.resilience, batched_snap.resilience);
        assert_eq!(sync_snap.billing, batched_snap.billing);
        let ledger_rows = |svc: &ComputeService| {
            settled_events(svc)
                .events()
                .iter()
                .map(|e| {
                    let latency = e.responded.saturating_since(e.arrival);
                    (
                        e.tolerance,
                        e.objective,
                        e.answered_by,
                        e.quality_err,
                        latency,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ledger_rows(&sync_svc), ledger_rows(&batched_svc));
        let counters = |svc: &ComputeService| {
            svc.observability()
                .expect("defaults enable obs")
                .registry()
                .snapshot()
                .counters
        };
        assert_eq!(counters(&sync_svc), counters(&batched_svc));
    }

    #[test]
    fn concurrent_et_charges_the_cancelled_call_until_the_cheap_answer() {
        let m = matrix3();
        let svc = ComputeService::new(Arc::clone(&m), frontend3(&m), ServiceConfig::defaults());
        let policy = Policy::Cascade {
            cheap: 0,
            accurate: 2,
            threshold: 0.5,
            scheduling: Scheduling::Concurrent,
            termination: Termination::EarlyTerminate,
        };
        let tolerance = Tolerance::new(0.10).unwrap();
        let mut busy_us = 0;
        let mut confident = 0;
        for payload in 0..m.requests() {
            let (c, a) = (m.get(payload, 0), m.get(payload, 2));
            if c.confidence < 0.5 {
                continue;
            }
            confident += 1;
            let req = ServiceRequest::new(payload, tolerance, Objective::ResponseTime);
            let plan = Some((policy, 0.05, BrownoutLevel::LooserTier));
            assert_eq!(svc.execute_shaped(&req, plan, None).unwrap().answered_by, 0);
            // The accurate call ran until the cheap answer landed.
            busy_us += c.latency_us + c.latency_us.min(a.latency_us);
        }
        assert!(confident > 0);
        // Busy time is summed in whole µs and priced once.
        let expected = InstanceType::cpu_node().cost_of(SimDuration::from_micros(busy_us));
        assert_eq!(
            svc.snapshot().billing.compute_cost.as_dollars().to_bits(),
            expected.as_dollars().to_bits()
        );
    }

    /// Response-time requests on the demo's sequential finish-out
    /// tiers under a seeded fault plan, served one after another; what
    /// each answered and the books as read the moment the last reply
    /// returned, with no wait for the calls left running.
    fn finish_out_books(latency_scale: f64) -> (Vec<(usize, u64)>, ResilienceStats, Vec<u64>) {
        // The finish-out stage fails most.
        let rates = |p: f64| FaultRates {
            crash: p,
            transient: p,
            ..FaultRates::NONE
        };
        let svc = crate::demo::demo_service(
            80,
            42,
            ServiceConfig {
                faults: Some(FaultPlan::new(
                    9,
                    vec![rates(0.05), rates(0.05), rates(0.25)],
                )),
                // A cooldown no run outlasts keeps the breakers off the
                // wall clock.
                breaker: Some(BreakerPolicy {
                    failure_threshold: 3,
                    cooldown: SimDuration::from_secs_f64(600.0),
                }),
                supervisor: None,
                latency_scale,
                ..ServiceConfig::defaults()
            },
        );
        let answers = (0..80)
            .flat_map(|payload| [0.01, 0.1].map(|t| (payload, t)))
            .filter_map(|(payload, tolerance)| {
                let tolerance = Tolerance::new(tolerance).unwrap();
                let req = ServiceRequest::new(payload, tolerance, Objective::ResponseTime);
                let out = svc.execute(&req).ok()?;
                Some((out.answered_by, out.simulated_latency_us))
            })
            .collect();
        let health = [&svc.health.attempts, &svc.health.failures]
            .into_iter()
            .flatten()
            .map(|n| n.load(Ordering::SeqCst))
            .collect();
        (answers, svc.snapshot().resilience, health)
    }

    #[test]
    fn a_detached_finish_out_is_booked_before_the_reply_returns() {
        let tier = crate::demo::demo_service(80, 42, ServiceConfig::defaults())
            .resolve(Objective::ResponseTime, Tolerance::new(0.1).unwrap());
        assert!(
            matches!(
                tier.policy,
                Policy::Cascade {
                    scheduling: Scheduling::Sequential,
                    termination: Termination::FinishOut,
                    ..
                }
            ),
            "the demo's 10 % response-time tier finishes out sequentially: {:?}",
            tier.policy
        );
        let (answers, resilience, health) = finish_out_books(0.02);
        assert!(resilience.failed_invocations > 0 && resilience.breaker_sheds > 0);
        assert_eq!((answers, resilience, health), finish_out_books(0.0));
    }

    #[test]
    fn detached_calls_neither_deadlock_one_worker_nor_outlive_the_service() {
        let m = matrix3();
        let svc = Arc::new(ComputeService::new(
            Arc::clone(&m),
            frontend3(&m),
            ServiceConfig {
                latency_scale: 0.05,
                model_workers: 1,
                ..ServiceConfig::defaults()
            },
        ));
        let (done_tx, done) = std::sync::mpsc::channel();
        for caller in 0..2 {
            let (svc, done_tx) = (Arc::clone(&svc), done_tx.clone());
            std::thread::spawn(move || {
                for payload in 0..40 {
                    let scheduling = if (payload + caller) % 2 == 0 {
                        Scheduling::Sequential
                    } else {
                        Scheduling::Concurrent
                    };
                    let policy = Policy::Cascade {
                        cheap: 0,
                        accurate: 2,
                        threshold: 0.5,
                        scheduling,
                        termination: Termination::FinishOut,
                    };
                    let req = ServiceRequest::new(
                        payload,
                        Tolerance::new(0.10).unwrap(),
                        Objective::ResponseTime,
                    );
                    let plan = Some((policy, 0.05, BrownoutLevel::LooserTier));
                    svc.execute_shaped(&req, plan, None).unwrap();
                }
                done_tx.send(()).unwrap();
            });
        }
        let patience = std::time::Duration::from_secs(60);
        for _ in 0..2 {
            done.recv_timeout(patience)
                .expect("one model worker serves both finish-outs");
        }
        // The last requests' accurate stages are still running: dropping
        // the service joins the pool behind them.
        let svc = Arc::try_unwrap(svc).expect("the callers are done");
        std::thread::spawn(move || {
            drop(svc);
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(patience)
            .expect("dropping the service joins its detached calls");
    }

    #[test]
    fn admission_defaults_admit_normal_traffic() {
        let svc = service(ServiceConfig::defaults());
        let req = ServiceRequest::new(0, Tolerance::new(0.05).unwrap(), Objective::Cost);
        assert_eq!(svc.admit(&req), AdmissionDecision::Admit);
        let (admitted, browned, rejected) = svc.admission().totals();
        assert_eq!((admitted, browned, rejected), (1, 0, 0));
    }

    #[test]
    fn no_degradation_means_unavailable() {
        let m = matrix();
        let fe = frontend(&m);
        let svc = ComputeService::new(
            Arc::clone(&m),
            fe,
            ServiceConfig {
                faults: Some(FaultPlan::new(
                    5,
                    vec![FaultRates::crash_only(1.0), FaultRates::crash_only(1.0)],
                )),
                retry: RetryPolicy::NONE,
                breaker: None,
                degrade: false,
                ..ServiceConfig::defaults()
            },
        );
        let req = ServiceRequest::new(0, Tolerance::ZERO, Objective::ResponseTime);
        assert_eq!(svc.execute(&req), Err(ServiceError::Unavailable));
        assert_eq!(svc.snapshot().resilience.dropped_requests, 1);
    }

    /// A planning service whose rounds are one tight window, so the
    /// tests can drive rounds directly.
    fn planned() -> ServiceConfig {
        let mut setup = PlannerSetup::defaults();
        setup.planner.windows_per_round = 1;
        setup.planner.shrink_patience = 2;
        let mut config = ServiceConfig {
            planner: Some(setup),
            ..ServiceConfig::defaults()
        };
        config.obs.window = std::time::Duration::from_millis(10);
        config
    }

    #[test]
    fn planner_grows_the_pool_under_demand_and_logs_typed_events() {
        let svc = service(planned());
        assert_eq!(svc.pool_workers(), 4);
        let obs = Arc::clone(svc.observability().unwrap());
        // One heavy round: 40 arrivals at ~8ms mean service in a 10ms
        // round at 70% utilization demands far more than 4 workers.
        for i in 0..40 {
            obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap()));
            let req = ServiceRequest::new(i, Tolerance::new(0.05).unwrap(), Objective::Cost);
            svc.execute(&req).unwrap();
        }
        svc.on_window();
        let status = svc.capacity_status().expect("planner enabled");
        assert!(status.planner.rounds >= 1);
        assert!(
            svc.pool_workers() > 4,
            "demand must grow the pool: {} workers",
            svc.pool_workers()
        );
        let kinds: Vec<&str> = obs.events().since(0).iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"planner_forecast"), "{kinds:?}");
        assert!(kinds.contains(&"planner_resize"), "{kinds:?}");
        assert!(kinds.contains(&"planner_regen"), "{kinds:?}");
        assert!(status.mix_regens >= 1);
        assert!(!status.log.is_empty());
    }

    #[test]
    fn the_planner_converts_demand_over_rounds_of_the_obs_window() {
        let mut config = planned();
        config.obs.window = std::time::Duration::from_millis(100);
        config.planner.as_mut().unwrap().planner.windows_per_round = 2;
        let svc = service(config);
        let obs = Arc::clone(svc.observability().unwrap());
        for i in 0..40 {
            obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap()));
            let req = ServiceRequest::new(i, Tolerance::new(0.05).unwrap(), Objective::Cost);
            svc.execute(&req).unwrap();
        }
        svc.on_window();
        svc.on_window();
        let events = obs.events().since(0);
        let forecast = events
            .iter()
            .find(|e| e.kind == "planner_forecast")
            .expect("the second window closes a round");
        // "busy {busy}us/round at mean {mean}us -> demand {workers} workers"
        let numbers: Vec<u64> = forecast
            .detail
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect();
        let [busy_us, _mean_us, demand] = numbers[..] else {
            panic!("unexpected forecast line {:?}", forecast.detail);
        };
        // A 200 ms round at 70 % target utilization: 140 ms of busy
        // time per worker.
        let planner = PlannerConfig::defaults();
        let expected = busy_us
            .div_ceil(140_000)
            .clamp(planner.min_workers as u64, planner.max_workers as u64);
        assert!(
            busy_us > 140_000,
            "the round must need more than one worker"
        );
        assert_eq!(demand, expected, "{}", forecast.detail);
    }

    #[test]
    fn planner_shrinks_after_the_trough_persists() {
        let svc = service(planned());
        let obs = Arc::clone(svc.observability().unwrap());
        for i in 0..40 {
            obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap()));
            let req = ServiceRequest::new(i, Tolerance::new(0.05).unwrap(), Objective::Cost);
            svc.execute(&req).unwrap();
        }
        svc.on_window();
        let peak = svc.pool_workers();
        assert!(peak > 4);
        // Idle rounds: the demand EWMA decays and, after the patience
        // streak, the planner releases the capacity.
        for _ in 0..12 {
            svc.on_window();
        }
        assert!(
            svc.pool_workers() < peak,
            "trough must shrink the pool: {} vs peak {peak}",
            svc.pool_workers()
        );
    }

    #[test]
    fn tuner_boosts_admission_on_a_surge_window() {
        let mut config = planned();
        // Keep the planner quiet so only the tuner acts.
        config.planner.as_mut().unwrap().planner.windows_per_round = 1000;
        let svc = service(config);
        let obs = Arc::clone(svc.observability().unwrap());
        // Steady warmup windows.
        let mut tol = 0.05;
        for _ in 0..4 {
            for _ in 0..10 {
                obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(tol).unwrap()));
            }
            svc.on_window();
        }
        let limit_before = svc.admission().limit();
        // 6× surge in one window.
        tol = 0.05;
        for _ in 0..60 {
            obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(tol).unwrap()));
        }
        svc.on_window();
        let status = svc.capacity_status().unwrap();
        assert!(status.surging, "tuner must flag the surge");
        assert_eq!(status.nudges, 1);
        assert!(
            svc.admission().limit() > limit_before,
            "surge must boost the limit: {} -> {}",
            limit_before,
            svc.admission().limit()
        );
        assert_eq!(status.batch_slack_permille, 250);
        let kinds: Vec<&str> = obs.events().since(0).iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"tuner_limit"), "{kinds:?}");
        assert!(kinds.contains(&"tuner_batch"), "{kinds:?}");
        // Calm windows revert the batch slack.
        for _ in 0..8 {
            for _ in 0..10 {
                obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(tol).unwrap()));
            }
            svc.on_window();
        }
        let status = svc.capacity_status().unwrap();
        assert!(!status.surging);
        assert_eq!(status.batch_slack_permille, 1000);
    }

    #[test]
    fn forecast_regen_preserves_tier_sets_and_bumps_the_epoch() {
        let svc = service(planned());
        let obs = Arc::clone(svc.observability().unwrap());
        let tiers_before: Vec<Vec<u32>> = {
            let fe = svc.frontend();
            let mut sets: Vec<Vec<u32>> = fe
                .rules()
                .map(|r| {
                    r.tiers()
                        .iter()
                        .map(|&(t, _)| (t * 1000.0).round() as u32)
                        .collect()
                })
                .collect();
            sets.sort();
            sets
        };
        let epoch_before = svc.rules_epoch();
        for i in 0..40 {
            obs.record_arrival(&svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap()));
            let req = ServiceRequest::new(i, Tolerance::new(0.05).unwrap(), Objective::Cost);
            svc.execute(&req).unwrap();
        }
        svc.on_window();
        assert!(svc.capacity_status().unwrap().mix_regens >= 1);
        assert!(svc.rules_epoch() > epoch_before, "regen publishes an epoch");
        let tiers_after: Vec<Vec<u32>> = {
            let fe = svc.frontend();
            let mut sets: Vec<Vec<u32>> = fe
                .rules()
                .map(|r| {
                    r.tiers()
                        .iter()
                        .map(|&(t, _)| (t * 1000.0).round() as u32)
                        .collect()
                })
                .collect();
            sets.sort();
            sets
        };
        assert_eq!(
            tiers_before, tiers_after,
            "forecast regen must preserve deployed tier sets"
        );
    }
}
