//! Live observability for the wire service: a bounded metrics
//! registry, request-scoped tracing, and the tier-guarantee SLO
//! sentinel, assembled from [`tt_obs`] and wired to the deployment's
//! *advertised* guarantees.
//!
//! The interesting part is the wiring, not the plumbing: the
//! deployment's tier table ([`crate::tiers`]) replays the routing
//! rules through `RoutingRules::guarantees` to extract, per tier, the
//! tolerance ε and the predicted latency at a chosen quantile. Those
//! predictions become the sentinel's targets, so it holds live traffic
//! against exactly what the rule generator promised — the paper's
//! contract ("this tier degrades accuracy at most ε versus the premium
//! tier") made observable at runtime. Every `record_*` here is handed
//! the request's resolved tier and writes to that entry's sinks and
//! pre-built key.
//!
//! Everything the hot path records is integer-accumulated (fixed-point
//! quality errors, histogram bucket counts), so a fixed request set
//! produces bit-identical `/metrics` totals regardless of thread
//! interleaving.

use crate::tiers::{LiveTiers, TierEntry, TierTable};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_obs::{
    AdmissionOutcome, Counter, EventLog, HistogramHandle, MetricsRegistry, SloSentinel,
    TierTelemetry, Tracer, WindowStore,
};

/// Observability tuning for a [`crate::service::ComputeService`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch; `false` removes the registry, tracer, and
    /// sentinel entirely (the uninstrumented baseline the overhead
    /// benchmark compares against).
    pub enabled: bool,
    /// Finished request traces the tracer retains (the newest, merged
    /// from its per-thread rings).
    pub trace_capacity: usize,
    /// Optional JSONL file sink mirroring every finished trace.
    pub trace_file: Option<PathBuf>,
    /// The control-loop window: the SLO sentinel judges one, the
    /// telemetry store ([`WindowStore`]) seals one, and every roll
    /// closes one window for admission, the supervisor and the
    /// capacity automatons, whose planner converts demand over
    /// `windows_per_round` of them.
    pub window: Duration,
    /// Minimum window requests per tier before a verdict is rendered.
    pub slo_min_requests: u64,
    /// Quantile at which tier latency is predicted and checked.
    pub latency_quantile: f64,
    /// Live latency may exceed the prediction by this factor before
    /// the tier is ruled out of contract (live serving pays queueing
    /// and scheduling costs the profile does not model).
    pub latency_headroom: f64,
    /// Sealed telemetry windows retained in the bounded ring.
    pub window_capacity: usize,
    /// Control-plane events retained in the bounded event log.
    pub event_capacity: usize,
}

impl ObsConfig {
    /// Instrumentation on, with bounded retention everywhere.
    pub fn defaults() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: 256,
            trace_file: None,
            window: Duration::from_millis(250),
            slo_min_requests: 20,
            latency_quantile: 0.99,
            latency_headroom: 2.0,
            window_capacity: 64,
            event_capacity: 1024,
        }
    }

    /// Instrumentation fully off: no registry, tracer or sentinel.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::defaults()
        }
    }
}

/// Everything [`Observability::record_served`] needs to know about
/// one served request.
#[derive(Debug, Clone, Copy)]
pub struct ServedSample {
    /// Simulated (accounted) latency of the serving policy.
    pub sim_latency_us: u64,
    /// Quality error of the version that answered.
    pub quality_err: f64,
    /// The baseline (premium-tier) version's error on the same
    /// payload.
    pub baseline_err: f64,
    /// Whether resilience degraded the request to a cheaper version.
    pub degraded: bool,
    /// Model invocations the request consumed (retries, hedges).
    pub invocations: u64,
    /// The model version that answered — keys the telemetry windows'
    /// per-version service-time histograms (the planner's input).
    pub version: usize,
}

/// How the semantic result cache disposed of one compute request, for
/// the per-tier counters on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Served from cache on a bit-equal input fingerprint.
    HitExact,
    /// Served from cache via the semantic admissibility rule.
    HitSemantic,
    /// Cache consulted, no admissible entry; the request executed.
    Miss,
    /// Cache not consulted (disabled, epoch-fenced node, brownout, or
    /// client `Cache-Control: no-cache`).
    Bypass,
}

/// The service's live observability: registry, tracer, windows, and
/// the event log. The sentinel and the per-tier sinks live in the
/// deployment's tier table, reached through the shared [`LiveTiers`]
/// cell.
pub struct Observability {
    registry: MetricsRegistry,
    tracer: Tracer,
    windows: WindowStore,
    events: EventLog,
    tiers: Arc<LiveTiers>,
    /// Windows evaluated by sentinels retired in earlier installs.
    windows_carried: AtomicU64,
    started: Instant,
    // Pre-resolved hot-path handles: record without touching the
    // registry's shard locks.
    requests_total: Arc<Counter>,
    requests_degraded: Arc<Counter>,
    requests_dropped: Arc<Counter>,
    model_invocations: Arc<Counter>,
    sim_latency: HistogramHandle,
    cache_hit: Arc<Counter>,
    cache_hit_semantic: Arc<Counter>,
    cache_miss: Arc<Counter>,
    cache_bypass: Arc<Counter>,
    cache_hit_latency: HistogramHandle,
}

impl Observability {
    /// Observability over the deployment published in `tiers`.
    ///
    /// `started` is the monotonic anchor all span timestamps and
    /// sentinel windows are measured from (share the service's so one
    /// clock rules the whole request path).
    pub fn new(config: &ObsConfig, started: Instant, tiers: Arc<LiveTiers>) -> Self {
        let registry = MetricsRegistry::default();
        let tracer = match &config.trace_file {
            Some(path) => Tracer::new(config.trace_capacity)
                .with_file_sink(path)
                .unwrap_or_else(|_| Tracer::new(config.trace_capacity)),
            None => Tracer::new(config.trace_capacity),
        };
        Observability {
            requests_total: registry.counter("requests_total"),
            requests_degraded: registry.counter("requests_degraded"),
            requests_dropped: registry.counter("requests_dropped"),
            model_invocations: registry.counter("model_invocations"),
            sim_latency: registry.histogram("sim_latency_us"),
            cache_hit: registry.counter("cache_hit"),
            cache_hit_semantic: registry.counter("cache_hit_semantic"),
            cache_miss: registry.counter("cache_miss"),
            cache_bypass: registry.counter("cache_bypass"),
            cache_hit_latency: registry.histogram("cache_hit_latency_us"),
            registry,
            tracer,
            windows: WindowStore::new(
                config.window.as_micros().max(1) as u64,
                config.window_capacity.max(1),
            ),
            events: EventLog::new(config.event_capacity.max(1)),
            tiers,
            windows_carried: AtomicU64::new(0),
            started,
        }
    }

    /// Keep a retired deployment's evaluated-window count in the
    /// lifetime total.
    pub(crate) fn retire(&self, table: &TierTable) {
        self.windows_carried
            .fetch_add(table.sentinel.windows_evaluated(), Ordering::SeqCst);
    }

    /// The metrics registry (for `/metrics` and ad-hoc series).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The request tracer (for `/trace/recent`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The windowed telemetry store (for `/metrics/windows` and the
    /// capacity planner's input contract).
    pub fn windows(&self) -> &WindowStore {
        &self.windows
    }

    /// The control-plane event log (for `/events`).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Record a control-plane event stamped with the service clock.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) -> u64 {
        self.events.record(self.now_us(), kind, detail)
    }

    /// The live deployment's SLO sentinel (for `/metrics` verdicts and
    /// `/healthz`). Returned by handle: a rules hot-swap replaces the
    /// sentinel with its table, and a caller holding the old handle
    /// keeps a coherent (if stale) view instead of a dangling one.
    pub fn sentinel(&self) -> Arc<SloSentinel> {
        Arc::clone(&self.tiers.read().sentinel)
    }

    /// Windows evaluated across the whole service lifetime, including
    /// sentinels retired by rules hot-swaps.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_carried.load(Ordering::SeqCst) + self.sentinel().windows_evaluated()
    }

    /// Microseconds since the service's monotonic anchor — the
    /// timestamp base for spans and sentinel windows.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Advance the sentinel and the telemetry window store; evaluates
    /// a sentinel window (and seals a telemetry window) when one has
    /// elapsed. Called from the server's event loop every ~2ms.
    pub fn tick(&self) -> bool {
        let now = self.now_us();
        self.windows.tick(now);
        self.sentinel().tick(now)
    }

    /// The advertised tiers' lifetime telemetry as `(key, telemetry)`
    /// pairs sorted by key — the deterministic iteration `/metrics`
    /// renders from.
    pub fn tier_telemetry(&self) -> Vec<(String, Arc<TierTelemetry>)> {
        let table = self.tiers.read();
        let mut out: Vec<_> = table
            .advertised()
            .map(|e| (e.key.clone(), Arc::clone(&e.sinks.telemetry)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Record one request served as `tier` into the registry, the
    /// tier's telemetry, and the open telemetry window's per-version
    /// service-time histogram. All hot-path registry operations are
    /// atomics; the window record locks only the calling thread's
    /// shard of the open window, which no other recorder takes.
    pub fn record_served(&self, tier: &TierEntry, sample: &ServedSample) {
        self.requests_total.inc();
        if sample.degraded {
            self.requests_degraded.inc();
        }
        self.model_invocations.add(sample.invocations);
        self.sim_latency.record(sample.sim_latency_us);
        self.windows
            .record_service(sample.version, sample.sim_latency_us);
        tier.sinks.telemetry.record(
            sample.sim_latency_us,
            sample.quality_err,
            sample.baseline_err,
            sample.degraded,
        );
    }

    /// Record one request no version could answer: global counters
    /// plus a shed count on the tier's open telemetry window.
    pub fn record_dropped(&self, tier: &TierEntry) {
        self.requests_total.inc();
        self.requests_dropped.inc();
        self.windows
            .record_admission(&tier.key, AdmissionOutcome::Shed);
    }

    /// Record one request arriving for a tier (pre-admission) into the
    /// open telemetry window — the planner's per-tier arrival rate.
    pub fn record_arrival(&self, tier: &TierEntry) {
        self.windows.record_arrival(&tier.key);
    }

    /// Record the admission controller's decision for one request into
    /// the open telemetry window.
    pub fn record_admission(&self, tier: &TierEntry, outcome: AdmissionOutcome) {
        self.windows.record_admission(&tier.key, outcome);
    }

    /// Record one cache disposition: the global counters, the hit-path
    /// latency histogram (the deterministic accounted hit latency, not
    /// wall clock, so `/metrics` totals stay run-identical), and the
    /// tier's `cache_{hit,miss,bypass}:{key}` counter. Per-tier series
    /// resolve through the bounded registry, so tier cardinality can
    /// degrade fidelity but never memory.
    pub fn record_cache(&self, tier: &TierEntry, event: CacheEvent) {
        // Hits and misses (actual cache consults) also land on the
        // tier's open telemetry window; bypasses don't consult.
        let (kind, name) = match event {
            CacheEvent::HitExact | CacheEvent::HitSemantic => {
                self.cache_hit.inc();
                if event == CacheEvent::HitSemantic {
                    self.cache_hit_semantic.inc();
                }
                self.cache_hit_latency
                    .record(crate::service::CACHE_HIT_SIM_LATENCY_US);
                self.windows.record_cache(&tier.key, true);
                (0, "cache_hit")
            }
            CacheEvent::Miss => {
                self.cache_miss.inc();
                self.windows.record_cache(&tier.key, false);
                (1, "cache_miss")
            }
            CacheEvent::Bypass => {
                self.cache_bypass.inc();
                (2, "cache_bypass")
            }
        };
        tier.sinks.cache[kind]
            .get_or_init(|| self.registry.counter(&format!("{name}:{}", tier.key)))
            .inc();
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("registry", &self.registry)
            .field("tracer", &self.tracer)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frontend, demo_matrix, DEMO_TIERS};
    use tt_core::objective::Objective;
    use tt_core::profile::ProfileMatrix;
    use tt_serve::billing::TierPriceSchedule;
    use tt_sim::Money;

    fn table(matrix: &ProfileMatrix, previous: Option<&TierTable>) -> TierTable {
        TierTable::build(
            matrix,
            demo_frontend(matrix, 5),
            &TierPriceSchedule::list_prices(Money::from_dollars(0.001)),
            &ObsConfig::defaults(),
            previous,
        )
    }

    fn obs() -> (Observability, Arc<LiveTiers>) {
        let tiers = Arc::new(LiveTiers::new(Arc::new(table(&demo_matrix(120, 5), None))));
        let obs = Observability::new(&ObsConfig::defaults(), Instant::now(), Arc::clone(&tiers));
        (obs, tiers)
    }

    #[test]
    fn targets_cover_every_advertised_tier() {
        let (obs, _) = obs();
        let keys: Vec<String> = obs.sentinel().targets().map(|t| t.key.clone()).collect();
        for objective in [Objective::ResponseTime, Objective::Cost] {
            for &tol in &DEMO_TIERS {
                let key = format!("{objective}/{tol:.3}");
                assert!(keys.contains(&key), "missing target {key}");
            }
        }
        // Latency bounds come from predictions, scaled by headroom.
        assert!(obs.sentinel().targets().all(|t| t.max_latency_us > 0));
    }

    #[test]
    fn record_served_feeds_registry_and_tier() {
        let (obs, tiers) = obs();
        let tier = tiers.read().resolve(Objective::Cost, 0.05);
        obs.record_served(
            &tier,
            &ServedSample {
                sim_latency_us: 9_000,
                quality_err: 0.2,
                baseline_err: 0.1,
                degraded: true,
                invocations: 2,
                version: 1,
            },
        );
        obs.record_dropped(&tier);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["requests_total"], 2);
        assert_eq!(snap.counters["requests_degraded"], 1);
        assert_eq!(snap.counters["requests_dropped"], 1);
        assert_eq!(snap.counters["model_invocations"], 2);
        assert_eq!(snap.histograms["sim_latency_us"].count(), 1);
        assert_eq!(tier.sinks.telemetry.requests(), 1);
        assert_eq!(tier.sinks.telemetry.degraded(), 1);
    }

    #[test]
    fn rebind_reuses_telemetry_and_carries_window_counts() {
        let matrix = demo_matrix(120, 5);
        let (obs, tiers) = obs();
        let before = tiers.read().resolve(Objective::Cost, 0.05);
        before.sinks.telemetry.record(1_000, 0.1, 0.1, false);
        obs.sentinel().force_tick(obs.now_us());
        obs.sentinel().force_tick(obs.now_us());
        assert_eq!(obs.windows_evaluated(), 2);

        // What `ComputeService::install` does: build over the live
        // table, rebase the new sentinel, one store, retire the old.
        let next = table(&matrix, Some(&tiers.read()));
        next.sentinel.rebase(obs.now_us());
        let retired = std::mem::replace(&mut *tiers.write(), Arc::new(next));
        obs.retire(&retired);
        // Same tier key → same sinks: lifetime series continue.
        let after = tiers.read().resolve(Objective::Cost, 0.05);
        assert!(Arc::ptr_eq(&before.sinks, &after.sinks));
        assert_eq!(after.sinks.telemetry.requests(), 1);
        // The retired sentinel's windows are carried, the new sentinel
        // starts unevaluated and judges only post-install traffic.
        assert_eq!(obs.windows_evaluated(), 2);
        assert!(obs.sentinel().verdicts().iter().all(|v| !v.evaluated));
        obs.sentinel().force_tick(obs.now_us());
        assert_eq!(obs.windows_evaluated(), 3);
        let verdicts = obs.sentinel().verdicts();
        assert!(verdicts.iter().all(|v| v.window_requests == 0));
    }

    #[test]
    fn tier_keys_are_stable_and_sorted() {
        let (obs, tiers) = obs();
        let listed = obs.tier_telemetry();
        assert_eq!(listed.len(), 8);
        assert!(listed.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            tiers.read().resolve(Objective::Cost, 0.05).key,
            "cost/0.050"
        );
        assert_eq!(
            tiers.read().resolve(Objective::ResponseTime, 0.0).key,
            "response-time/0.000"
        );
    }
}
