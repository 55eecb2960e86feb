//! The SLO sentinel: a background evaluator that folds live per-tier
//! telemetry against each tier's *advertised* guarantee over sliding
//! windows.
//!
//! The paper's contract is per-tier: "this tier degrades accuracy at
//! most ε versus the premium tier". The sentinel makes that contract
//! observable at runtime. Each tier registers an [`SloTarget`]
//! (tolerance ε plus a latency bound at a chosen quantile, both taken
//! from the routing-rule generator's predictions) and an associated
//! [`TierTelemetry`] sink that the serving hot path feeds. On every
//! [`SloSentinel::tick`] whose timestamp closes the current window,
//! the sentinel diffs telemetry snapshots, evaluates the window's
//! delta, and publishes one [`SloVerdict`] per tier.
//!
//! Determinism notes: quality sums are accumulated as *fixed-point
//! integer nano-units* (`err × 1e9`), so the total is independent of
//! thread interleaving — summing `f64`s in completion order would
//! wobble by an ulp between runs. Latency enters a mergeable
//! [`AtomicHistogram`], exact in counts for the same reason.

use crate::hist::{AtomicHistogram, BucketScheme, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed-point scale for quality-error sums: 1e9 units per 1.0 error.
const ERR_NANOS: f64 = 1e9;

/// Cap for reported degradation when the baseline error is zero (the
/// true ratio is unbounded; `/metrics` must stay finite for the JSON
/// emitter).
const DEGRADATION_CAP: f64 = 1e6;

/// One tier's advertised guarantee, as the sentinel checks it.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SloTarget {
    /// Stable tier key, e.g. `"cost/0.050"`.
    pub key: String,
    /// Advertised tolerance ε: mean relative quality degradation vs.
    /// the baseline must not exceed this.
    pub max_degradation: f64,
    /// Quantile at which latency is checked (e.g. 0.99).
    pub latency_quantile: f64,
    /// Latency bound in microseconds at that quantile.
    pub max_latency_us: u64,
    /// Minimum window requests before a verdict is rendered; below
    /// this the tier stays in contract with an "insufficient traffic"
    /// reason.
    pub min_requests: u64,
}

/// Live telemetry for one tier. The hot path calls
/// [`TierTelemetry::record`]; the sentinel snapshots and diffs.
#[derive(Debug)]
pub struct TierTelemetry {
    requests: AtomicU64,
    degraded: AtomicU64,
    /// Σ quality_err in fixed-point nanos (order-independent).
    err_nanos: AtomicU64,
    /// Σ baseline quality_err in fixed-point nanos.
    baseline_err_nanos: AtomicU64,
    latency: AtomicHistogram,
}

impl Default for TierTelemetry {
    fn default() -> Self {
        TierTelemetry::new(BucketScheme::DEFAULT)
    }
}

impl TierTelemetry {
    /// Fresh telemetry with the given histogram layout.
    pub fn new(scheme: BucketScheme) -> Self {
        TierTelemetry {
            requests: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            err_nanos: AtomicU64::new(0),
            baseline_err_nanos: AtomicU64::new(0),
            latency: AtomicHistogram::new(scheme),
        }
    }

    /// Record one served request: its (simulated) latency, its quality
    /// error, the baseline (premium-tier) error on the same payload,
    /// and whether resilience degraded it to a cheaper version.
    pub fn record(&self, latency_us: u64, quality_err: f64, baseline_err: f64, degraded: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let err = (quality_err.max(0.0) * ERR_NANOS).round() as u64;
        let base = (baseline_err.max(0.0) * ERR_NANOS).round() as u64;
        self.err_nanos.fetch_add(err, Ordering::Relaxed);
        self.baseline_err_nanos.fetch_add(base, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    /// Total requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests served by a degraded (cheaper-than-planned) version.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The lifetime latency histogram.
    pub fn latency(&self) -> &AtomicHistogram {
        &self.latency
    }

    /// Lifetime mean quality error; `None` before any traffic.
    pub fn mean_err(&self) -> Option<f64> {
        let n = self.requests();
        (n > 0).then(|| self.err_nanos.load(Ordering::Relaxed) as f64 / ERR_NANOS / n as f64)
    }

    fn snap(&self) -> TelemetrySnap {
        TelemetrySnap {
            requests: self.requests.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            err_nanos: self.err_nanos.load(Ordering::Relaxed),
            baseline_err_nanos: self.baseline_err_nanos.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

#[derive(Debug, Clone)]
struct TelemetrySnap {
    requests: u64,
    degraded: u64,
    err_nanos: u64,
    baseline_err_nanos: u64,
    latency: Histogram,
}

impl TelemetrySnap {
    fn empty(scheme: BucketScheme) -> Self {
        TelemetrySnap {
            requests: 0,
            degraded: 0,
            err_nanos: 0,
            baseline_err_nanos: 0,
            latency: Histogram::new(scheme),
        }
    }
}

/// The sentinel's published judgment for one tier over the last
/// closed window.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SloVerdict {
    /// Tier key (matches [`SloTarget::key`]).
    pub key: String,
    /// Whether the tier honored its guarantee in the window.
    pub in_contract: bool,
    /// Human-readable reason (always set; "within guarantee" when
    /// passing).
    pub reason: String,
    /// Requests observed in the window.
    pub window_requests: u64,
    /// Degraded requests observed in the window.
    pub window_degraded: u64,
    /// Observed mean degradation vs. baseline (capped to stay
    /// finite).
    pub observed_degradation: f64,
    /// Observed latency at the target quantile, microseconds (0 when
    /// the window saw no traffic).
    pub latency_us_at_quantile: u64,
    /// Whether at least one full window has been evaluated.
    pub evaluated: bool,
}

impl SloVerdict {
    fn awaiting(key: &str) -> Self {
        SloVerdict {
            key: key.to_string(),
            in_contract: true,
            reason: "awaiting first window".to_string(),
            window_requests: 0,
            window_degraded: 0,
            observed_degradation: 0.0,
            latency_us_at_quantile: 0,
            evaluated: false,
        }
    }
}

struct SentinelState {
    window_started_us: u64,
    prior: Vec<TelemetrySnap>,
    verdicts: Vec<SloVerdict>,
    windows_evaluated: u64,
}

/// Background evaluator folding live telemetry against advertised
/// guarantees over sliding windows.
pub struct SloSentinel {
    window_us: u64,
    tiers: Vec<(SloTarget, Arc<TierTelemetry>)>,
    state: Mutex<SentinelState>,
}

impl SloSentinel {
    /// A sentinel evaluating every `window_us` microseconds of
    /// caller-injected time.
    pub fn new(window_us: u64, tiers: Vec<(SloTarget, Arc<TierTelemetry>)>) -> Self {
        let verdicts = tiers
            .iter()
            .map(|(t, _)| SloVerdict::awaiting(&t.key))
            .collect();
        let prior = tiers
            .iter()
            .map(|(_, tel)| TelemetrySnap::empty(tel.latency().scheme()))
            .collect();
        SloSentinel {
            window_us: window_us.max(1),
            tiers,
            state: Mutex::new(SentinelState {
                window_started_us: 0,
                prior,
                verdicts,
                windows_evaluated: 0,
            }),
        }
    }

    /// Window length in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The tier targets being watched.
    pub fn targets(&self) -> impl Iterator<Item = &SloTarget> {
        self.tiers.iter().map(|(t, _)| t)
    }

    /// Advance the sentinel's clock. If `now_us` closes the current
    /// window, evaluate it and publish fresh verdicts; otherwise a
    /// no-op. Returns `true` when a window was evaluated.
    pub fn tick(&self, now_us: u64) -> bool {
        let mut state = self.state.lock().expect("sentinel poisoned");
        if now_us.saturating_sub(state.window_started_us) < self.window_us {
            return false;
        }
        self.evaluate(&mut state, now_us);
        true
    }

    /// Restart the window origin at `now_us`: snapshot the telemetry
    /// as the new baseline *without* publishing verdicts. Used when a
    /// sentinel is wired over [`TierTelemetry`] sinks that already
    /// carry history (a routing-rules hot-swap reuses the sinks so
    /// `/metrics` lifetime series stay continuous) — without the
    /// rebase, the first window would judge the entire backlog.
    pub fn rebase(&self, now_us: u64) {
        let mut state = self.state.lock().expect("sentinel poisoned");
        state.prior = self.tiers.iter().map(|(_, tel)| tel.snap()).collect();
        state.window_started_us = now_us;
    }

    /// Close the current window immediately regardless of elapsed
    /// time (tests, drain paths).
    pub fn force_tick(&self, now_us: u64) {
        let mut state = self.state.lock().expect("sentinel poisoned");
        self.evaluate(&mut state, now_us);
    }

    fn evaluate(&self, state: &mut SentinelState, now_us: u64) {
        let mut verdicts = Vec::with_capacity(self.tiers.len());
        let mut next_prior = Vec::with_capacity(self.tiers.len());
        for (i, (target, telemetry)) in self.tiers.iter().enumerate() {
            let snap = telemetry.snap();
            let verdict = judge(target, &state.prior[i], &snap);
            verdicts.push(verdict);
            next_prior.push(snap);
        }
        state.prior = next_prior;
        state.verdicts = verdicts;
        state.window_started_us = now_us;
        state.windows_evaluated += 1;
    }

    /// Latest published verdicts, one per tier in registration order.
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        self.state
            .lock()
            .expect("sentinel poisoned")
            .verdicts
            .clone()
    }

    /// Tier keys currently out of contract.
    pub fn violations(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("sentinel poisoned")
            .verdicts
            .iter()
            .filter(|v| !v.in_contract)
            .map(|v| v.key.clone())
            .collect()
    }

    /// Number of windows evaluated so far.
    pub fn windows_evaluated(&self) -> u64 {
        self.state
            .lock()
            .expect("sentinel poisoned")
            .windows_evaluated
    }
}

impl std::fmt::Debug for SloSentinel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloSentinel")
            .field("window_us", &self.window_us)
            .field("tiers", &self.tiers.len())
            .field("windows_evaluated", &self.windows_evaluated())
            .finish()
    }
}

/// Judge one tier's window delta against its target.
fn judge(target: &SloTarget, prior: &TelemetrySnap, current: &TelemetrySnap) -> SloVerdict {
    let requests = current.requests - prior.requests;
    let degraded = current.degraded - prior.degraded;
    // Histogram counts only grow, so the window is the bucket-wise
    // difference of snapshots (merge's inverse).
    let delta_latency = current.latency.delta_since(&prior.latency);
    let latency_at_q = delta_latency.quantile(target.latency_quantile).unwrap_or(0);

    if requests < target.min_requests {
        return SloVerdict {
            key: target.key.clone(),
            in_contract: true,
            reason: format!(
                "insufficient traffic ({requests} < {} requests)",
                target.min_requests
            ),
            window_requests: requests,
            window_degraded: degraded,
            observed_degradation: 0.0,
            latency_us_at_quantile: latency_at_q,
            evaluated: true,
        };
    }

    let err = (current.err_nanos - prior.err_nanos) as f64 / ERR_NANOS / requests as f64;
    let base = (current.baseline_err_nanos - prior.baseline_err_nanos) as f64
        / ERR_NANOS
        / requests as f64;
    let degradation = if base > 0.0 {
        ((err - base) / base).clamp(0.0, DEGRADATION_CAP)
    } else if err > 0.0 {
        DEGRADATION_CAP
    } else {
        0.0
    };

    // Match the rule generator's epsilon so a tier sitting exactly at
    // its advertised tolerance is in contract.
    let quality_ok = degradation <= target.max_degradation + 1e-9;
    let latency_ok = latency_at_q <= target.max_latency_us;
    let reason = if quality_ok && latency_ok {
        "within guarantee".to_string()
    } else if !quality_ok {
        format!(
            "quality degradation {:.4} exceeds tolerance {:.4} ({degraded}/{requests} degraded)",
            degradation, target.max_degradation
        )
    } else {
        format!(
            "p{} latency {}us exceeds bound {}us",
            target.latency_quantile * 100.0,
            latency_at_q,
            target.max_latency_us
        )
    };
    SloVerdict {
        key: target.key.clone(),
        in_contract: quality_ok && latency_ok,
        reason,
        window_requests: requests,
        window_degraded: degraded,
        observed_degradation: degradation,
        latency_us_at_quantile: latency_at_q,
        evaluated: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(key: &str, tol: f64, max_latency_us: u64) -> SloTarget {
        SloTarget {
            key: key.to_string(),
            max_degradation: tol,
            latency_quantile: 0.99,
            max_latency_us,
            min_requests: 5,
        }
    }

    fn feed(tel: &TierTelemetry, n: usize, latency_us: u64, err: f64, base: f64) {
        for _ in 0..n {
            tel.record(latency_us, err, base, false);
        }
    }

    #[test]
    fn initial_verdicts_await_first_window() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        let sentinel = SloSentinel::new(1_000_000, vec![(target("t", 0.05, 10_000), tel)]);
        let v = &sentinel.verdicts()[0];
        assert!(v.in_contract && !v.evaluated);
        assert_eq!(v.reason, "awaiting first window");
    }

    #[test]
    fn tick_only_fires_after_window_elapses() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        assert!(!sentinel.tick(500));
        assert!(sentinel.tick(1_000));
        assert!(!sentinel.tick(1_500));
        assert!(sentinel.tick(2_100));
        assert_eq!(sentinel.windows_evaluated(), 2);
    }

    #[test]
    fn healthy_tier_is_in_contract() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        feed(&tel, 20, 2_000, 0.10, 0.10);
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), Arc::clone(&tel))]);
        sentinel.force_tick(1_000);
        let v = &sentinel.verdicts()[0];
        assert!(v.in_contract, "{}", v.reason);
        assert_eq!(v.reason, "within guarantee");
        assert_eq!(v.window_requests, 20);
        assert!(v.evaluated);
        assert!(sentinel.violations().is_empty());
    }

    #[test]
    fn quality_violation_is_flagged_with_reason() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        // err 0.20 vs baseline 0.10 -> degradation 1.0 >> 0.05.
        feed(&tel, 20, 2_000, 0.20, 0.10);
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        sentinel.force_tick(1_000);
        let v = &sentinel.verdicts()[0];
        assert!(!v.in_contract);
        assert!(v.reason.contains("quality degradation"), "{}", v.reason);
        assert!((v.observed_degradation - 1.0).abs() < 1e-6);
        assert_eq!(sentinel.violations(), vec!["t".to_string()]);
    }

    #[test]
    fn latency_violation_is_flagged_with_reason() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        feed(&tel, 20, 50_000, 0.10, 0.10);
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        sentinel.force_tick(1_000);
        let v = &sentinel.verdicts()[0];
        assert!(!v.in_contract);
        assert!(v.reason.contains("latency"), "{}", v.reason);
    }

    #[test]
    fn rebase_discards_backlog_without_publishing() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        // Backlog recorded before this sentinel existed: way out of
        // contract.
        feed(&tel, 50, 50_000, 0.90, 0.10);
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), Arc::clone(&tel))]);
        sentinel.rebase(5_000);
        // No verdict was published by the rebase itself.
        assert!(!sentinel.verdicts()[0].evaluated);
        assert_eq!(sentinel.windows_evaluated(), 0);
        // The window clock restarted at the rebase instant.
        assert!(!sentinel.tick(5_500));
        // Only post-rebase traffic is judged.
        feed(&tel, 20, 2_000, 0.10, 0.10);
        assert!(sentinel.tick(6_000));
        let v = &sentinel.verdicts()[0];
        assert!(v.in_contract, "{}", v.reason);
        assert_eq!(v.window_requests, 20);
    }

    #[test]
    fn windows_are_deltas_not_lifetimes() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), Arc::clone(&tel))]);
        // Window 1: violating traffic.
        feed(&tel, 10, 2_000, 0.30, 0.10);
        sentinel.force_tick(1_000);
        assert!(!sentinel.verdicts()[0].in_contract);
        // Window 2: healthy traffic only — old violations must not
        // leak into the new window.
        feed(&tel, 10, 2_000, 0.10, 0.10);
        sentinel.force_tick(2_000);
        let v = &sentinel.verdicts()[0];
        assert!(v.in_contract, "{}", v.reason);
        assert_eq!(v.window_requests, 10);
    }

    #[test]
    fn sparse_window_stays_in_contract() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        feed(&tel, 2, 2_000, 0.90, 0.10); // terrible, but only 2 requests
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        sentinel.force_tick(1_000);
        let v = &sentinel.verdicts()[0];
        assert!(v.in_contract);
        assert!(v.reason.contains("insufficient traffic"), "{}", v.reason);
    }

    #[test]
    fn zero_baseline_with_error_caps_degradation_finite() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        feed(&tel, 10, 2_000, 0.10, 0.0);
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        sentinel.force_tick(1_000);
        let v = &sentinel.verdicts()[0];
        assert!(!v.in_contract);
        assert!(v.observed_degradation.is_finite());
    }

    #[test]
    fn degraded_counts_surface_in_verdict() {
        let tel = Arc::new(TierTelemetry::new(BucketScheme::DEFAULT));
        for _ in 0..10 {
            tel.record(2_000, 0.10, 0.10, true);
        }
        let sentinel = SloSentinel::new(1_000, vec![(target("t", 0.05, 10_000), tel)]);
        sentinel.force_tick(1_000);
        assert_eq!(sentinel.verdicts()[0].window_degraded, 10);
    }
}
