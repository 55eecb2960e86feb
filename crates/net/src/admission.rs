//! Tier-aware adaptive admission: an AIMD concurrency limiter that
//! sheds load in *value order* instead of answering overload with
//! tier-blind 503s.
//!
//! The paper's contract is the lever: a request annotated with a loose
//! tolerance has explicitly agreed to a cheaper answer, so under
//! pressure the service can serve it from a cheaper routing plan — a
//! **brownout** — and still honor the annotation. Only when even that
//! is not enough do requests get rejected, with a `Retry-After` hint.
//! A request resolved to a strict tier
//! ([`crate::tiers::TierEntry::strict`]: the 0% baseline every ladder
//! starts with) is never browned out or rejected here, whatever
//! tolerance it declared: it is served and billed as strict, and its
//! latency SLO is the product being sold.
//!
//! Pressure is measured as in-flight requests against an adaptive
//! limit: additive increase each calm sentinel window, multiplicative
//! decrease on any window that saw congestion (front-door queue
//! overflow, brownouts, or rejections). Decisions fall into three
//! bands:
//!
//! ```text
//! pressure <  limit                 → Admit
//! pressure <  limit · reject_factor → Brownout (fall back to Admit if
//!                                     no cheaper plan qualifies)
//! pressure >= limit · reject_factor → Reject (429 + Retry-After)
//! ```
//!
//! Brownout has two rungs, tried cheapest-first:
//!
//! 1. **Looser tier** — serve from the loosest deployed tier whose
//!    *predicted mean degradation* (from the deployment's own
//!    guarantees, as its tier table records them) stays within the
//!    request's declared tolerance, and bill at that tier's cheaper
//!    price.
//! 2. **Plan rewrite** — run the matched tier's own policy but
//!    thriftily: concurrent cascades become sequential, finish-out
//!    becomes early-terminate. Answers are bit-identical (the answer
//!    depends only on confidence vs. threshold), so billing is
//!    unchanged; only speculative compute is shed.

use crate::tiers::{LiveTiers, Tier};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};

/// Tuning for an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Concurrency limit at startup.
    pub initial_limit: usize,
    /// Floor the multiplicative decrease never crosses.
    pub min_limit: usize,
    /// Ceiling the additive increase never crosses.
    pub max_limit: usize,
    /// Slots added per calm window (AIMD's additive step).
    pub additive_increase: usize,
    /// Limit multiplier applied on a congested window, in `(0, 1)`.
    pub decrease_factor: f64,
    /// Pressure at `limit * reject_factor` and beyond is rejected
    /// outright; between `limit` and that point it is browned out.
    /// Must be > 1.
    pub reject_factor: f64,
    /// The `Retry-After` hint attached to rejections, seconds.
    pub retry_after_secs: u64,
}

impl AdmissionConfig {
    /// Generous defaults: the limiter only bites under real overload.
    pub fn defaults() -> Self {
        AdmissionConfig {
            initial_limit: 64,
            min_limit: 4,
            max_limit: 4096,
            additive_increase: 2,
            decrease_factor: 0.5,
            reject_factor: 2.0,
            retry_after_secs: 1,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nonsensical field.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_limit == 0 {
            return Err("min_limit must be >= 1".into());
        }
        if self.min_limit > self.initial_limit || self.initial_limit > self.max_limit {
            return Err(format!(
                "limits must satisfy min <= initial <= max, got {} <= {} <= {}",
                self.min_limit, self.initial_limit, self.max_limit
            ));
        }
        if !(self.decrease_factor > 0.0 && self.decrease_factor < 1.0) {
            return Err(format!(
                "decrease_factor {} outside (0, 1)",
                self.decrease_factor
            ));
        }
        if self.reject_factor <= 1.0 {
            return Err(format!("reject_factor {} must be > 1", self.reject_factor));
        }
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::defaults()
    }
}

/// Which brownout rung served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutLevel {
    /// The matched tier's own policy, rewritten to shed speculative
    /// compute (sequential, early-terminate). Same answers, same bill.
    Rewrite,
    /// A looser deployed tier's policy, within the declared tolerance,
    /// billed at that tier's cheaper price.
    LooserTier,
}

impl BrownoutLevel {
    /// Stable wire/label name (`Brownout:` response header, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            BrownoutLevel::Rewrite => "rewrite",
            BrownoutLevel::LooserTier => "looser-tier",
        }
    }
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Serve on the intended routing plan.
    Admit,
    /// Serve on a cheaper plan that stays within the declared
    /// tolerance.
    Brownout {
        /// The substitute policy to execute.
        policy: Policy,
        /// Tolerance tier to bill (the tier actually served).
        billed_tolerance: f64,
        /// Which rung produced the plan.
        level: BrownoutLevel,
    },
    /// Turn the request away.
    Reject {
        /// `Retry-After` hint, seconds.
        retry_after_secs: u64,
    },
}

/// Per-tier admission tallies (for `/metrics` and load reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierAdmission {
    /// Requests admitted on their intended plan.
    pub admitted: u64,
    /// Requests served via a brownout plan.
    pub browned_out: u64,
    /// Requests rejected.
    pub rejected: u64,
}

/// RAII in-flight marker; dropping it releases the slot.
#[derive(Debug)]
pub struct InFlight {
    counter: Arc<AtomicUsize>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The AIMD admission controller. One per service; shared by every
/// HTTP worker.
pub struct AdmissionController {
    config: AdmissionConfig,
    limit: AtomicUsize,
    in_flight: Arc<AtomicUsize>,
    /// Set by any congestion signal since the last window tick.
    congested: AtomicBool,
    admitted_total: AtomicU64,
    brownouts_total: AtomicU64,
    rejected_total: AtomicU64,
    congestion_events: AtomicU64,
    limit_decreases: AtomicU64,
    /// The deployment whose tiers are decided on and tallied into.
    tiers: Arc<LiveTiers>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("limit", &self.limit.load(Ordering::Relaxed))
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// A controller deciding over the deployment published in `tiers`
    /// (so brownout plans never reference a version a hot-swap
    /// quarantined).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AdmissionConfig::validate`].
    pub fn new(config: AdmissionConfig, tiers: Arc<LiveTiers>) -> Self {
        if let Err(e) = config.validate() {
            panic!("admission config: {e}");
        }
        AdmissionController {
            limit: AtomicUsize::new(config.initial_limit),
            in_flight: Arc::new(AtomicUsize::new(0)),
            congested: AtomicBool::new(false),
            admitted_total: AtomicU64::new(0),
            brownouts_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            congestion_events: AtomicU64::new(0),
            limit_decreases: AtomicU64::new(0),
            tiers,
            config,
        }
    }

    /// Mark a request in flight; pressure stays raised until the guard
    /// drops.
    pub fn begin(&self) -> InFlight {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlight {
            counter: Arc::clone(&self.in_flight),
        }
    }

    /// Requests currently in flight.
    pub fn pressure(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The current concurrency limit.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::SeqCst)
    }

    /// Install an externally chosen concurrency limit — the capacity
    /// tuner's fast path on a traffic surge — clamped to the
    /// configured `min_limit..=max_limit` bounds. Returns the limit
    /// actually installed; AIMD pacing continues from it on the next
    /// window tick.
    pub fn set_limit(&self, limit: usize) -> usize {
        let clamped = limit.clamp(self.config.min_limit, self.config.max_limit);
        self.limit.store(clamped, Ordering::SeqCst);
        clamped
    }

    /// Report a congestion signal from outside the decision path (the
    /// front door's dispatch queue overflowing).
    pub fn on_congestion(&self) {
        self.congestion_events.fetch_add(1, Ordering::SeqCst);
        self.congested.store(true, Ordering::SeqCst);
    }

    /// Close one AIMD window: multiplicative decrease if anything
    /// congested since the last tick, additive increase otherwise.
    /// Returns the new limit.
    pub fn on_window_tick(&self) -> usize {
        let congested = self.congested.swap(false, Ordering::SeqCst);
        let limit = self.limit.load(Ordering::SeqCst);
        let next = if congested {
            self.limit_decreases.fetch_add(1, Ordering::SeqCst);
            ((limit as f64 * self.config.decrease_factor).floor() as usize)
                .max(self.config.min_limit)
        } else {
            limit
                .saturating_add(self.config.additive_increase)
                .min(self.config.max_limit)
        };
        self.limit.store(next, Ordering::SeqCst);
        next
    }

    /// Decide a request's fate at the live pressure reading.
    pub fn decide(&self, objective: Objective, tolerance: f64) -> AdmissionDecision {
        self.decide_at(objective, tolerance, self.pressure())
    }

    /// [`AdmissionController::decide`] at an explicit pressure reading
    /// (deterministic tests drive this directly).
    pub fn decide_at(
        &self,
        objective: Objective,
        tolerance: f64,
        pressure: usize,
    ) -> AdmissionDecision {
        let tier = self.tiers.read().resolve(objective, tolerance);
        self.decide_tier(&tier, tolerance, pressure)
    }

    /// Decide the fate of a request declaring `tolerance`, already
    /// resolved to `tier`, at `pressure`. A strict tier is admitted
    /// at any pressure.
    pub fn decide_tier(&self, tier: &Tier, tolerance: f64, pressure: usize) -> AdmissionDecision {
        let limit = self.limit();
        let decision = if pressure < limit || tier.strict() {
            AdmissionDecision::Admit
        } else if (pressure as f64) < limit as f64 * self.config.reject_factor {
            self.congested.store(true, Ordering::SeqCst);
            brownout_plan(tier, tolerance).unwrap_or(AdmissionDecision::Admit)
        } else {
            self.congested.store(true, Ordering::SeqCst);
            AdmissionDecision::Reject {
                retry_after_secs: self.config.retry_after_secs,
            }
        };
        let (total, tally) = match decision {
            AdmissionDecision::Admit => (&self.admitted_total, &tier.sinks.admitted),
            AdmissionDecision::Brownout { .. } => (&self.brownouts_total, &tier.sinks.browned_out),
            AdmissionDecision::Reject { .. } => (&self.rejected_total, &tier.sinks.rejected),
        };
        total.fetch_add(1, Ordering::SeqCst);
        tally.fetch_add(1, Ordering::SeqCst);
        decision
    }

    /// Lifetime totals: `(admitted, browned_out, rejected)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.admitted_total.load(Ordering::SeqCst),
            self.brownouts_total.load(Ordering::SeqCst),
            self.rejected_total.load(Ordering::SeqCst),
        )
    }

    /// Congestion signals reported via
    /// [`AdmissionController::on_congestion`].
    pub fn congestion_events(&self) -> u64 {
        self.congestion_events.load(Ordering::SeqCst)
    }

    /// Windows that closed with a multiplicative decrease.
    pub fn limit_decreases(&self) -> u64 {
        self.limit_decreases.load(Ordering::SeqCst)
    }

    /// Per-tier tallies sorted by tier key, for every tier a request
    /// was ever decided on.
    pub fn tier_admissions(&self) -> Vec<(String, TierAdmission)> {
        let table = self.tiers.read();
        let tallies = table.sinks.iter().map(|(key, sinks)| {
            let tally = TierAdmission {
                admitted: sinks.admitted.load(Ordering::SeqCst),
                browned_out: sinks.browned_out.load(Ordering::SeqCst),
                rejected: sinks.rejected.load(Ordering::SeqCst),
            };
            (key.clone(), tally)
        });
        tallies
            .filter(|(_, tally)| *tally != TierAdmission::default())
            .collect()
    }

    /// The `Retry-After` hint for shed responses, seconds.
    pub fn retry_after_secs(&self) -> u64 {
        self.config.retry_after_secs
    }
}

/// The cheapest qualifying brownout plan for a request served as
/// `tier`, or `None` when even the rewrite rung changes nothing.
fn brownout_plan(tier: &Tier, tolerance: f64) -> Option<AdmissionDecision> {
    // Rung 1: the loosest deployed tier still inside the declared
    // tolerance, by the rules' own degradation predictions.
    if let Some(looser) = tier
        .looser()
        .iter()
        .rev()
        .find(|t| t.predicted_degradation <= tolerance + 1e-9)
    {
        return Some(AdmissionDecision::Brownout {
            policy: looser.policy,
            billed_tolerance: looser.tolerance,
            level: BrownoutLevel::LooserTier,
        });
    }
    // Rung 2: same tier, thrifty execution.
    let thrifty = thrifty_plan(tier.policy);
    (thrifty != tier.policy).then_some(AdmissionDecision::Brownout {
        policy: thrifty,
        billed_tolerance: tolerance,
        level: BrownoutLevel::Rewrite,
    })
}

/// The always-safe plan rewrite: identical answers (confidence vs.
/// threshold is scheduling-independent), strictly less speculative
/// compute.
fn thrifty_plan(policy: Policy) -> Policy {
    match policy {
        Policy::Cascade {
            cheap,
            accurate,
            threshold,
            ..
        } => Policy::Cascade {
            cheap,
            accurate,
            threshold,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frontend, demo_matrix};
    use crate::obs::ObsConfig;
    use crate::tiers::TierTable;
    use tt_core::profile::ProfileMatrix;
    use tt_core::rulegen::RoutingRuleGenerator;
    use tt_serve::billing::TierPriceSchedule;
    use tt_serve::frontend::TieredFrontend;
    use tt_sim::Money;

    /// A limit-8 controller (reject at 16) over `frontend`'s tiers on
    /// the demo matrix.
    fn controller_over(frontend: impl Fn(&ProfileMatrix) -> TieredFrontend) -> AdmissionController {
        let matrix = demo_matrix(120, 5);
        let table = TierTable::build(
            &matrix,
            frontend(&matrix),
            &TierPriceSchedule::list_prices(Money::from_dollars(0.001)),
            &ObsConfig::defaults(),
            None,
        );
        AdmissionController::new(
            AdmissionConfig {
                initial_limit: 8,
                ..AdmissionConfig::defaults()
            },
            Arc::new(LiveTiers::new(Arc::new(table))),
        )
    }

    fn controller() -> AdmissionController {
        controller_over(|matrix| demo_frontend(matrix, 5))
    }

    #[test]
    fn bands_partition_pressure() {
        let ctl = controller(); // limit 8, reject at 16
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 0),
            AdmissionDecision::Admit
        );
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 7),
            AdmissionDecision::Admit
        );
        assert!(matches!(
            ctl.decide_at(Objective::Cost, 0.10, 8),
            AdmissionDecision::Brownout { .. } | AdmissionDecision::Admit
        ));
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 16),
            AdmissionDecision::Reject {
                retry_after_secs: 1
            }
        );
    }

    #[test]
    fn strict_tiers_are_always_admitted() {
        // Everything declared below the demo's 1% tier resolves to the
        // strict baseline, is billed as it, and so is admitted as it.
        let ctl = controller(); // limit 8, reject at 16
        for objective in [Objective::ResponseTime, Objective::Cost] {
            for declared in [0.0, 0.004, 0.005, 0.007, 0.0099] {
                for pressure in [0, 8, 16, 1000] {
                    assert_eq!(
                        ctl.decide_at(objective, declared, pressure),
                        AdmissionDecision::Admit,
                        "{objective} declared {declared} at pressure {pressure}"
                    );
                }
            }
            assert_eq!(
                ctl.decide_at(objective, 0.01, 16),
                AdmissionDecision::Reject {
                    retry_after_secs: 1
                },
                "{objective} declared 0.01"
            );
        }
    }

    #[test]
    fn brownout_stays_within_declared_tolerance() {
        let ctl = controller();
        for objective in [Objective::ResponseTime, Objective::Cost] {
            for declared in [0.01, 0.05, 0.10] {
                if let AdmissionDecision::Brownout {
                    billed_tolerance,
                    level,
                    ..
                } = ctl.decide_at(objective, declared, 8)
                {
                    if level == BrownoutLevel::LooserTier {
                        let tier = ctl.tiers.read().resolve(objective, billed_tolerance);
                        assert_eq!(tier.tolerance, billed_tolerance, "billed tier is deployed");
                        assert!(
                            tier.predicted_degradation <= declared + 1e-9,
                            "{objective} declared {declared}: browned to {billed_tolerance} \
                             predicting {}",
                            tier.predicted_degradation
                        );
                    } else {
                        assert_eq!(billed_tolerance, declared);
                    }
                }
            }
        }
    }

    #[test]
    fn rewrite_rung_preserves_the_tier_and_changes_only_execution() {
        let p = Policy::Cascade {
            cheap: 0,
            accurate: 2,
            threshold: 0.8,
            scheduling: Scheduling::Concurrent,
            termination: Termination::FinishOut,
        };
        assert_eq!(
            thrifty_plan(p),
            Policy::Cascade {
                cheap: 0,
                accurate: 2,
                threshold: 0.8,
                scheduling: Scheduling::Sequential,
                termination: Termination::EarlyTerminate,
            }
        );
        let single = Policy::Single { version: 1 };
        assert_eq!(thrifty_plan(single), single);
    }

    #[test]
    fn aimd_decreases_on_congestion_and_recovers_additively() {
        let ctl = controller();
        ctl.set_limit(64);
        ctl.on_congestion();
        assert_eq!(ctl.on_window_tick(), 32);
        ctl.on_congestion();
        assert_eq!(ctl.on_window_tick(), 16);
        // Calm windows recover linearly.
        assert_eq!(ctl.on_window_tick(), 18);
        assert_eq!(ctl.on_window_tick(), 20);
        assert_eq!(ctl.limit_decreases(), 2);
        assert_eq!(ctl.congestion_events(), 2);
        // The floor holds.
        for _ in 0..20 {
            ctl.on_congestion();
            ctl.on_window_tick();
        }
        assert_eq!(ctl.limit(), 4);
    }

    #[test]
    fn shed_band_decisions_mark_the_window_congested() {
        let ctl = controller(); // limit 8
        let _ = ctl.decide_at(Objective::Cost, 0.10, 20); // reject band
        assert_eq!(ctl.on_window_tick(), 4); // 8 * 0.5
    }

    #[test]
    fn in_flight_guard_tracks_pressure() {
        let ctl = controller();
        assert_eq!(ctl.pressure(), 0);
        let a = ctl.begin();
        let b = ctl.begin();
        assert_eq!(ctl.pressure(), 2);
        drop(a);
        assert_eq!(ctl.pressure(), 1);
        drop(b);
        assert_eq!(ctl.pressure(), 0);
    }

    #[test]
    fn per_tier_tallies_accumulate() {
        let ctl = controller();
        let _ = ctl.decide_at(Objective::Cost, 0.10, 0); // admit
        let _ = ctl.decide_at(Objective::Cost, 0.10, 20); // reject
        let _ = ctl.decide_at(Objective::ResponseTime, 0.0, 20); // strict admit
        let tiers = ctl.tier_admissions();
        let cost = tiers
            .iter()
            .find(|(k, _)| k == "cost/0.100")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(cost.admitted, 1);
        assert_eq!(cost.rejected, 1);
        let strict = tiers
            .iter()
            .find(|(k, _)| k == "response-time/0.000")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(strict.admitted, 1);
        let (admitted, browned, rejected) = ctl.totals();
        assert_eq!(admitted + browned + rejected, 3);
    }

    #[test]
    fn empty_table_admits_in_the_brownout_band() {
        // Rules that advertise no tier leave each ladder its strict
        // baseline entry alone: no looser tier, nothing to rewrite.
        let ctl = controller_over(|matrix| {
            let gen = RoutingRuleGenerator::with_defaults(matrix, 0.95, 5).unwrap();
            TieredFrontend::new(vec![gen.generate(&[], Objective::Cost).unwrap()])
        });
        for objective in [Objective::Cost, Objective::ResponseTime] {
            assert_eq!(ctl.decide_at(objective, 0.10, 8), AdmissionDecision::Admit);
        }
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(AdmissionConfig::defaults().validate().is_ok());
        for bad in [
            AdmissionConfig {
                min_limit: 0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                min_limit: 100,
                initial_limit: 10,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                decrease_factor: 1.0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                reject_factor: 1.0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                initial_limit: 8192,
                ..AdmissionConfig::defaults()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
