//! The tier table: what one rules deployment advertises, resolved once
//! per install so a request resolves its tier once at the door.
//!
//! The API's contract is one rule — a request annotated `Tolerance: t`
//! is served, and billed, as the loosest advertised tier whose
//! tolerance does not exceed `t` ([`tt_core::tier::serving_tier`]).
//! A [`TierTable`] is that rule's domain for one deployment: per
//! objective, ascending, one [`TierEntry`] per advertised tier (plus
//! the strict baseline entry [`RoutingRules::guarantees`] supplies
//! when the rules deploy no explicit 0% tier), each carrying what
//! every layer needs to know about the tier — policy, price, predicted
//! degradation, baseline version, document key — and the sinks every
//! layer records into. [`TierTable::resolve`] turns `(objective,
//! tolerance)` into a [`Tier`] handle; admission, the cache front, the
//! execute prologue, settlement and observability are handed that
//! handle instead of each re-deriving the tier.
//!
//! The service publishes the table through one [`LiveTiers`] cell, so
//! a rules hot-swap is a single store and a request, which holds its
//! table by `Arc` through its handle, sees one deployment generation
//! for its whole life.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};
use tt_core::objective::Objective;
use tt_core::policy::Policy;
use tt_core::profile::ProfileMatrix;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::tier::serving_tier;
use tt_obs::{Counter, SloSentinel, SloTarget, TierTelemetry};
use tt_serve::billing::TierPriceSchedule;
use tt_serve::frontend::TieredFrontend;
use tt_sim::Money;

use crate::obs::ObsConfig;

/// Where one tier's lifetime series accumulate. A rebuild reuses the
/// sinks of every key it has seen before, so `/metrics` series stay
/// continuous across rules hot-swaps.
#[derive(Debug, Default)]
pub struct TierSinks {
    /// What the SLO sentinel holds the tier's guarantee against.
    pub telemetry: Arc<TierTelemetry>,
    pub(crate) admitted: AtomicU64,
    pub(crate) browned_out: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// The registry's `cache_{hit,miss,bypass}:{key}` counters,
    /// registered on the first such event so `/metrics` lists only
    /// series that fired.
    pub(crate) cache: [OnceLock<Arc<Counter>>; 3],
}

/// One advertised tier of one objective.
#[derive(Debug)]
pub struct TierEntry {
    /// The objective whose ladder the tier is on.
    pub objective: Objective,
    /// Advertised tolerance ε (0.0 for the strict baseline entry).
    pub tolerance: f64,
    /// The policy deployed for the tier.
    pub policy: Policy,
    /// `policy` rendered with `Debug`, once per table build, for the
    /// `route` span of every traced request the tier serves.
    pub(crate) policy_text: String,
    /// The tier's price when every request it serves pays the same;
    /// `None` when the price schedule has a breakpoint inside the
    /// tier's span, and the price follows the tolerance sent.
    flat_price: Option<Money>,
    /// Predicted mean relative degradation vs. the baseline, from the
    /// rules' own guarantees (the brownout ladder reads it).
    pub predicted_degradation: f64,
    /// The objective's baseline (premium) version.
    pub baseline_version: usize,
    /// The tier's key on every document: `"{objective}/{tolerance:.3}"`,
    /// e.g. `"cost/0.050"`.
    pub key: String,
    /// Whether the rules advertise the tier (and the sentinel watches
    /// it). Only the lone entry of an objective with no deployed rules
    /// is not.
    pub advertised: bool,
    /// The tier's lifetime series.
    pub sinks: Arc<TierSinks>,
}

impl TierEntry {
    /// Whether the tier is strict: the baseline entry every ladder
    /// starts with, serving tolerance 0. A request resolved to it is
    /// never browned out, rejected or held for batchmates, whatever
    /// tolerance it declared. Every layer asks this; none compares a
    /// declared tolerance to a cutoff of its own.
    pub fn strict(&self) -> bool {
        self.tolerance == 0.0
    }
}

/// One deployment's tiers, the frontend they were built from, and the
/// sentinel watching them.
#[derive(Debug)]
pub struct TierTable {
    pub(crate) frontend: TieredFrontend,
    schedule: TierPriceSchedule,
    /// Per objective, in objective-name order (the order sentinel
    /// verdicts render in), its entries ascending by tolerance.
    ladders: Vec<(Objective, Vec<TierEntry>)>,
    /// The sinks of every tier key this table or an ancestor deployed.
    pub(crate) sinks: BTreeMap<String, Arc<TierSinks>>,
    /// Holds this deployment's advertised guarantees against its
    /// tiers' telemetry.
    pub(crate) sentinel: Arc<SloSentinel>,
}

impl TierTable {
    /// Build the table for a deployment: [`RoutingRules::guarantees`]
    /// evaluated once per objective, one entry and one [`SloTarget`]
    /// per guarantee, sinks taken from `previous` where the key
    /// existed. An objective with no deployed rules gets a single
    /// unadvertised entry holding what [`TieredFrontend::route`] falls
    /// back to, the other objective's baseline.
    ///
    /// # Panics
    ///
    /// Panics if a deployed policy cannot be evaluated against
    /// `matrix` (the frontend would have panicked serving it anyway).
    ///
    /// [`RoutingRules::guarantees`]: tt_core::rulegen::RoutingRules::guarantees
    pub fn build(
        matrix: &ProfileMatrix,
        frontend: TieredFrontend,
        schedule: &TierPriceSchedule,
        config: &ObsConfig,
        previous: Option<&TierTable>,
    ) -> TierTable {
        let mut sinks = previous.map(|t| t.sinks.clone()).unwrap_or_default();
        // An entry over `[tolerance, next)`. Its price is cached where
        // the schedule cannot tell two of its requests apart: no
        // breakpoint above its tolerance and below the next tier's.
        let mut entry =
            |objective: Objective, tolerance: f64, next: Option<f64>, policy, baseline| {
                let key = format!("{objective}/{tolerance:.3}");
                let sinks = sinks.entry(key.clone()).or_default();
                let flat = schedule
                    .tiers()
                    .iter()
                    .all(|&(b, _)| b <= tolerance || next.is_some_and(|hi| b >= hi));
                TierEntry {
                    objective,
                    tolerance,
                    policy,
                    policy_text: format!("{policy:?}"),
                    flat_price: flat.then(|| schedule.price_for(tolerance)),
                    predicted_degradation: 0.0,
                    baseline_version: baseline,
                    key,
                    advertised: true,
                    sinks: Arc::clone(sinks),
                }
            };
        let mut targets = Vec::new();
        let mut objectives: Vec<Objective> = Objective::all().collect();
        objectives.sort_by_key(|o| o.name());
        let mut ladders = Vec::with_capacity(objectives.len());
        for objective in objectives {
            let Some(rules) = frontend.rules().find(|r| r.objective() == objective) else {
                let policy = frontend.route(&ServiceRequest::new(0, Tolerance::ZERO, objective));
                let Policy::Single { version } = policy else {
                    unreachable!("the frontend falls back to a single baseline version")
                };
                let fallback = TierEntry {
                    advertised: false,
                    ..entry(objective, 0.0, None, policy, version)
                };
                ladders.push((objective, vec![fallback]));
                continue;
            };
            let guarantees = rules
                .guarantees(matrix, config.latency_quantile)
                .expect("deployed rules must evaluate against their own matrix");
            let mut entries = Vec::with_capacity(guarantees.len());
            for (i, g) in guarantees.iter().enumerate() {
                let next = guarantees.get(i + 1).map(|g| g.tolerance);
                let tier = TierEntry {
                    predicted_degradation: if g.baseline_mean_err > 0.0 {
                        ((g.predicted_mean_err - g.baseline_mean_err) / g.baseline_mean_err)
                            .max(0.0)
                    } else if g.predicted_mean_err > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    },
                    ..entry(objective, g.tolerance, next, g.policy, g.baseline_version)
                };
                let max_latency_us =
                    (g.predicted_latency_us as f64 * config.latency_headroom.max(1.0)).ceil();
                targets.push((
                    SloTarget {
                        key: tier.key.clone(),
                        max_degradation: g.tolerance,
                        latency_quantile: g.latency_quantile,
                        max_latency_us: max_latency_us as u64,
                        min_requests: config.slo_min_requests,
                    },
                    Arc::clone(&tier.sinks.telemetry),
                ));
                entries.push(tier);
            }
            ladders.push((objective, entries));
        }
        let window_us = config.window.as_micros().max(1) as u64;
        TierTable {
            frontend,
            schedule: schedule.clone(),
            ladders,
            sinks,
            sentinel: Arc::new(SloSentinel::new(window_us, targets)),
        }
    }

    /// The tier serving `tolerance` under `objective`: the one place
    /// the serving layer applies the downward-compatibility rule. A
    /// tolerance below every entry (only a negative one can be) is
    /// served by the strictest.
    pub fn resolve(self: &Arc<Self>, objective: Objective, tolerance: f64) -> Tier {
        let ladder = self
            .ladders
            .iter()
            .position(|(o, _)| *o == objective)
            .expect("the table has a ladder per objective");
        self.tier_at(ladder, tolerance)
    }

    fn tier_at(self: &Arc<Self>, ladder: usize, tolerance: f64) -> Tier {
        let entries = &self.ladders[ladder].1;
        let index = serving_tier(entries, |e| e.tolerance, tolerance).unwrap_or(0);
        Tier {
            table: Arc::clone(self),
            ladder,
            index,
            price: entries[index]
                .flat_price
                .unwrap_or_else(|| self.schedule.price_for(tolerance)),
        }
    }

    /// Every advertised entry, objective by objective, ascending.
    pub fn advertised(&self) -> impl Iterator<Item = &TierEntry> {
        let entries = self.ladders.iter().flat_map(|(_, entries)| entries);
        entries.filter(|e| e.advertised)
    }
}

/// A request's resolved tier: a handle to its [`TierEntry`] (which it
/// derefs to) that keeps the entry's table generation alive, plus the
/// price the request pays.
#[derive(Debug, Clone)]
pub struct Tier {
    table: Arc<TierTable>,
    ladder: usize,
    index: usize,
    /// What a request served as this tier is billed:
    /// [`TierPriceSchedule::price_for`] of the tolerance it sent.
    pub price: Money,
}

impl std::ops::Deref for Tier {
    type Target = TierEntry;

    fn deref(&self) -> &TierEntry {
        &self.table.ladders[self.ladder].1[self.index]
    }
}

impl Tier {
    /// The tier serving `tolerance` on the same objective in the same
    /// table generation — the tier a brownout bills.
    pub fn rebill(&self, tolerance: f64) -> Tier {
        self.table.tier_at(self.ladder, tolerance)
    }

    /// The objective's looser tiers, ascending: the brownout ladder
    /// above this tier.
    pub(crate) fn looser(&self) -> &[TierEntry] {
        &self.table.ladders[self.ladder].1[self.index + 1..]
    }
}

/// The one published [`TierTable`]. The service, its admission
/// controller and its observability share this cell behind an `Arc`;
/// nothing else holds deployment state, so installing new rules is one
/// store into it. Readers clone the `Arc` out (or resolve under the
/// read lock) and never hold the lock across a request.
pub type LiveTiers = RwLock<Arc<TierTable>>;
