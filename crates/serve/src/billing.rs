//! Tier pricing and provider economics.
//!
//! The paper's motivation includes cost-critical consumers ("API
//! consumers pay per use of the cloud service API each time it is
//! invoked — cutting into their application's revenue") and frames
//! Tolerance Tiers like EC2 instance families: differentiated products
//! at differentiated prices. This module closes that loop: a
//! [`TierPriceSchedule`] maps tolerance to a per-invocation price
//! (looser tolerance = cheaper calls), and a [`BillingReport`] folds a
//! serving trace into provider revenue, compute cost and margin per
//! tier.

use crate::trace::TraceRecorder;
use std::collections::BTreeMap;
use tt_core::tier::serving_tier;
use tt_sim::Money;

/// Per-invocation prices by tolerance tier (descending price as
/// tolerance loosens).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TierPriceSchedule {
    /// `(tolerance, price)` sorted ascending by tolerance.
    prices: Vec<(f64, Money)>,
}

impl TierPriceSchedule {
    /// Build a schedule from `(tolerance, price)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `prices` is empty, tolerances are not strictly
    /// ascending from 0.0, or prices are not non-increasing (a looser
    /// tier must not cost more — nobody would buy the stricter one
    /// otherwise... the other way around: a looser tier costing more
    /// would never be bought).
    pub fn new(mut prices: Vec<(f64, Money)>) -> Self {
        assert!(!prices.is_empty(), "schedule needs at least one tier");
        prices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite tolerances"));
        assert_eq!(prices[0].0, 0.0, "schedule must anchor the 0% tier");
        for w in prices.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate tier tolerance");
            assert!(
                w[1].1 <= w[0].1,
                "looser tiers must not cost more than stricter ones"
            );
        }
        TierPriceSchedule { prices }
    }

    /// A default schedule mirroring the paper's headline tiers: full
    /// price at 0%, ~20% off at 1%, ~50% off at 5%, ~65% off at 10%.
    pub fn list_prices(base: Money) -> Self {
        TierPriceSchedule::new(vec![
            (0.0, base),
            (0.01, base.scaled(0.8)),
            (0.05, base.scaled(0.5)),
            (0.10, base.scaled(0.35)),
        ])
    }

    /// Price for a requested tolerance: the *largest* tier tolerance
    /// not exceeding the request's (same downward-compatibility rule
    /// the routing tables use).
    pub fn price_for(&self, tolerance: f64) -> Money {
        let tier = serving_tier(&self.prices, |&(tol, _)| tol, tolerance).unwrap_or(0);
        self.prices[tier].1
    }

    /// The schedule's `(tolerance, price)` pairs.
    pub fn tiers(&self) -> &[(f64, Money)] {
        &self.prices
    }
}

/// Provider economics for one tier.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TierEconomics {
    /// Requests billed.
    pub requests: usize,
    /// Revenue collected.
    pub revenue: Money,
}

/// Revenue per tier plus the run's compute cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BillingReport {
    /// Economics keyed by `(objective, tolerance-in-tenths-of-percent)`.
    pub tiers: BTreeMap<(String, u32), TierEconomics>,
    /// Total revenue.
    pub revenue: Money,
    /// Compute cost of the run (from the serving ledger).
    pub compute_cost: Money,
}

impl BillingReport {
    /// Fold a serving trace and its compute cost into tier economics.
    pub fn from_trace(
        trace: &TraceRecorder,
        schedule: &TierPriceSchedule,
        compute_cost: Money,
    ) -> Self {
        let mut tiers: BTreeMap<(String, u32), TierEconomics> = BTreeMap::new();
        for e in trace.events() {
            let price = schedule.price_for(e.tolerance);
            let key = (
                e.objective.to_string(),
                (e.tolerance * 1000.0).round() as u32,
            );
            let slot = tiers.entry(key).or_insert(TierEconomics {
                requests: 0,
                revenue: Money::ZERO,
            });
            slot.requests += 1;
            slot.revenue += price;
        }
        // Total the tiers in key order, not trace order: live traces
        // record events in thread-completion order, and summing f64
        // prices in a varying order varies the total by an ulp.
        let mut revenue = Money::ZERO;
        for econ in tiers.values() {
            revenue += econ.revenue;
        }
        BillingReport {
            tiers,
            revenue,
            compute_cost,
        }
    }

    /// Build from pre-accumulated per-tier economics — the shape a
    /// live server keeps incrementally so billing stays exact even
    /// when its trace ring has evicted old events. Revenue totals in
    /// key order for the same ulp-determinism as
    /// [`BillingReport::from_trace`].
    pub fn from_parts(tiers: BTreeMap<(String, u32), TierEconomics>, compute_cost: Money) -> Self {
        let mut revenue = Money::ZERO;
        for econ in tiers.values() {
            revenue += econ.revenue;
        }
        BillingReport {
            tiers,
            revenue,
            compute_cost,
        }
    }

    /// Gross margin: revenue minus compute cost.
    pub fn margin(&self) -> Money {
        self.revenue + self.compute_cost.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use tt_core::objective::Objective;
    use tt_sim::SimTime;

    fn schedule() -> TierPriceSchedule {
        TierPriceSchedule::list_prices(Money::from_dollars(0.001))
    }

    #[test]
    fn price_lookup_uses_downward_compatibility() {
        let s = schedule();
        assert_eq!(s.price_for(0.0), Money::from_dollars(0.001));
        // 3% tolerance is served (and billed) as the 1% tier.
        assert_eq!(s.price_for(0.03), Money::from_dollars(0.0008));
        assert_eq!(s.price_for(0.10), Money::from_dollars(0.00035));
        assert_eq!(s.price_for(5.0), Money::from_dollars(0.00035));
    }

    #[test]
    #[should_panic(expected = "anchor the 0% tier")]
    fn schedule_requires_zero_anchor() {
        TierPriceSchedule::new(vec![(0.01, Money::from_dollars(1.0))]);
    }

    #[test]
    #[should_panic(expected = "must not cost more")]
    fn schedule_rejects_inverted_prices() {
        TierPriceSchedule::new(vec![
            (0.0, Money::from_dollars(1.0)),
            (0.05, Money::from_dollars(2.0)),
        ]);
    }

    #[test]
    fn billing_folds_traces_into_margin() {
        let mut trace = TraceRecorder::new();
        for (tol, n) in [(0.0, 3usize), (0.05, 2)] {
            for i in 0..n {
                trace.record(TraceEvent {
                    arrival: SimTime::from_micros(i as u64),
                    responded: SimTime::from_micros(i as u64 + 10),
                    tolerance: tol,
                    objective: Objective::ResponseTime,
                    answered_by: 0,
                    quality_err: 0.0,
                });
            }
        }
        let report = BillingReport::from_trace(&trace, &schedule(), Money::from_dollars(0.001));
        // 3 × 0.001 + 2 × 0.0005.
        assert!((report.revenue.as_dollars() - 0.004).abs() < 1e-12);
        assert!((report.margin().as_dollars() - 0.003).abs() < 1e-12);
        assert_eq!(report.tiers.len(), 2);
        assert_eq!(report.tiers[&("response-time".to_string(), 0)].requests, 3);
    }
}
