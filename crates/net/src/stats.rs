//! Rendering a [`ServiceSnapshot`] as the `/stats` JSON document.
//!
//! The document reuses [`tt_bench::perfjson`] (the workspace's
//! hand-rolled emitter — `serde_json` is not vendored) so `/stats`
//! and the `BENCH_*.json` artifacts share one JSON dialect:
//! insertion-ordered keys, finite numbers only, stable diffs.

use crate::doc::document_root;
use crate::service::ServiceSnapshot;
use tt_bench::perfjson::{Json, JsonObject};
use tt_sim::LatencyRecorder;

/// Percentiles of a tier's latency in milliseconds, as a JSON object.
/// Empty recorders render as an empty object rather than lying with
/// zeros.
///
/// One [`LatencyRecorder::quantiles`] batch serves all four keys: the
/// recorder sorts its samples once per scrape instead of once per
/// percentile, and never mutates the samples it renders from.
fn latency_object(latency: &LatencyRecorder) -> JsonObject {
    let Some(quantiles) = latency.quantiles(&[0.50, 0.99, 0.999, 1.0]) else {
        return JsonObject::new();
    };
    JsonObject::new()
        .with_num("p50_ms", quantiles[0])
        .with_num("p99_ms", quantiles[1])
        .with_num("p999_ms", quantiles[2])
        .with_num("max_ms", quantiles[3])
}

/// Fold a snapshot into the `/stats` document.
pub fn stats_document(snapshot: &ServiceSnapshot, uptime_ms: u64) -> JsonObject {
    let tier_bills = &snapshot.billing.tiers;
    let tiers: Vec<Json> = snapshot
        .trace
        .by_tier()
        .iter()
        .map(|(key, tier)| {
            let (objective, tol_milli) = key;
            let mut obj = JsonObject::new()
                .with_str("objective", objective)
                .with_num("tolerance", f64::from(*tol_milli) / 1000.0)
                .with_int("requests", tier.requests as i64)
                .with_num("mean_quality_err", tier.mean_err)
                .with("latency", Json::Object(latency_object(&tier.latency)));
            if let Some(bill) = tier_bills.get(key) {
                obj = obj.with_num("revenue_usd", bill.revenue.as_dollars());
            }
            Json::Object(obj)
        })
        .collect();

    let r = &snapshot.resilience;
    let resilience = JsonObject::new()
        .with_int("total_requests", r.total_requests as i64)
        .with_int("failed_invocations", r.failed_invocations as i64)
        .with_int("slow_invocations", r.slow_invocations as i64)
        .with_int("retries", r.retries as i64)
        .with_int("hedges", r.hedges as i64)
        .with_int("breaker_sheds", r.breaker_sheds as i64)
        .with_int("degraded_responses", r.degraded_responses as i64)
        .with_int(
            "tolerance_violations_under_fault",
            r.tolerance_violations_under_fault as i64,
        )
        .with_int("dropped_requests", r.dropped_requests as i64)
        .with_num("availability", r.availability());

    let billing = JsonObject::new()
        .with_num("revenue_usd", snapshot.billing.revenue.as_dollars())
        .with_num(
            "compute_cost_usd",
            snapshot.billing.compute_cost.as_dollars(),
        )
        .with_num("margin_usd", snapshot.billing.margin().as_dollars());

    let mut doc = document_root(uptime_ms)
        .with_int("served", snapshot.served as i64)
        .with("tiers", Json::Array(tiers))
        .with("billing", Json::Object(billing))
        .with("resilience", Json::Object(resilience));
    if let Some(cache) = &snapshot.cache {
        doc = doc.with("cache", Json::Object(cache_object(cache)));
    }
    doc
}

/// The result-cache subtree of `/stats`: raw counters plus the derived
/// hit ratio (hits over consults; bypasses don't consult the cache).
fn cache_object(stats: &tt_cache::CacheStats) -> JsonObject {
    let hits = stats.hits_exact + stats.hits_semantic;
    let consults = hits + stats.misses;
    JsonObject::new()
        .with_int("epoch", stats.epoch as i64)
        .with_int("entries", stats.entries as i64)
        .with_int("hits_exact", stats.hits_exact as i64)
        .with_int("hits_semantic", stats.hits_semantic as i64)
        .with_int("misses", stats.misses as i64)
        .with_int("stale_lookups", stats.stale_lookups as i64)
        .with_int("expired", stats.expired as i64)
        .with_int("inserts", stats.inserts as i64)
        .with_int("kept", stats.kept as i64)
        .with_int("rejected_admission", stats.rejected_admission as i64)
        .with_int("rejected_stale", stats.rejected_stale as i64)
        .with_int("evictions", stats.evictions as i64)
        .with_int("purges", stats.purges as i64)
        .with_num(
            "hit_ratio",
            if consults == 0 {
                0.0
            } else {
                hits as f64 / consults as f64
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_serve::billing::{BillingReport, TierPriceSchedule};
    use tt_serve::resilience::ResilienceStats;
    use tt_serve::trace::{TraceEvent, TraceRecorder};
    use tt_sim::{Money, SimTime};

    #[test]
    fn renders_tiers_billing_and_resilience() {
        let mut trace = TraceRecorder::new();
        for (i, tol) in [(0u64, 0.0), (1, 0.05), (2, 0.05)] {
            trace.record(TraceEvent {
                arrival: SimTime::from_micros(i * 100),
                responded: SimTime::from_micros(i * 100 + 2_000),
                tolerance: tol,
                objective: tt_core::objective::Objective::Cost,
                answered_by: 0,
                quality_err: 0.25,
            });
        }
        let schedule = TierPriceSchedule::list_prices(Money::from_dollars(0.001));
        let snapshot = ServiceSnapshot {
            served: 3,
            billing: BillingReport::from_trace(&trace, &schedule, Money::from_dollars(0.0001)),
            trace,
            resilience: ResilienceStats {
                total_requests: 3,
                retries: 1,
                ..ResilienceStats::default()
            },
            cache: None,
        };
        let doc = stats_document(&snapshot, 1234).render();
        assert!(doc.contains("\"service\": \"toltiers\""));
        assert!(doc.contains("\"served\": 3"));
        assert!(doc.contains("\"tolerance\": 0.05"));
        assert!(doc.contains("\"p999_ms\": 2"));
        assert!(doc.contains("\"retries\": 1"));
        assert!(doc.contains("\"availability\": 1"));
        assert!(doc.contains("\"revenue_usd\""));
        assert!(doc.contains("\"margin_usd\""));
    }

    #[test]
    fn scraping_does_not_mutate_or_reorder_the_samples() {
        let mut recorder = tt_sim::LatencyRecorder::new();
        // Deliberately unsorted arrival order.
        for us in [9_000, 1_000, 7_000, 3_000, 5_000] {
            recorder.record(tt_sim::SimDuration::from_micros(us));
        }
        let before: Vec<f64> = recorder.samples_ms().to_vec();
        let first = latency_object(&recorder).render();
        let second = latency_object(&recorder).render();
        assert_eq!(first, second, "scrapes must be idempotent");
        assert_eq!(
            recorder.samples_ms(),
            &before[..],
            "scraping must not sort or mutate the recorder's samples"
        );
        // The batched quantiles agree with the one-at-a-time
        // percentile the old implementation computed.
        for (key, q) in [
            ("p50_ms", 0.50),
            ("p99_ms", 0.99),
            ("p999_ms", 0.999),
            ("max_ms", 1.0),
        ] {
            let expected = tt_stats::descriptive::percentile(recorder.samples_ms(), q).unwrap();
            assert!(
                first.contains(&format!("\"{key}\": {expected}")),
                "{key}: expected {expected} in {first}"
            );
        }
    }

    #[test]
    fn empty_snapshot_renders_without_panicking() {
        let snapshot = ServiceSnapshot {
            served: 0,
            trace: TraceRecorder::new(),
            resilience: ResilienceStats::default(),
            billing: BillingReport::from_trace(
                &TraceRecorder::new(),
                &TierPriceSchedule::list_prices(Money::from_dollars(0.001)),
                Money::ZERO,
            ),
            cache: None,
        };
        let doc = stats_document(&snapshot, 0).render();
        assert!(doc.contains("\"tiers\": []"));
        assert!(doc.contains("\"served\": 0"));
        assert!(!doc.contains("\"cache\""), "cache-off omits the subtree");
    }

    #[test]
    fn cache_subtree_renders_counters_and_hit_ratio() {
        let snapshot = ServiceSnapshot {
            served: 0,
            trace: TraceRecorder::new(),
            resilience: ResilienceStats::default(),
            billing: BillingReport::from_trace(
                &TraceRecorder::new(),
                &TierPriceSchedule::list_prices(Money::from_dollars(0.001)),
                Money::ZERO,
            ),
            cache: Some(tt_cache::CacheStats {
                epoch: 3,
                entries: 10,
                hits_exact: 30,
                hits_semantic: 10,
                misses: 40,
                stale_lookups: 1,
                expired: 0,
                inserts: 12,
                kept: 2,
                rejected_admission: 4,
                rejected_stale: 1,
                evictions: 2,
                purges: 2,
            }),
        };
        let doc = stats_document(&snapshot, 0).render();
        assert!(doc.contains("\"cache\""));
        assert!(doc.contains("\"hits_exact\": 30"));
        assert!(doc.contains("\"hits_semantic\": 10"));
        assert!(doc.contains("\"misses\": 40"));
        assert!(doc.contains("\"hit_ratio\": 0.5"));
        assert!(doc.contains("\"purges\": 2"));
    }
}
