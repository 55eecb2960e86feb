//! The `/metrics` document: live registry totals, per-tier telemetry,
//! and the SLO sentinel's latest verdicts, rendered in the workspace's
//! perfjson dialect.
//!
//! Layout contract: everything under `"totals"` derives from integer
//! accumulators (counters, fixed-point error sums, histogram bucket
//! counts), so a fixed request set renders a byte-identical `"totals"`
//! object regardless of thread interleaving. Wall-clock facts
//! (`uptime_ms`) and sentinel cadence (`windows_evaluated`, which
//! depends on accept-loop timing) deliberately live *outside* it.

use crate::admission::AdmissionController;
use crate::doc::{document_root, histogram_object};
use crate::obs::Observability;
use crate::service::SupervisorStatus;
use tt_bench::perfjson::{Json, JsonObject};
use tt_obs::SloVerdict;

fn verdict_object(v: &SloVerdict) -> JsonObject {
    JsonObject::new()
        .with_str("tier", &v.key)
        .with("in_contract", Json::Bool(v.in_contract))
        .with("evaluated", Json::Bool(v.evaluated))
        .with_str("reason", &v.reason)
        .with_int("window_requests", v.window_requests as i64)
        .with_int("window_degraded", v.window_degraded as i64)
        .with_num("observed_degradation", v.observed_degradation)
        .with_int("latency_us_at_quantile", v.latency_us_at_quantile as i64)
}

/// Build the `/metrics` document for a service's observability.
pub fn metrics_document(obs: &Observability, uptime_ms: u64) -> JsonObject {
    let snap = obs.registry().snapshot();

    let mut counters = JsonObject::new();
    for (name, value) in &snap.counters {
        counters = counters.with_int(name, *value as i64);
    }
    let mut gauges = JsonObject::new();
    for (name, value) in &snap.gauges {
        gauges = gauges.with_int(name, *value);
    }
    let mut histograms = JsonObject::new();
    for (name, hist) in &snap.histograms {
        histograms = histograms.with(name, Json::Object(histogram_object(hist)));
    }

    let mut tiers = JsonObject::new();
    for (key, telemetry) in obs.tier_telemetry() {
        let mut tier = JsonObject::new()
            .with_int("requests", telemetry.requests() as i64)
            .with_int("degraded", telemetry.degraded() as i64);
        if let Some(mean_err) = telemetry.mean_err() {
            tier = tier.with_num("mean_quality_err", mean_err);
        }
        tier = tier.with(
            "latency_us",
            Json::Object(histogram_object(&telemetry.latency().snapshot())),
        );
        tiers = tiers.with(&key, Json::Object(tier));
    }

    // Drop accounting lives inside "totals": for a fixed request set
    // both series-cap overflows and trace-ring evictions are
    // deterministic, and the fault-free e2e asserts both are zero.
    let totals = JsonObject::new()
        .with("counters", Json::Object(counters))
        .with("gauges", Json::Object(gauges))
        .with("histograms", Json::Object(histograms))
        .with("tiers", Json::Object(tiers))
        .with_int("dropped_series", snap.dropped_series as i64)
        .with_int("dropped_traces", obs.tracer().dropped_traces() as i64);

    let sentinel = obs.sentinel();
    let verdicts: Vec<Json> = sentinel
        .verdicts()
        .iter()
        .map(|v| Json::Object(verdict_object(v)))
        .collect();
    let slo = JsonObject::new()
        .with_int("window_ms", (sentinel.window_us() / 1_000) as i64)
        .with_int("windows_evaluated", obs.windows_evaluated() as i64)
        .with("tiers", Json::Array(verdicts));

    // Telemetry-window ring accounting; sealing cadence is wall-clock
    // driven, so like `uptime_ms` it lives outside "totals".
    let windows = JsonObject::new()
        .with_int("window_ms", (obs.windows().window_us() / 1_000) as i64)
        .with_int("sealed_total", obs.windows().sealed_count() as i64)
        .with_int("dropped_windows", obs.windows().dropped_windows() as i64);

    document_root(uptime_ms)
        .with("totals", Json::Object(totals))
        .with("slo", Json::Object(slo))
        .with("windows", Json::Object(windows))
        .with_int("events_last_seq", obs.events().last_seq() as i64)
}

/// Render the admission controller's state: the live AIMD limit,
/// current pressure, shed/brownout/reject totals, and the same split
/// per tier.
pub fn admission_object(admission: &AdmissionController) -> JsonObject {
    let (admitted, browned_out, rejected) = admission.totals();
    let mut tiers = JsonObject::new();
    for (key, tier) in admission.tier_admissions() {
        tiers = tiers.with(
            &key,
            Json::Object(
                JsonObject::new()
                    .with_int("admitted", tier.admitted as i64)
                    .with_int("browned_out", tier.browned_out as i64)
                    .with_int("rejected", tier.rejected as i64),
            ),
        );
    }
    JsonObject::new()
        .with_int("limit", admission.limit() as i64)
        .with_int("in_flight", admission.pressure() as i64)
        .with_int("admitted", admitted as i64)
        .with_int("browned_out", browned_out as i64)
        .with_int("rejected", rejected as i64)
        .with_int("congestion_events", admission.congestion_events() as i64)
        .with_int("limit_decreases", admission.limit_decreases() as i64)
        .with_int("retry_after_secs", admission.retry_after_secs() as i64)
        .with("tiers", Json::Object(tiers))
}

/// Render the rule supervisor's state: rules revision, canary flag,
/// quarantined versions, lifetime transition counts, and the ordered
/// transition log.
pub fn supervisor_object(status: &SupervisorStatus) -> JsonObject {
    let quarantined: Vec<Json> = status
        .quarantined
        .iter()
        .map(|&v| Json::Int(v as i64))
        .collect();
    let transitions: Vec<Json> = status.log.iter().cloned().map(Json::Str).collect();
    JsonObject::new()
        .with_int("rules_revision", status.rules_revision as i64)
        .with("in_canary", Json::Bool(status.in_canary))
        .with("quarantined", Json::Array(quarantined))
        .with_int("quarantines", status.quarantines as i64)
        .with_int("swaps", status.swaps as i64)
        .with_int("rollbacks", status.rollbacks as i64)
        .with_int("commits", status.commits as i64)
        .with_int("regen_failures", status.regen_failures as i64)
        .with_int("windows_observed", status.windows_observed as i64)
        .with("transitions", Json::Array(transitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_service;
    use crate::service::{ComputeService, ServiceConfig};
    use tt_core::objective::Objective;
    use tt_core::request::Tolerance;

    fn svc() -> ComputeService {
        demo_service(80, 9, ServiceConfig::defaults())
    }

    #[test]
    fn document_has_the_advertised_shape() {
        let svc = svc();
        let obs = svc.observability().unwrap();
        obs.record_served(
            &svc.resolve(Objective::Cost, Tolerance::new(0.05).unwrap()),
            &crate::obs::ServedSample {
                sim_latency_us: 9_000,
                quality_err: 0.1,
                baseline_err: 0.1,
                degraded: false,
                invocations: 1,
                version: 0,
            },
        );
        obs.sentinel().force_tick(1_000_000);
        let body = metrics_document(obs, 1_234).render();
        assert!(body.contains("\"service\": \"toltiers\""));
        assert!(body.contains("\"uptime_ms\": 1234"));
        assert!(body.contains("\"requests_total\": 1"));
        assert!(body.contains("\"cost/0.050\""));
        assert!(body.contains("\"in_contract\": true"));
        assert!(body.contains("\"window_ms\": 250"));
        assert!(body.contains("\"windows_evaluated\": 1"));
    }

    #[test]
    fn totals_are_identical_for_identical_traffic() {
        let extract = |body: &str| {
            let start = body.find("\"totals\": {").expect("totals present");
            let mut depth = 0usize;
            for (i, ch) in body[start..].char_indices() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return body[start..start + i + 1].to_string();
                        }
                    }
                    _ => {}
                }
            }
            panic!("unbalanced totals object");
        };
        let run = || {
            let svc = svc();
            let obs = svc.observability().unwrap();
            let tier = svc.resolve(Objective::ResponseTime, Tolerance::new(0.01).unwrap());
            for i in 0..50 {
                obs.record_served(
                    &tier,
                    &crate::obs::ServedSample {
                        sim_latency_us: 2_000 + i * 13,
                        quality_err: 0.02,
                        baseline_err: 0.02,
                        degraded: i % 7 == 0,
                        invocations: 1 + (i % 2),
                        version: (i % 3) as usize,
                    },
                );
            }
            extract(&metrics_document(obs, 999).render())
        };
        // uptime differs between renders; totals must not.
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("\"requests_total\": 50"));
    }

    #[test]
    fn empty_histograms_render_without_quantiles() {
        let svc = svc();
        let body = metrics_document(svc.observability().unwrap(), 0).render();
        // No traffic: count/sum present, no p50 keys invented.
        assert!(body.contains("\"count\": 0"));
        assert!(body.contains("\"awaiting first window\""));
    }
}
